// Per-layer metrics: deterministic work counters read from each layer's
// public surface before and after the measured phase, op-latency tails
// from the suite's own timing, and queue depths sampled in traced runs.
//
// Naming: <layer>.<metric>, suffixed .bsfs / .hdfs where the layer runs in
// both worlds (sim, net, mr). An op series gets _p999 with >= 10k samples,
// _p99 with >= 1k, and always _p50 plus its sample count _n.
#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "suite.h"

namespace bs::suite {
namespace {

double delta(const Reading& before, const Reading& after,
             const std::string& key) {
  const auto b = before.counters.find(key);
  const auto a = after.counters.find(key);
  const double av = a == after.counters.end() ? 0 : a->second;
  const double bv = b == before.counters.end() ? 0 : b->second;
  return av - bv;
}

// Largest share of the phase's requests that one node served, over every
// counter named "<prefix><node>".
double busiest_share(const Reading& before, const Reading& after,
                     const std::string& prefix) {
  double total = 0, busiest = 0;
  for (const auto& [key, value] : after.counters) {
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    const double d = delta(before, after, key);
    total += d;
    busiest = std::max(busiest, d);
  }
  return total > 0 ? busiest / total : 0;
}

// Percentile of the samples a histogram gained during the phase,
// interpolated inside the holding bucket (the registry's own rule, minus
// its whole-lifetime min/max clamp).
double phase_percentile(const Reading& before, const Reading& after,
                        const char* key, double q) {
  const std::vector<double>& bounds = obs::latency_buckets_s();
  const auto& a = after.histograms.at(key);
  const auto& b = before.histograms.at(key);
  std::vector<double> counts(a.size());
  double total = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    counts[i] = static_cast<double>(a[i] - b[i]);
    total += counts[i];
  }
  if (total == 0) return 0;
  const double target = q * total;
  double cum = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double prev = cum;
    cum += counts[i];
    if (cum >= target) {
      const double lo = i == 0 ? 0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : bounds.back();
      return lo + (hi - lo) * std::clamp((target - prev) / counts[i], 0.0, 1.0);
    }
  }
  return bounds.back();
}

void op_series(const OpLog& log, const std::string& layer, Op op,
               Metrics* out) {
  const std::vector<double>& lat = log.latencies(op);
  if (lat.empty()) return;
  const std::string base = layer + "." + op_name(op);
  const double n = static_cast<double>(lat.size());
  out->push_back({base + "_p50_ms", 1e3 * quantile(lat, 0.50), "ms"});
  if (lat.size() >= 10000) {
    out->push_back({base + "_p999_ms", 1e3 * quantile(lat, 0.999), "ms"});
  } else if (lat.size() >= 1000) {
    out->push_back({base + "_p99_ms", 1e3 * quantile(lat, 0.99), "ms"});
  }
  out->push_back({base + "_n", n, "count"});
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const size_t k = std::clamp<size_t>(rank, 1, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(k),
                   samples.end());
  return samples[k];
}

Reading read_world(World& w) {
  Reading r;
  auto& c = r.counters;
  obs::MetricsRegistry& m = w.sim.metrics();
  c["sim.events"] = static_cast<double>(w.sim.events_processed());
  const net::SolverStats solver = w.net.solver_stats();
  c["net.flows"] = static_cast<double>(w.net.flows_started());
  c["net.path_classes"] = static_cast<double>(solver.path_classes_created);
  c["net.class_solves"] = static_cast<double>(solver.class_solves);
  c["net.retimes_scheduled"] = static_cast<double>(solver.retimes_scheduled);
  c["net.retimes_damped"] = static_cast<double>(solver.retimes_damped);
  c["net.rpcs"] = m.counter("net/rpcs").value();
  c["net.disk_read_bytes"] = m.counter("net/disk_read_bytes").value();
  c["net.disk_write_bytes"] = m.counter("net/disk_write_bytes").value();
  if (w.blobs) {
    dht::Dht& dht = w.blobs->metadata_dht();
    c["dht.gets"] = static_cast<double>(dht.gets());
    c["dht.puts"] = static_cast<double>(dht.puts());
    for (const auto& [node, n] : dht.requests_per_node()) {
      c["dht.node." + std::to_string(node)] = static_cast<double>(n);
    }
    blob::VersionManager& vm = w.blobs->version_manager();
    c["blob.vm_requests"] = static_cast<double>(vm.total_requests());
    for (const auto& [node, n] : vm.requests_per_shard()) {
      c["blob.vm_shard." + std::to_string(node)] = static_cast<double>(n);
    }
    c["blob.pm_requests"] =
        static_cast<double>(w.blobs->provider_manager().total_requests());
    c["blob.get_pages"] = m.counter("blob/get_pages").value();
    c["blob.put_pages"] = m.counter("blob/put_pages").value();
    c["blob.cache_hits"] = m.counter("blob/cache_hits").value();
    c["blob.cache_misses"] = m.counter("blob/cache_misses").value();
    double batches = 0;
    for (const auto& p : w.blobs->all_providers()) {
      batches += static_cast<double>(p->flush_batches());
    }
    c["blob.flush_batches"] = batches;
    c["bsfs.ns_requests"] = static_cast<double>(w.ns->total_requests());
    for (const auto& [node, n] : w.ns->requests_per_shard()) {
      c["bsfs.ns_shard." + std::to_string(node)] = static_cast<double>(n);
    }
  }
  if (w.hdfs) {
    c["hdfs.nn_requests"] =
        static_cast<double>(w.hdfs->namenode().total_requests());
    c["hdfs.bytes_served"] = m.counter("hdfs/bytes_served").value();
    c["hdfs.dn_cache_hits"] = m.counter("hdfs/dn_cache_hits").value();
    c["hdfs.dn_cache_misses"] = m.counter("hdfs/dn_cache_misses").value();
    double batches = 0;
    for (net::NodeId node : storage_nodes()) {
      batches += static_cast<double>(w.hdfs->datanode_on(node).sync_batches());
    }
    c["hdfs.sync_batches"] = batches;
  }
  r.histograms["net/transfer_s"] = m.histogram("net/transfer_s").bucket_counts();
  if (w.blobs) {
    r.histograms["blob/publish_latency_s"] =
        m.histogram("blob/publish_latency_s").bucket_counts();
  }
  return r;
}

void layer_metrics(World& w, const Reading& before, const Reading& after,
                   Metrics* out) {
  const std::string b = std::string(".") + backend_name(w.backend);
  auto d = [&](const char* key) { return delta(before, after, key); };

  out->push_back({"sim.events" + b, d("sim.events"), "count"});

  const double flows = d("net.flows");
  const double classes = d("net.path_classes");
  out->push_back({"net.flows" + b, flows, "count"});
  out->push_back({"net.path_classes" + b, classes, "count"});
  out->push_back({"net.flows_per_class" + b, ratio(flows, classes), "ratio"});
  out->push_back({"net.class_solves" + b, d("net.class_solves"), "count"});
  out->push_back(
      {"net.retimes_scheduled" + b, d("net.retimes_scheduled"), "count"});
  out->push_back({"net.retimes_damped" + b, d("net.retimes_damped"), "count"});
  out->push_back({"net.rpcs" + b, d("net.rpcs"), "count"});
  out->push_back(
      {"net.transfer_p50_ms" + b,
       1e3 * phase_percentile(before, after, "net/transfer_s", 0.50), "ms"});
  out->push_back(
      {"net.transfer_p999_ms" + b,
       1e3 * phase_percentile(before, after, "net/transfer_s", 0.999), "ms"});
  out->push_back(
      {"net.disk_read_mib" + b, d("net.disk_read_bytes") / kMiB, "MiB"});
  out->push_back(
      {"net.disk_write_mib" + b, d("net.disk_write_bytes") / kMiB, "MiB"});

  const OpLog& log = w.log;
  const QueueSamples& q = w.queues;
  if (w.blobs) {
    out->push_back({"dht.gets", d("dht.gets"), "count"});
    out->push_back({"dht.puts", d("dht.puts"), "count"});
    out->push_back({"dht.busiest_node_share",
                    busiest_share(before, after, "dht.node."), "ratio"});
    out->push_back({"blob.vm_requests", d("blob.vm_requests"), "count"});
    out->push_back({"blob.vm_busiest_shard_share",
                    busiest_share(before, after, "blob.vm_shard."), "ratio"});
    if (w.traced) {
      out->push_back({"blob.vm_queue_depth_mean",
                      ratio(q.vm_sum, static_cast<double>(q.n)), "count"});
      out->push_back({"blob.vm_queue_depth_max", q.vm_max, "count"});
    }
    for (Op op : {Op::kVmAssign, Op::kVmCommit}) {
      const std::vector<double>& lat = log.latencies(op);
      const std::string base = std::string("blob.") + op_name(op);
      out->push_back({base + "_p50_ms", 1e3 * quantile(lat, 0.50), "ms"});
      out->push_back({base + "_p999_ms", 1e3 * quantile(lat, 0.999), "ms"});
    }
    out->push_back({"blob.publish_p99_ms",
                    1e3 * phase_percentile(before, after,
                                           "blob/publish_latency_s", 0.99),
                    "ms"});
    out->push_back({"blob.pm_requests", d("blob.pm_requests"), "count"});
    out->push_back(
        {"blob.provider_get_pages", d("blob.get_pages"), "count"});
    out->push_back(
        {"blob.provider_put_pages", d("blob.put_pages"), "count"});
    const double hits = d("blob.cache_hits");
    out->push_back({"blob.provider_cache_hit_ratio",
                    ratio(hits, hits + d("blob.cache_misses")), "ratio"});
    out->push_back(
        {"blob.provider_flush_batches", d("blob.flush_batches"), "count"});
    out->push_back({"bsfs.ns_requests", d("bsfs.ns_requests"), "count"});
    out->push_back({"bsfs.ns_busiest_shard_share",
                    busiest_share(before, after, "bsfs.ns_shard."), "ratio"});
  }
  if (w.hdfs) {
    out->push_back({"hdfs.nn_requests", d("hdfs.nn_requests"), "count"});
    if (w.traced) {
      out->push_back({"hdfs.nn_queue_depth_mean",
                      ratio(q.nn_sum, static_cast<double>(q.n)), "count"});
      out->push_back({"hdfs.nn_queue_depth_max", q.nn_max, "count"});
    }
    out->push_back(
        {"hdfs.dn_served_mib", d("hdfs.bytes_served") / kMiB, "MiB"});
    const double hits = d("hdfs.dn_cache_hits");
    out->push_back({"hdfs.dn_cache_hit_ratio",
                    ratio(hits, hits + d("hdfs.dn_cache_misses")), "ratio"});
    out->push_back({"hdfs.dn_sync_batches", d("hdfs.sync_batches"), "count"});
  }
  const std::string layer = backend_name(w.backend);
  for (size_t i = 0; i < static_cast<size_t>(Op::kVmAssign); ++i) {
    op_series(log, layer, static_cast<Op>(i), out);
  }
}

sim::Task<void> sample_queues(World* w, const bool* done) {
  QueueSamples& q = w->queues;
  while (!*done) {
    const double vm =
        w->blobs ? static_cast<double>(w->blobs->version_manager().queue_depth())
                 : 0;
    const double nn =
        w->hdfs ? static_cast<double>(w->hdfs->namenode().queue_depth()) : 0;
    ++q.n;
    q.vm_sum += vm;
    q.vm_max = std::max(q.vm_max, vm);
    q.nn_sum += nn;
    q.nn_max = std::max(q.nn_max, nn);
    co_await w->sim.delay(1e-3);
  }
}

}  // namespace bs::suite
