#include "fault/injector.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "blob/cluster.h"
#include "common/assert.h"
#include "hdfs/hdfs.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bs::fault {

FaultInjector::FaultInjector(sim::Simulator& sim, net::Network& net,
                             FaultInjectorConfig cfg)
    : sim_(sim), net_(net), cfg_(cfg), rng_(cfg.seed) {
  obs::MetricsRegistry& m = sim_.metrics();
  tracer_ = &sim_.tracer();
  m_crashes_ = &m.counter("fault/crashes");
  m_slowdowns_ = &m.counter("fault/slowdowns");
}

sim::Task<void> FaultInjector::fire_crash(net::NodeId node, double t) {
  co_await sim_.delay(t - sim_.now());
  net_.set_node_up(node, false);
  if (crash_hook_) crash_hook_(node);
  m_crashes_->inc();
  if (tracer_->enabled()) {
    tracer_->instant("fault", "fault", node, "crash", "\"wipe\":true");
  }
}

void FaultInjector::crash_at(net::NodeId node, double t) {
  BS_CHECK(t >= sim_.now());
  sim_.spawn(fire_crash(node, t));
}

sim::Task<void> FaultInjector::fire_perf(net::NodeId node, net::NodePerf perf,
                                         double t) {
  co_await sim_.delay(t - sim_.now());
  net_.set_node_perf(node, perf);
  m_slowdowns_->inc();
  if (tracer_->enabled()) {
    char args[64];
    std::snprintf(args, sizeof(args), "\"cpu\":%g,\"disk\":%g,\"nic\":%g",
                  perf.cpu, perf.disk, perf.nic);
    tracer_->instant("fault", "fault", node, "slow_node", args);
  }
}

void FaultInjector::slow_node_at(net::NodeId node, double factor, double t) {
  BS_CHECK(t >= sim_.now());
  BS_CHECK(factor > 1);
  const double s = 1.0 / factor;
  sim_.spawn(fire_perf(node, net::NodePerf{s, s, s}, t));
}

std::vector<net::NodeId> FaultInjector::slow_fraction_at(
    const std::vector<net::NodeId>& candidates, double fraction, double factor,
    double t) {
  BS_CHECK(fraction >= 0 && fraction <= 1);
  const size_t k = static_cast<size_t>(
      std::min<double>(candidates.size(),
                       std::ceil(fraction * static_cast<double>(candidates.size()))));
  // Partial Fisher–Yates over a copy: the first k entries are the victims.
  std::vector<net::NodeId> victims = candidates;
  for (size_t i = 0; i < k; ++i) {
    const size_t j = i + rng_.below(victims.size() - i);
    std::swap(victims[i], victims[j]);
  }
  victims.resize(k);
  for (net::NodeId n : victims) slow_node_at(n, factor, t);
  return victims;
}

std::vector<net::NodeId> FaultInjector::crash_rack_at(
    uint32_t rack, const std::vector<net::NodeId>& candidates, double t) {
  std::vector<net::NodeId> victims;
  for (net::NodeId n : candidates) {
    if (net_.config().rack_of(n) == rack) victims.push_back(n);
  }
  for (net::NodeId n : victims) crash_at(n, t);
  return victims;
}

void wire_blobseer(FaultInjector& injector, blob::BlobSeerCluster& cluster) {
  injector.set_crash_hook([&cluster](net::NodeId node) {
    cluster.crash_provider(node, /*wipe_storage=*/true);
  });
}

void wire_hdfs(FaultInjector& injector, hdfs::Hdfs& fs) {
  injector.set_crash_hook([&fs](net::NodeId node) {
    fs.crash_datanode(node, /*wipe_storage=*/true);
  });
}

}  // namespace bs::fault
