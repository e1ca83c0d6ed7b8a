#include "fault/repair.h"

#include <algorithm>
#include <cstdio>

#include "blob/metadata.h"
#include "bsfs/bsfs.h"
#include "common/assert.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/parallel.h"

namespace bs::fault {

using blob::MetaNode;
using blob::PageKey;
using blob::Version;

RepairService::RepairService(blob::BlobSeerCluster& cluster,
                             const net::LivenessView& live, RepairConfig cfg)
    : cluster_(cluster), live_(live), cfg_(cfg) {
  obs::MetricsRegistry& m = cluster_.simulator().metrics();
  tracer_ = &cluster_.simulator().tracer();
  m_passes_ = &m.counter("fault/repair_passes");
  m_restored_ = &m.counter("fault/replicas_restored");
  m_bytes_copied_ = &m.counter("fault/repair_bytes");
}

sim::Task<void> RepairService::repair_leaf(blob::BlobId blob, uint64_t page,
                                           Version version,
                                           uint32_t target_degree,
                                           uint64_t page_size,
                                           RepairStats* stats) {
  auto& dht = cluster_.metadata_dht();
  const std::string key = blob::meta_key(blob, {page, 1}, version);
  auto raw = co_await dht.get(cfg_.node, key);
  if (!raw.has_value()) co_return;  // pruned/GC'd version
  MetaNode leaf = MetaNode::deserialize(*raw);

  // "alive" means up AND holding the page (the has_page check models the
  // block report a restarted node sends): a provider that crashed with a
  // wiped disk and recovered is up but empty — its replica is gone and
  // must be re-created, not trusted.
  const PageKey pkey{blob, page, version};
  std::vector<net::NodeId> alive, dead;
  for (net::NodeId r : leaf.providers) {
    const blob::Provider* p = cluster_.providers().find(r);
    (p != nullptr && live_.is_up(r) && p->has_page(pkey) ? alive : dead)
        .push_back(r);
  }
  if (dead.empty() && alive.size() >= target_degree) co_return;
  ++stats->under_replicated;
  if (alive.empty()) {
    // Every replica is on a dead node: nothing to copy from. The leaf is
    // left untouched so the data comes back if a node recovers un-wiped.
    ++stats->unrepairable;
    co_return;
  }

  const uint32_t need =
      target_degree > alive.size()
          ? target_degree - static_cast<uint32_t>(alive.size())
          : 0;
  std::vector<net::NodeId> healthy = alive;
  if (need > 0) {
    auto targets = co_await cluster_.provider_manager().allocate_replacements(
        cfg_.node, page_size, alive, dead, need);
    for (net::NodeId target : targets) {
      // Copy from the first surviving replica that can actually serve it
      // (the liveness view may lag a second crash).
      bool copied = false;
      for (net::NodeId src : alive) {
        copied = co_await cluster_.provider_on(src).replicate_to(
            cluster_.provider_on(target), pkey);
        if (copied) break;
      }
      if (copied) {
        healthy.push_back(target);
        ++stats->replicas_restored;
        stats->bytes_copied += leaf.page_length;
        m_restored_->inc();
        m_bytes_copied_->inc(static_cast<double>(leaf.page_length));
      }
    }
  }

  // Publish the healthy replica set (drop dead nodes even when enough live
  // replicas remain, so readers stop paying timeouts on them).
  if (healthy != leaf.providers) {
    leaf.providers = std::move(healthy);
    co_await dht.put(cfg_.node, key, leaf.serialize());
  }
}

sim::Task<RepairStats> RepairService::repair_blob(blob::BlobId blob) {
  RepairStats stats;
  m_passes_->inc();
  const double t0 = cluster_.simulator().now();
  auto& vm = cluster_.version_manager();
  const blob::BlobDescriptor desc = co_await vm.describe(cfg_.node, blob);
  const blob::VersionInfo latest = co_await vm.latest(cfg_.node, blob);
  if (latest.version == blob::kNoVersion) {
    stats.finished_at = cluster_.simulator().now();
    co_return stats;
  }
  const auto history = co_await vm.full_history(cfg_.node, blob);

  // Every leaf any published version created; leaves of pruned versions
  // drop out when the DHT lookup misses.
  std::vector<sim::Task<void>> leaves;
  for (Version u = 1; u <= latest.version; ++u) {
    const blob::WriteRecord& rec = history[u - 1];
    BS_CHECK(rec.version == u);
    for (uint64_t p = rec.range.first; p < rec.range.end(); ++p) {
      leaves.push_back(repair_leaf(blob, p, u, desc.replication,
                                   desc.page_size, &stats));
    }
  }
  co_await sim::when_all_limited(cluster_.simulator(), std::move(leaves),
                                 cfg_.copy_parallelism);
  stats.finished_at = cluster_.simulator().now();
  if (tracer_->enabled()) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "\"blob\":%u,\"restored\":%llu,\"bytes\":%llu", blob,
                  static_cast<unsigned long long>(stats.replicas_restored),
                  static_cast<unsigned long long>(stats.bytes_copied));
    tracer_->complete("fault", "fault", cfg_.node, "repair_blob", t0, buf);
  }
  co_return stats;
}

sim::Task<RepairStats> RepairService::repair_namespace(bsfs::Bsfs& fs) {
  bsfs::NamespaceManager& ns = fs.ns();
  std::vector<blob::BlobId> blobs;
  std::vector<std::string> stack;
  stack.emplace_back("/");
  while (!stack.empty()) {
    const std::string dir = stack.back();
    stack.pop_back();
    const auto children = co_await ns.list(cfg_.node, dir);
    for (const std::string& path : children) {
      const std::string base = path.substr(path.find_last_of('/') + 1);
      // MapReduce scratch: job-lifetime-only, never worth repair traffic.
      if (base == "_intermediate" || base == "_attempts") continue;
      const auto entry = co_await ns.lookup(cfg_.node, path);
      if (!entry.has_value()) continue;  // removed while walking
      if (entry->is_dir) {
        stack.push_back(path);
        continue;
      }
      if (entry->under_construction) continue;
      blobs.push_back(entry->blob);
    }
  }
  co_return co_await repair_blobs(std::move(blobs));
}

sim::Task<RepairStats> RepairService::repair_blobs(
    std::vector<blob::BlobId> blobs) {
  RepairStats total;
  for (blob::BlobId b : blobs) {
    const RepairStats one = co_await repair_blob(b);
    total.merge(one);
  }
  total.finished_at = cluster_.simulator().now();
  co_return total;
}

}  // namespace bs::fault
