#include "blob/gc.h"

#include <vector>

#include "blob/metadata.h"
#include "common/assert.h"
#include "sim/parallel.h"

namespace bs::blob {
namespace {

// Enumerates the canonical nodes version u created (the same set
// build_write_nodes produced for it): leaves of its write range, their
// ancestors, and the growth chain.
void for_each_created_node(const WriteRecord& rec, uint64_t cap_before,
                           const std::function<void(const PageRange&)>& fn) {
  for (uint64_t p = rec.range.first; p < rec.range.end(); ++p) {
    fn(PageRange{p, 1});
  }
  for (uint64_t sz = 2; sz <= rec.cap_after; sz <<= 1) {
    uint64_t first_node = rec.range.first / sz;
    const uint64_t last_node = (rec.range.end() - 1) / sz;
    const bool chain = sz > cap_before;
    if (chain) first_node = 0;
    for (uint64_t k = first_node; k <= last_node; ++k) {
      const PageRange range{k * sz, sz};
      if (range.intersects(rec.range) || (chain && k == 0)) fn(range);
    }
  }
}

}  // namespace

sim::Task<GcStats> collect_garbage(
    BlobSeerCluster& cluster, net::NodeId node, BlobId blob, Version keep_from,
    const std::function<Version()>& pin_cap) {
  GcStats stats;
  auto& vm = cluster.version_manager();
  auto& dht = cluster.metadata_dht();

  // Flip the watermark first: no reader can start on a doomed version
  // afterwards (in-flight readers of old versions are the caller's
  // responsibility, as with any GC barrier; snapshot pins close that
  // window through pin_cap, checked atomically at the flip).
  stats.pruned_below = co_await vm.prune(node, blob, keep_from, pin_cap);
  const WriteHistory history = co_await vm.full_history(node, blob);
  BS_CHECK(keep_from >= 1 && keep_from <= history.size() + 1);
  // Reclaim strictly below the watermark the prune ACTUALLY set — a pin
  // that appeared in flight may have capped it under the requested
  // keep_from, and everything below the watermark is unreadable, so the
  // sweep is safe and idempotent either way.
  const Version watermark = stats.pruned_below;

  for (Version u = 1; u < watermark; ++u) {
    const WriteRecord& rec = history[u - 1];
    BS_CHECK(rec.version == u);
    const uint64_t cap_before = u >= 2 ? history[u - 2].cap_after : 0;

    // Gather u's dead nodes: those whose range u no longer owns as of the
    // watermark (ownership is monotone, so this covers all kept versions).
    std::vector<PageRange> dead;
    for_each_created_node(rec, cap_before, [&](const PageRange& range) {
      if (latest_owner(range, history.records(), watermark + 1) != u) {
        dead.push_back(range);
      }
    });

    for (const PageRange& range : dead) {
      const std::string key = meta_key(blob, range, u);
      if (range.count == 1) {
        // Leaf: delete the page replicas it points at, then the leaf.
        auto raw = co_await dht.get(node, key);
        if (raw.has_value()) {
          const MetaNode leaf = MetaNode::deserialize(*raw);
          for (net::NodeId provider : leaf.providers) {
            const bool had = co_await cluster.provider_on(provider).erase_page(
                node, PageKey{blob, range.first, u});
            if (had) {
              ++stats.page_replicas_deleted;
              stats.bytes_reclaimed += leaf.page_length;
            }
          }
        }
      }
      const bool had_node = co_await dht.erase(node, key);
      if (had_node) ++stats.meta_nodes_deleted;
    }
  }
  co_return stats;
}

}  // namespace bs::blob
