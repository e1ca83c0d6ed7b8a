// Provider manager — allocates pages to providers.
//
// The paper attributes BSFS's sustained throughput to this component's
// load-balancing page distribution (§IV.B). Strategies:
//   kLeastLoaded  — BlobSeer's default: pick the provider with the least
//                   allocated bytes (ties broken pseudo-randomly).
//   kRoundRobin   — global rotation, ignores sizes.
//   kRandomK      — sample 3 providers uniformly, keep the least loaded
//                   (power-of-d-choices).
//   kLocalFirst   — HDFS-style: first replica on the writing client's node
//                   when it hosts a provider (ablation A1 contrasts this
//                   with the balanced policies).
// Replicas of one page always land on distinct providers, and the
// second replica avoids the first's rack when possible (mirrors BlobSeer's
// fault-tolerance placement).
#pragma once

#include <cstdint>
#include <vector>

#include "blob/types.h"
#include "common/container.h"
#include "common/rng.h"
#include "net/liveness.h"
#include "net/network.h"
#include "net/rpc.h"
#include "sim/task.h"

namespace bs::blob {

enum class PlacementPolicy { kLeastLoaded, kRoundRobin, kRandomK, kLocalFirst };

struct ProviderManagerConfig {
  PlacementPolicy policy = PlacementPolicy::kLeastLoaded;
};

class ProviderManager {
 public:
  // The service runs on `node` and places pages on `provider_nodes`.
  ProviderManager(net::Network& net, net::NodeId node,
                  std::vector<net::NodeId> provider_nodes,
                  ProviderManagerConfig cfg);

  // Chooses `replication` distinct providers for each of `page_count`
  // pages of `page_size` bytes written by `client`. Returns page-major:
  // result[i] = providers for page i. Providers the liveness view reports
  // dead are excluded; a page may get fewer than `replication` replicas if
  // not enough live providers remain (degraded placement, repaired later).
  // Both requests are one slot of the manager's service, returned as a
  // call (net/rpc.h): await it where it is made.
  net::Service::Call<std::vector<std::vector<net::NodeId>>> allocate(
      net::NodeId client, uint64_t page_count, uint64_t page_size,
      uint32_t replication);

  // Chooses up to `count` live providers to host new replicas of one
  // `page_size` page. `holders` are the replicas that still hold the page
  // (excluded, and used to preserve rack diversity: while the replica set
  // would otherwise sit in a single rack, picks prefer other racks —
  // best-effort, like initial placement); `avoid` are other exclusions
  // (dead or already-failed nodes). Used by writers whose replica stores
  // failed mid-crash and by the repair services; may return fewer than
  // `count` when the cluster is too degraded.
  net::Service::Call<std::vector<net::NodeId>> allocate_replacements(
      net::NodeId client, uint64_t page_size,
      const std::vector<net::NodeId>& holders,
      const std::vector<net::NodeId>& avoid, uint32_t count);

  // Placement consults this view (typically the failure detector) so dead
  // nodes stop receiving new pages once detected. Null = everything is up.
  void set_liveness(const net::LivenessView* view) { liveness_ = view; }

  // Allocated bytes per provider (the PM's own load view), ordered by node
  // id, for reports and balance sweeps.
  std::vector<std::pair<net::NodeId, uint64_t>> load_sorted() const;
  uint64_t total_requests() const { return svc_.requests(); }

 private:
  bool node_dead(net::NodeId n) const {
    return liveness_ != nullptr && !liveness_->is_up(n);
  }
  // Providers not in `exclude` and not detected dead.
  size_t eligible_count(const std::vector<net::NodeId>& exclude) const;
  // Returns the picked provider's position in providers_.
  size_t pick_one(net::NodeId client, const std::vector<net::NodeId>& exclude,
                  uint32_t exclude_rack);

  net::Network& net_;
  ProviderManagerConfig cfg_;
  net::Service svc_;
  std::vector<net::NodeId> providers_;
  // Allocated bytes per provider, indexed like providers_.
  std::vector<uint64_t> load_;
  bs::unordered_map<net::NodeId, size_t> index_of_;
  const net::LivenessView* liveness_ = nullptr;
  Rng rng_;
  size_t rr_cursor_ = 0;
};

}  // namespace bs::blob
