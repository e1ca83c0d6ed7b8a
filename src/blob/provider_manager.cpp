#include "blob/provider_manager.h"

#include <algorithm>
#include <limits>

#include "common/assert.h"
#include "net/replica_order.h"

namespace bs::blob {

namespace {
// Per-request service time at the provider manager.
constexpr double kServiceTimeS = 60e-6;
// Seed of the placement policies' tie-breaking and sampling.
constexpr uint64_t kPlacementSeed = 0x9db5;
// Providers kRandomK samples per pick (the d of power-of-d-choices).
constexpr uint32_t kRandomKChoices = 3;
}  // namespace

ProviderManager::ProviderManager(net::Network& net, net::NodeId node,
                                 std::vector<net::NodeId> provider_nodes,
                                 ProviderManagerConfig cfg)
    : net_(net), cfg_(cfg), svc_(net, node, kServiceTimeS),
      providers_(std::move(provider_nodes)), load_(providers_.size(), 0),
      rng_(kPlacementSeed) {
  BS_CHECK_MSG(!providers_.empty(), "need at least one provider");
  for (size_t i = 0; i < providers_.size(); ++i) {
    BS_CHECK_MSG(index_of_.emplace(providers_[i], i).second,
                 "a provider node is listed twice");
  }
}

std::vector<std::pair<net::NodeId, uint64_t>> ProviderManager::load_sorted()
    const {
  std::vector<std::pair<net::NodeId, uint64_t>> out;
  out.reserve(providers_.size());
  // providers_ is the construction order; sorting by node id decouples the
  // report from it.
  for (size_t i = 0; i < providers_.size(); ++i) {
    out.emplace_back(providers_[i], load_[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t ProviderManager::eligible_count(
    const std::vector<net::NodeId>& exclude) const {
  size_t n = 0;
  for (net::NodeId p : providers_) {
    if (node_dead(p)) continue;
    if (std::find(exclude.begin(), exclude.end(), p) != exclude.end()) continue;
    ++n;
  }
  return n;
}

size_t ProviderManager::pick_one(net::NodeId client,
                                 const std::vector<net::NodeId>& exclude,
                                 uint32_t exclude_rack) {
  const auto& cfg = net_.config();
  auto excluded = [&](net::NodeId n) {
    if (node_dead(n)) return true;
    if (std::find(exclude.begin(), exclude.end(), n) != exclude.end()) {
      return true;
    }
    // Rack spreading is best-effort: ignored when it would leave no choice.
    return exclude_rack != UINT32_MAX && cfg.rack_of(n) == exclude_rack &&
           providers_.size() > cfg.nodes_per_rack;
  };

  switch (cfg_.policy) {
    case PlacementPolicy::kLocalFirst: {
      if (exclude.empty()) {
        const auto local = index_of_.find(client);
        if (local != index_of_.end()) return local->second;
      }
      // Fall through to random choice for non-first replicas.
      [[fallthrough]];
    }
    case PlacementPolicy::kRandomK: {
      size_t best = 0;
      uint64_t best_load = std::numeric_limits<uint64_t>::max();
      bool found = false;
      const uint32_t k = cfg_.policy == PlacementPolicy::kRandomK
                             ? kRandomKChoices
                             : 1;  // kLocalFirst replicas: plain random
      for (uint32_t attempt = 0, picked = 0;
           picked < k && attempt < 16 * (k + 1); ++attempt) {
        const size_t i = rng_.below(providers_.size());
        if (excluded(providers_[i])) continue;
        ++picked;
        found = true;
        if (load_[i] < best_load) {
          best_load = load_[i];
          best = i;
        }
      }
      if (found) return best;
      break;  // pathological exclusion: fall back to least-loaded scan
    }
    case PlacementPolicy::kRoundRobin: {
      for (size_t tries = 0; tries < providers_.size(); ++tries) {
        const size_t i = rr_cursor_;
        rr_cursor_ = (rr_cursor_ + 1) % providers_.size();
        if (!excluded(providers_[i])) return i;
      }
      break;
    }
    case PlacementPolicy::kLeastLoaded:
      break;
  }

  // Least-loaded scan (also the fallback for the other policies).
  size_t best = 0;
  uint64_t best_load = std::numeric_limits<uint64_t>::max();
  // Random starting point so equal loads don't all pick provider 0.
  const size_t start = rng_.below(providers_.size());
  for (size_t k = 0; k < providers_.size(); ++k) {
    const size_t i = (start + k) % providers_.size();
    if (excluded(providers_[i])) continue;
    if (load_[i] < best_load) {
      best_load = load_[i];
      best = i;
    }
  }
  if (best_load == std::numeric_limits<uint64_t>::max()) {
    // Rack spreading is best-effort: when liveness has shrunk the cluster
    // to (mostly) the first replica's rack, place there rather than abort.
    for (size_t k = 0; k < providers_.size(); ++k) {
      const size_t i = (start + k) % providers_.size();
      const net::NodeId n = providers_[i];
      if (node_dead(n) ||
          std::find(exclude.begin(), exclude.end(), n) != exclude.end()) {
        continue;
      }
      if (load_[i] < best_load) {
        best_load = load_[i];
        best = i;
      }
    }
  }
  BS_CHECK_MSG(best_load != std::numeric_limits<uint64_t>::max(),
               "no eligible provider");
  return best;
}

net::Service::Call<std::vector<std::vector<net::NodeId>>>
ProviderManager::allocate(net::NodeId client, uint64_t page_count,
                          uint64_t page_size, uint32_t replication) {
  BS_CHECK(replication >= 1);
  BS_CHECK(replication <= providers_.size());
  // Bulk allocations cost a bit more.
  const auto cost =
      static_cast<double>(std::max<uint64_t>(1, page_count / 64));
  return svc_.call(client, cost, [this, client, page_count, page_size,
                                  replication] {
    const auto& ncfg = net_.config();
    // Live-provider census once per call: the selection loop below runs
    // in one slot, so liveness cannot change under it, and every pick is
    // live — a page degrades to fewer replicas exactly when the live count
    // runs out.
    size_t live_providers = 0;
    for (net::NodeId p : providers_) {
      if (!node_dead(p)) ++live_providers;
    }
    std::vector<std::vector<net::NodeId>> out(page_count);
    for (uint64_t p = 0; p < page_count; ++p) {
      std::vector<net::NodeId>& replicas = out[p];
      replicas.reserve(replication);
      uint32_t first_rack = UINT32_MAX;
      for (uint32_t r = 0; r < replication; ++r) {
        if (replicas.size() >= live_providers) break;  // degraded placement
        const size_t i =
            pick_one(client, replicas, r == 1 ? first_rack : UINT32_MAX);
        const net::NodeId n = providers_[i];
        if (r == 0) first_rack = ncfg.rack_of(n);
        replicas.push_back(n);
        load_[i] += page_size;
      }
      BS_CHECK_MSG(!replicas.empty(), "no live provider for page placement");
    }
    return out;
  });
}

net::Service::Call<std::vector<net::NodeId>>
ProviderManager::allocate_replacements(net::NodeId client, uint64_t page_size,
                                       const std::vector<net::NodeId>& holders,
                                       const std::vector<net::NodeId>& avoid,
                                       uint32_t count) {
  return svc_.call(client, [this, client, page_size, &holders, &avoid,
                            count] {
    const auto& ncfg = net_.config();
    std::vector<net::NodeId> out;
    for (uint32_t r = 0; r < count; ++r) {
      std::vector<net::NodeId> keep = holders;
      keep.insert(keep.end(), out.begin(), out.end());
      // Preserve the initial placement's rack diversity: while every
      // replica of the page sits in one rack, steer the pick off that rack
      // so a later rack failure cannot take out the whole set (best-effort,
      // as with initial placement).
      const uint32_t exclude_rack = net::single_rack_of(keep, ncfg);
      std::vector<net::NodeId> taken = std::move(keep);
      taken.insert(taken.end(), avoid.begin(), avoid.end());
      if (eligible_count(taken) == 0) break;
      const size_t i = pick_one(client, taken, exclude_rack);
      out.push_back(providers_[i]);
      load_[i] += page_size;
    }
    return out;
  });
}

}  // namespace bs::blob
