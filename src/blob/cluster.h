// Cluster assembly for a complete BlobSeer deployment: version manager,
// provider manager, page providers, metadata providers (DHT) — wired to a
// simulated network. This is the entry point library users start from (see
// examples/quickstart.cpp).
#pragma once

#include <memory>
#include <vector>

#include "blob/client.h"
#include "blob/provider.h"
#include "blob/provider_manager.h"
#include "blob/version_manager.h"
#include "dht/dht.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace bs::blob {

struct BlobSeerConfig {
  // Nodes hosting page providers; empty = all cluster nodes.
  std::vector<net::NodeId> provider_nodes;
  // Nodes hosting metadata providers; empty = all cluster nodes.
  std::vector<net::NodeId> metadata_nodes;
  net::NodeId version_manager_node = 0;
  // Sharded version manager: per-blob serial points hashed across these
  // nodes (empty = centralized on version_manager_node). See
  // blob/version_manager.h.
  std::vector<net::NodeId> version_manager_nodes;
  net::NodeId provider_manager_node = 0;

  ProviderConfig provider;          // per-provider knobs (node is overwritten)
  ProviderManagerConfig manager;    // placement policy
  dht::DhtConfig dht;
  ClientConfig client;
};

class BlobSeerCluster {
 public:
  BlobSeerCluster(sim::Simulator& sim, net::Network& net,
                  BlobSeerConfig cfg = {});

  // A client stub running on `node`. Clients are cheap; create one per
  // simulated process.
  std::unique_ptr<BlobClient> make_client(net::NodeId node);

  sim::Simulator& simulator() { return sim_; }
  VersionManager& version_manager() { return *vm_; }
  ProviderManager& provider_manager() { return *pm_; }
  dht::Dht& metadata_dht() { return *dht_; }
  const ProviderDirectory& providers() const { return directory_; }
  Provider& provider_on(net::NodeId node) { return directory_.at(node); }
  const std::vector<std::unique_ptr<Provider>>& all_providers() const {
    return providers_;
  }

  // Waits until every provider flushed its RAM buffer to disk.
  sim::Task<void> drain_all();

  // --- fault tolerance wiring ---

  // Plugs a liveness view (typically the failure detector) into placement
  // and into clients created afterwards. Null = assume everything is up.
  void set_liveness(const net::LivenessView* view);

  // Fail-stop crash / recovery of the provider on `node`: flips the
  // network's ground truth, which is the provider's power; a crash also
  // destroys the provider's unsynced window (wipe_storage: its disk too).
  void crash_provider(net::NodeId node, bool wipe_storage = false);
  void recover_provider(net::NodeId node) { net_.set_node_up(node, true); }

 private:
  sim::Simulator& sim_;
  net::Network& net_;
  BlobSeerConfig cfg_;
  std::unique_ptr<VersionManager> vm_;
  std::unique_ptr<ProviderManager> pm_;
  std::unique_ptr<dht::Dht> dht_;
  std::vector<std::unique_ptr<Provider>> providers_;
  ProviderDirectory directory_;
};

}  // namespace bs::blob
