#include "blob/cluster.h"

#include <numeric>

#include "sim/parallel.h"

namespace bs::blob {

BlobSeerCluster::BlobSeerCluster(sim::Simulator& sim, net::Network& net,
                                 BlobSeerConfig cfg)
    : sim_(sim), net_(net), cfg_(std::move(cfg)) {
  const uint32_t n = net_.config().num_nodes;
  if (cfg_.provider_nodes.empty()) {
    cfg_.provider_nodes.resize(n);
    std::iota(cfg_.provider_nodes.begin(), cfg_.provider_nodes.end(), 0);
  }
  if (cfg_.metadata_nodes.empty()) {
    cfg_.metadata_nodes.resize(n);
    std::iota(cfg_.metadata_nodes.begin(), cfg_.metadata_nodes.end(), 0);
  }

  vm_ = std::make_unique<VersionManager>(
      sim_, net_,
      cfg_.version_manager_nodes.empty()
          ? std::vector<net::NodeId>{cfg_.version_manager_node}
          : cfg_.version_manager_nodes);
  pm_ = std::make_unique<ProviderManager>(net_, cfg_.provider_manager_node,
                                          cfg_.provider_nodes, cfg_.manager);

  dht_ = std::make_unique<dht::Dht>(sim_, net_, cfg_.metadata_nodes, cfg_.dht);

  providers_.reserve(cfg_.provider_nodes.size());
  for (net::NodeId node : cfg_.provider_nodes) {
    ProviderConfig pc = cfg_.provider;
    pc.node = node;
    providers_.push_back(std::make_unique<Provider>(sim_, net_, pc));
    directory_.add(providers_.back().get());
  }
}

std::unique_ptr<BlobClient> BlobSeerCluster::make_client(net::NodeId node) {
  return std::make_unique<BlobClient>(node, sim_, net_, *vm_, *pm_, directory_,
                                      *dht_, cfg_.client);
}

void BlobSeerCluster::set_liveness(const net::LivenessView* view) {
  cfg_.client.liveness = view;
  pm_->set_liveness(view);
}

void BlobSeerCluster::crash_provider(net::NodeId node, bool wipe_storage) {
  net_.set_node_up(node, false);
  directory_.at(node).crash(wipe_storage);
}

void BlobSeerCluster::recover_provider(net::NodeId node) {
  net_.set_node_up(node, true);
  directory_.at(node).recover();
}

sim::Task<void> BlobSeerCluster::drain_all() {
  std::vector<sim::Task<void>> drains;
  drains.reserve(providers_.size());
  for (auto& p : providers_) drains.push_back(p->drain());
  co_await sim::when_all(sim_, std::move(drains));
}

}  // namespace bs::blob
