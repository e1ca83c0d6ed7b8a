#include "dht/dht.h"

#include "common/assert.h"
#include "common/hash.h"
#include "sim/parallel.h"

namespace bs::dht {

Dht::Dht(sim::Simulator& sim, net::Network& net, std::vector<net::NodeId> nodes,
         DhtConfig cfg)
    : sim_(sim), cfg_(cfg), ring_(net, nodes, cfg.service_time_s) {
  // Zero replicas would make every put store nothing and still succeed.
  BS_CHECK_MSG(cfg_.replication >= 1, "DHT replication must be at least 1");
}

sim::Task<void> Dht::put_one(net::NodeId client, net::Service& server,
                             std::string key, Bytes value) {
  co_await server.request(client);
  stores_[server.node()].insert_or_assign(std::move(key), std::move(value));
  co_await server.reply(client);
}

sim::Task<void> Dht::put(net::NodeId client, std::string key, Bytes value) {
  ++puts_;
  auto targets = ring_.replicas(fnv1a64(key), cfg_.replication);
  if (targets.size() == 1) {
    co_await put_one(client, *targets[0], std::move(key), std::move(value));
    co_return;
  }
  std::vector<sim::Task<void>> writes;
  writes.reserve(targets.size());
  for (net::Service* t : targets) {
    writes.push_back(put_one(client, *t, key, value));
  }
  co_await sim::when_all(sim_, std::move(writes));
}

net::Service::Call<std::optional<Bytes>> Dht::get(net::NodeId client,
                                                  const std::string& key) {
  ++gets_;
  net::Service& s = ring_.owner(fnv1a64(key));
  return s.call(client, [this, node = s.node(), &key] {
    std::optional<Bytes> result;
    const auto& store = stores_[node];
    if (auto it = store.find(key); it != store.end()) result = it->second;
    return result;
  });
}

sim::Task<bool> Dht::erase(net::NodeId client, std::string key) {
  auto targets = ring_.replicas(fnv1a64(key), cfg_.replication);
  bool erased = false;
  for (size_t i = 0; i < targets.size(); ++i) {
    net::Service& s = *targets[i];
    co_await s.request(client);
    const bool hit = stores_[s.node()].erase(key) > 0;
    if (i == 0) erased = hit;
    co_await s.reply(client);
  }
  co_return erased;
}

size_t Dht::total_entries() const {
  size_t n = 0;
  for (const auto& [node, store] : stores_) n += store.size();
  return n;
}

}  // namespace bs::dht
