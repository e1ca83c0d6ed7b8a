#include "dht/dht.h"

#include "common/assert.h"
#include "common/hash.h"
#include "sim/parallel.h"

namespace bs::dht {

Dht::Dht(sim::Simulator& sim, net::Network& net, std::vector<net::NodeId> nodes,
         DhtConfig cfg)
    : sim_(sim), net_(net), cfg_(cfg), ring_(nodes, cfg.vnodes_per_node) {
  for (net::NodeId n : nodes) {
    servers_.emplace(n, std::make_unique<Server>(sim_, cfg_.service_time_s));
  }
}

sim::Task<void> Dht::put_one(net::NodeId client, net::NodeId server,
                             std::string key, Bytes value) {
  Server& s = *servers_.at(server);
  co_await net_.control(client, server);
  co_await s.queue.process();
  s.store.insert_or_assign(std::move(key), std::move(value));
  ++s.requests;
  co_await net_.control(server, client);
}

sim::Task<void> Dht::put(net::NodeId client, std::string key, Bytes value) {
  ++puts_;
  const uint64_t h = fnv1a64(key);
  auto targets = ring_.replicas(h, cfg_.replication);
  if (targets.size() == 1) {
    co_await put_one(client, targets[0], std::move(key), std::move(value));
    co_return;
  }
  std::vector<sim::Task<void>> writes;
  writes.reserve(targets.size());
  for (net::NodeId t : targets) {
    writes.push_back(put_one(client, t, key, value));
  }
  co_await sim::when_all(sim_, std::move(writes));
}

sim::Task<std::optional<Bytes>> Dht::get(net::NodeId client, std::string key) {
  ++gets_;
  const net::NodeId target = ring_.primary(fnv1a64(key));
  Server& s = *servers_.at(target);
  co_await net_.control(client, target);
  co_await s.queue.process();
  std::optional<Bytes> result;
  if (auto it = s.store.find(key); it != s.store.end()) result = it->second;
  ++s.requests;
  co_await net_.control(target, client);
  co_return result;
}

sim::Task<bool> Dht::erase(net::NodeId client, std::string key) {
  const uint64_t h = fnv1a64(key);
  auto targets = ring_.replicas(h, cfg_.replication);
  bool erased = false;
  for (size_t i = 0; i < targets.size(); ++i) {
    Server& s = *servers_.at(targets[i]);
    co_await net_.control(client, targets[i]);
    co_await s.queue.process();
    const bool hit = s.store.erase(key) > 0;
    if (i == 0) erased = hit;
    ++s.requests;
    co_await net_.control(targets[i], client);
  }
  co_return erased;
}

size_t Dht::total_entries() const {
  size_t n = 0;
  for (const auto& [node, server] : servers_) n += server->store.size();
  return n;
}

std::map<net::NodeId, uint64_t> Dht::requests_per_node() const {
  std::map<net::NodeId, uint64_t> out;
  for (const auto& [node, server] : servers_) out[node] = server->requests;
  return out;
}

}  // namespace bs::dht
