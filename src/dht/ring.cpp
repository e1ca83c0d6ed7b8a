#include "dht/ring.h"

#include <algorithm>
#include <string>

#include "common/assert.h"
#include "common/hash.h"

namespace bs::dht {

HashRing::HashRing(std::vector<net::NodeId> nodes, uint32_t vnodes_per_node)
    : node_count_(nodes.size()) {
  BS_CHECK_MSG(!nodes.empty(), "hash ring needs at least one node");
  points_.reserve(nodes.size() * vnodes_per_node);
  for (net::NodeId n : nodes) {
    for (uint32_t v = 0; v < vnodes_per_node; ++v) {
      const uint64_t h =
          fnv1a64_u64(v, fnv1a64_u64(n, 0x9e3779b97f4a7c15ULL));
      points_.push_back(Point{h, n});
    }
  }
  std::sort(points_.begin(), points_.end());
}

net::NodeId HashRing::primary(uint64_t key_hash) const {
  auto it = std::lower_bound(
      points_.begin(), points_.end(), Point{key_hash, 0},
      [](const Point& a, const Point& b) { return a.hash < b.hash; });
  if (it == points_.end()) it = points_.begin();
  return it->node;
}

std::vector<net::NodeId> HashRing::replicas(uint64_t key_hash, size_t k) const {
  k = std::min(k, node_count_);
  std::vector<net::NodeId> out;
  out.reserve(k);
  auto it = std::lower_bound(
      points_.begin(), points_.end(), Point{key_hash, 0},
      [](const Point& a, const Point& b) { return a.hash < b.hash; });
  size_t steps = 0;
  while (out.size() < k && steps < points_.size()) {
    if (it == points_.end()) it = points_.begin();
    if (std::find(out.begin(), out.end(), it->node) == out.end()) {
      out.push_back(it->node);
    }
    ++it;
    ++steps;
  }
  BS_CHECK(out.size() == k);
  return out;
}

ServiceRing::ServiceRing(net::Network& net,
                         const std::vector<net::NodeId>& nodes,
                         double service_time_s, std::string_view metric)
    : ring_(nodes) {
  for (size_t i = 0; i < nodes.size(); ++i) {
    BS_CHECK_MSG(index_of_.emplace(nodes[i], i).second,
                 "duplicate service ring node");
    obs::Counter* requests = nullptr;
    if (!metric.empty()) {
      requests = &net.simulator().metrics().counter(
          metric, {{"shard", std::to_string(i)}});
    }
    services_.emplace_back(net, nodes[i], service_time_s, requests);
  }
}

size_t ServiceRing::position(uint64_t key_hash) const {
  if (services_.size() == 1) return 0;
  return index_of_.at(ring_.primary(key_hash));
}

std::vector<net::Service*> ServiceRing::replicas(uint64_t key_hash, size_t k) {
  std::vector<net::Service*> out;
  for (net::NodeId n : ring_.replicas(key_hash, k)) {
    out.push_back(&services_[index_of_.at(n)]);
  }
  return out;
}

uint64_t ServiceRing::total_requests() const {
  uint64_t total = 0;
  for (const net::Service& s : services_) total += s.requests();
  return total;
}

size_t ServiceRing::queue_depth() const {
  size_t total = 0;
  for (const net::Service& s : services_) total += s.queue_depth();
  return total;
}

std::map<net::NodeId, uint64_t> ServiceRing::requests_per_node() const {
  std::map<net::NodeId, uint64_t> out;
  for (const net::Service& s : services_) out[s.node()] = s.requests();
  return out;
}

}  // namespace bs::dht
