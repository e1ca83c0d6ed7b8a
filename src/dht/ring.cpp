#include "dht/ring.h"

#include <algorithm>
#include <bit>
#include <string>

#include "common/assert.h"
#include "common/hash.h"

namespace bs::dht {

HashRing::HashRing(const std::vector<net::NodeId>& nodes,
                   uint32_t vnodes_per_node)
    : node_count_(nodes.size()) {
  BS_CHECK_MSG(!nodes.empty(), "hash ring needs at least one node");
  points_.reserve(nodes.size() * vnodes_per_node);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const net::NodeId n = nodes[i];
    for (uint32_t v = 0; v < vnodes_per_node; ++v) {
      const uint64_t h =
          fnv1a64_u64(v, fnv1a64_u64(n, 0x9e3779b97f4a7c15ULL));
      points_.push_back(Point{h, n, static_cast<uint32_t>(i)});
    }
  }
  std::sort(points_.begin(), points_.end());
  const size_t buckets = std::bit_ceil(std::max<size_t>(points_.size(), 2));
  bucket_shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  bucket_first_.resize(buckets);
  size_t p = 0;
  for (size_t b = 0; b < buckets; ++b) {
    const uint64_t start = static_cast<uint64_t>(b) << bucket_shift_;
    while (p < points_.size() && points_[p].hash < start) ++p;
    bucket_first_[b] = static_cast<uint32_t>(p);
  }
}

template <typename T, typename Project>
std::vector<T> HashRing::walk(uint64_t key_hash, size_t k,
                              Project project) const {
  k = std::min(k, node_count_);
  std::vector<T> out;
  out.reserve(k);
  size_t i = first_point(key_hash);
  for (size_t steps = 0; out.size() < k && steps < points_.size(); ++steps) {
    const T v = project(points_[i]);
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
    if (++i == points_.size()) i = 0;
  }
  BS_CHECK(out.size() == k);
  return out;
}

std::vector<net::NodeId> HashRing::replicas(uint64_t key_hash, size_t k) const {
  return walk<net::NodeId>(key_hash, k, [](const Point& p) { return p.node; });
}

std::vector<size_t> HashRing::replica_positions(uint64_t key_hash,
                                                size_t k) const {
  return walk<size_t>(key_hash, k,
                      [](const Point& p) -> size_t { return p.position; });
}

ServiceRing::ServiceRing(net::Network& net,
                         const std::vector<net::NodeId>& nodes,
                         double service_time_s, std::string_view metric)
    : ring_(nodes) {
  std::vector<net::NodeId> sorted = nodes;
  std::sort(sorted.begin(), sorted.end());
  BS_CHECK_MSG(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
               "duplicate service ring node");
  for (size_t i = 0; i < nodes.size(); ++i) {
    obs::Counter* requests = nullptr;
    if (!metric.empty()) {
      requests = &net.simulator().metrics().counter(
          metric, {{"shard", std::to_string(i)}});
    }
    services_.emplace_back(net, nodes[i], service_time_s, requests);
  }
}

std::vector<net::Service*> ServiceRing::replicas(uint64_t key_hash, size_t k) {
  std::vector<net::Service*> out;
  out.reserve(std::min(k, services_.size()));
  for (size_t position : ring_.replica_positions(key_hash, k)) {
    out.push_back(&services_[position]);
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
