// Consistent-hash ring mapping keys to metadata-provider nodes.
//
// Virtual nodes smooth the key distribution; replica sets are the next k
// distinct physical nodes clockwise from the key's position (the classic
// Chord/Dynamo successor-list scheme BlobSeer's DHT layer relies on).
// A key's first point comes from a bucket table over the top bits of its
// hash instead of a binary search: with at least as many buckets as
// points, a bucket holds about one point, so a lookup reads the bucket's
// first point and steps past the few below the key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string_view>
#include <vector>

#include "net/cluster.h"
#include "net/rpc.h"

namespace bs::dht {

class HashRing {
 public:
  HashRing(const std::vector<net::NodeId>& nodes,
           uint32_t vnodes_per_node = 64);

  net::NodeId primary(uint64_t key_hash) const {
    return points_[first_point(key_hash)].node;
  }
  // The primary's position in the constructor's node list.
  size_t primary_position(uint64_t key_hash) const {
    return points_[first_point(key_hash)].position;
  }
  // k distinct physical nodes for this key (k clamped to the node count),
  // primary first.
  std::vector<net::NodeId> replicas(uint64_t key_hash, size_t k) const;
  // The positions of replicas(key_hash, k) in the constructor's node list.
  std::vector<size_t> replica_positions(uint64_t key_hash, size_t k) const;

  size_t node_count() const { return node_count_; }

 private:
  struct Point {
    uint64_t hash;
    net::NodeId node;
    uint32_t position;  // of `node` in the constructor's node list
    bool operator<(const Point& o) const {
      return hash != o.hash ? hash < o.hash : node < o.node;
    }
  };

  // Index of the first point at or after `key_hash`, wrapping to 0.
  size_t first_point(uint64_t key_hash) const {
    size_t i = bucket_first_[key_hash >> bucket_shift_];
    while (i < points_.size() && points_[i].hash < key_hash) ++i;
    return i == points_.size() ? 0 : i;
  }
  // project(point) for the first k distinct values of it clockwise from
  // `key_hash` (k clamped to the node count).
  template <typename T, typename Project>
  std::vector<T> walk(uint64_t key_hash, size_t k, Project project) const;

  std::vector<Point> points_;  // sorted by hash
  // bucket_first_[b]: the first point at or above bucket b's start, b
  // being the top bits of a hash; the bucket count is a power of two no
  // smaller than the point count (or 2).
  std::vector<uint32_t> bucket_first_;
  unsigned bucket_shift_ = 63;  // 64 - log2(bucket count)
  size_t node_count_;
};

// One net::Service per node of a HashRing: the sharded metadata services
// (version-manager shards, namespace shards, DHT servers) route each key
// hash to its owner node's service. Callers pick the key hash.
class ServiceRing {
 public:
  // A non-empty `metric` registers a `<metric>{shard=i}` request counter per
  // node, i being the node's position in `nodes`.
  ServiceRing(net::Network& net, const std::vector<net::NodeId>& nodes,
              double service_time_s, std::string_view metric = {});

  // Position in the constructor's node list of `key_hash`'s owner (a
  // one-node ring skips the ring lookup).
  size_t position(uint64_t key_hash) const {
    return services_.size() == 1 ? 0 : ring_.primary_position(key_hash);
  }
  net::Service& owner(uint64_t key_hash) { return at(position(key_hash)); }
  const net::Service& owner(uint64_t key_hash) const {
    return services_[position(key_hash)];
  }
  // The services of HashRing::replicas(key_hash, k), owner first.
  std::vector<net::Service*> replicas(uint64_t key_hash, size_t k);
  net::Service& at(size_t position) { return services_[position]; }
  size_t size() const { return services_.size(); }

  uint64_t total_requests() const;
  size_t queue_depth() const;
  // Requests served per node, sorted by node: callers iterate this into
  // reports, so the order must not depend on the constructor's.
  std::map<net::NodeId, uint64_t> requests_per_node() const;

 private:
  HashRing ring_;
  std::deque<net::Service> services_;  // constructor order
};

}  // namespace bs::dht
