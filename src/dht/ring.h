// Consistent-hash ring mapping keys to metadata-provider nodes.
//
// Virtual nodes smooth the key distribution; replica sets are the next k
// distinct physical nodes clockwise from the key's position (the classic
// Chord/Dynamo successor-list scheme BlobSeer's DHT layer relies on).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string_view>
#include <vector>

#include "common/container.h"
#include "net/cluster.h"
#include "net/rpc.h"

namespace bs::dht {

class HashRing {
 public:
  HashRing(std::vector<net::NodeId> nodes, uint32_t vnodes_per_node = 64);

  net::NodeId primary(uint64_t key_hash) const;
  // k distinct physical nodes for this key (k clamped to the node count).
  std::vector<net::NodeId> replicas(uint64_t key_hash, size_t k) const;

  size_t node_count() const { return node_count_; }

 private:
  struct Point {
    uint64_t hash;
    net::NodeId node;
    bool operator<(const Point& o) const {
      return hash != o.hash ? hash < o.hash : node < o.node;
    }
  };

  std::vector<Point> points_;
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
  size_t position(uint64_t key_hash) const;
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
  std::deque<net::Service> services_;                // constructor order
  bs::unordered_map<net::NodeId, size_t> index_of_;  // node -> position
};

}  // namespace bs::dht
