// The distributed hash table holding BlobSeer's metadata.
//
// Each metadata provider runs on a cluster node and serves get/put requests
// for the segment-tree nodes hashed onto it. Requests cost a control
// round-trip plus a per-request service time at the provider; the point of
// distributing metadata (paper §III.A) is that this load spreads over many
// nodes instead of queueing at one server — reproduced here by giving every
// provider its own net::Service on a ServiceRing.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/container.h"
#include "common/dataspec.h"
#include "common/stats.h"
#include "dht/ring.h"
#include "net/network.h"
#include "sim/task.h"

namespace bs::dht {

struct DhtConfig {
  // Copies of each entry (first replica is the read target; extra replicas
  // model BlobSeer's metadata fault tolerance). At least 1.
  size_t replication = 1;
  // Per-request processing time at a metadata provider.
  double service_time_s = 50e-6;
};

class Dht {
 public:
  Dht(sim::Simulator& sim, net::Network& net, std::vector<net::NodeId> nodes,
      DhtConfig cfg = {});

  // Stores `value` under `key` on all replicas (parallel).
  sim::Task<void> put(net::NodeId client, std::string key, Bytes value);
  // Reads from the primary replica: one slot, returned as a call
  // (net/rpc.h), so keep `key` alive until it resumes.
  net::Service::Call<std::optional<Bytes>> get(net::NodeId client,
                                               const std::string& key);
  // Deletes `key` from all replicas; returns true if the primary had it.
  sim::Task<bool> erase(net::NodeId client, std::string key);

  size_t node_count() const { return ring_.size(); }
  // Total entries across all providers (each replica counts once).
  size_t total_entries() const;
  uint64_t gets() const { return gets_; }
  uint64_t puts() const { return puts_; }
  // Requests served per provider node (balance inspection), ordered by
  // node id.
  std::map<net::NodeId, uint64_t> requests_per_node() const {
    return ring_.requests_per_node();
  }

 private:
  sim::Task<void> put_one(net::NodeId client, net::Service& server,
                          std::string key, Bytes value);

  sim::Simulator& sim_;
  DhtConfig cfg_;
  ServiceRing ring_;
  bs::unordered_map<net::NodeId, std::map<std::string, Bytes>> stores_;
  uint64_t gets_ = 0;
  uint64_t puts_ = 0;
};

}  // namespace bs::dht
