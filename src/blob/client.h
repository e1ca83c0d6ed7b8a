// BlobSeer client library — the public API of the core system.
//
// Implements the full BlobSeer protocol from the client side:
//
//   write/append:
//     1. assign_write at the version manager → version v + write history
//     2. allocate providers at the provider manager
//     3. store pages on providers (parallel, bounded)
//     4. build v's segment-tree nodes and store them in the DHT (parallel)
//     5. commit at the version manager; wait for publication
//   read(v):
//     1. version info from the version manager (v=0 → latest published)
//     2. walk the tree from (root, v) down to the leaves covering the
//        requested byte range (parallel descent over the DHT)
//     3. fetch pages from providers (parallel, bounded), assemble
//
// locate() is the layout-exposure primitive added for the MapReduce
// scheduler (paper §III.B): same tree walk, but returns page→provider
// locations instead of data.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "blob/metadata.h"
#include "common/container.h"
#include "blob/provider.h"
#include "blob/provider_manager.h"
#include "blob/types.h"
#include "blob/version_manager.h"
#include "common/dataspec.h"
#include "dht/dht.h"
#include "net/network.h"
#include "sim/task.h"

namespace bs::blob {

struct ClientConfig {
  // Liveness view consulted before contacting a provider (typically the
  // failure detector). Replicas believed dead are tried last, so reads
  // between a crash and its detection pay the RPC timeout once, and reads
  // after detection fail over for free. Null = assume everything is up.
  const net::LivenessView* liveness = nullptr;
};

// Directory of provider services, shared by clients and the cluster
// assembly. Maps a node id to the Provider instance running there.
class ProviderDirectory {
 public:
  void add(Provider* p) { by_node_[p->node()] = p; }
  Provider& at(net::NodeId n) const { return *by_node_.at(n); }
  // Null when no provider runs on `n` (an unknown/retired node in a leaf's
  // replica list must not crash the reader).
  Provider* find(net::NodeId n) const {
    auto it = by_node_.find(n);
    return it == by_node_.end() ? nullptr : it->second;
  }
  size_t size() const { return by_node_.size(); }

 private:
  bs::unordered_map<net::NodeId, Provider*> by_node_;
};

class BlobClient {
 public:
  BlobClient(net::NodeId node, sim::Simulator& sim, net::Network& net,
             VersionManager& vm, ProviderManager& pm,
             const ProviderDirectory& providers, dht::Dht& dht,
             ClientConfig cfg = {});

  net::NodeId node() const { return node_; }

  sim::Task<BlobDescriptor> create(uint64_t page_size, uint32_t replication = 1);

  // Writes `data` at byte `offset` (page-aligned); returns the published
  // version. A partial final page is only meaningful at the end of a blob.
  sim::Task<Version> write(BlobId blob, uint64_t offset, DataSpec data);
  // Appends at the blob's (assigned) end; safe under concurrency.
  sim::Task<Version> append(BlobId blob, DataSpec data);

  // Reads [offset, offset+size) of `version` (kNoVersion/0 = latest
  // published). Reading holes or past the end yields zero bytes there; the
  // result is truncated to the blob size.
  sim::Task<DataSpec> read(BlobId blob, Version version, uint64_t offset,
                           uint64_t size);

  // Blob size at a version (latest if kNoVersion).
  sim::Task<uint64_t> size(BlobId blob, Version version = kNoVersion);
  sim::Task<VersionInfo> latest(BlobId blob);

  // Layout exposure: page locations covering [offset, offset+size).
  sim::Task<std::vector<PageLocation>> locate(BlobId blob, Version version,
                                              uint64_t offset, uint64_t size);

  // Degraded-mode counter: replica stores dropped/re-placed because a
  // provider died mid-write.
  uint64_t write_replica_failures() const { return write_replica_failures_; }

 private:
  // Fetches the subtree leaves of (range@version) intersecting `target`.
  sim::Task<std::vector<MetaNode>> walk(BlobId blob, PageRange range,
                                        Version version, PageRange target);

  // Fetches (and caches) the blob's immutable descriptor.
  sim::Task<BlobDescriptor> descriptor(BlobId blob);

  // Stores one page on `replicas`, replacing failed targets via the
  // provider manager; on return `*replicas` holds the nodes that actually
  // stored the page (at least one, or the simulation aborts).
  sim::Task<void> store_page_replicas(PageKey key, DataSpec data,
                                      uint64_t page_size,
                                      uint32_t replication,
                                      std::vector<net::NodeId>* replicas);

  // One page fetch with replica failover (live replicas preferred).
  sim::Task<DataSpec> fetch_page(BlobId blob, uint64_t page_index,
                                 const MetaNode* leaf, uint64_t page_size,
                                 uint64_t blob_size);

  net::NodeId node_;
  sim::Simulator& sim_;
  net::Network& net_;
  VersionManager& vm_;
  ProviderManager& pm_;
  const ProviderDirectory& providers_;
  dht::Dht& dht_;
  ClientConfig cfg_;
  bs::unordered_map<BlobId, BlobDescriptor> desc_cache_;

  uint64_t write_replica_failures_ = 0;
};

}  // namespace bs::blob
