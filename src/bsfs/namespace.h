// BSFS namespace manager — the file-system layer added on top of BlobSeer
// (paper §III.B): maintains a hierarchical namespace and maps each file to
// the BLOB storing its data.
//
// It is deliberately thin: all data and all versioning metadata live in
// BlobSeer; the namespace manager only resolves paths, which is why it does
// not become the bottleneck the HDFS NameNode is (the NameNode additionally
// serves every block lookup).
//
// Sharding: directory entries are owned by path hash on a consistent-hash
// ring over `shard_nodes` — each path's mutations and lookups serialize on
// exactly one owner shard, so distinct paths scale across shards.
// Two-entry operations (rename) visit both owners in ascending ring
// position — the classic owner-ordered two-phase protocol —
// and apply their decision atomically while holding the second owner's
// serial point, so racing renames of one source still leave exactly one
// winner. list() fans out to every shard in parallel (each owner scans its
// partition) and merges. Implicit parent-directory creation piggybacks on
// the entry-owner's request (parents are pure presence markers; their
// owners learn of them lazily). Empty shard_nodes = {node}: the exact
// centralized manager this repo shipped before sharding.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "blob/types.h"
#include "common/container.h"
#include "dht/ring.h"
#include "net/network.h"
#include "net/rpc.h"
#include "sim/task.h"

namespace bs::bsfs {

struct NamespaceConfig {
  net::NodeId node = 0;
  // Sharded deployment: entry owners by path hash (empty = {node}, the
  // centralized manager).
  std::vector<net::NodeId> shard_nodes;
};

struct NsEntry {
  bool is_dir = false;
  blob::BlobId blob = 0;
  uint64_t block_size = 0;
  bool under_construction = false;
};

class NamespaceManager {
 public:
  NamespaceManager(sim::Simulator& sim, net::Network& net, NamespaceConfig cfg);

  // Single-entry requests are one slot of the path's owner shard, returned
  // as a call (net/rpc.h): await it where it is made, and keep `path`
  // alive until it resumes. list() and rename() visit several slots.

  // Registers a new file mapped to `blob`; creates parent directories
  // implicitly (Hadoop-style). Fails if the path exists.
  net::Service::Call<bool> add_file(net::NodeId client, const std::string& path,
                                    blob::BlobId blob, uint64_t block_size);
  // Marks a file complete (visible to readers).
  net::Service::Call<bool> finalize(net::NodeId client,
                                    const std::string& path);
  // Reopens a finalized file for appending (BlobSeer supports this
  // natively; the §V extension).
  net::Service::Call<bool> reopen_for_append(net::NodeId client,
                                             const std::string& path);

  net::Service::Call<std::optional<NsEntry>> lookup(net::NodeId client,
                                                    const std::string& path);
  net::Service::Call<bool> mkdir(net::NodeId client, const std::string& path);
  sim::Task<std::vector<std::string>> list(net::NodeId client,
                                           const std::string& dir);
  net::Service::Call<bool> remove(net::NodeId client, const std::string& path);
  sim::Task<bool> rename(net::NodeId client, const std::string& from,
                         const std::string& to);

  uint64_t total_requests() const { return ring_.total_requests(); }
  size_t shard_count() const { return ring_.size(); }
  // The node owning `path`'s entry.
  net::NodeId shard_node(const std::string& path) const;
  // Requests served per shard node, sorted by node (observable surface).
  std::map<net::NodeId, uint64_t> requests_per_shard() const {
    return ring_.requests_per_node();
  }

  // Monotonic per-path mutation counter (0 = never mutated): the lease
  // invalidation channel. A client holding a cached entry revalidates by
  // comparing the epoch it leased against the current one — the zero-cost
  // shared-state check models the owner pushing invalidations to lease
  // holders (bsfs::Bsfs lease cache). Bumped by every mutation that could
  // change what lookup(path) returns.
  uint64_t mutation_epoch(const std::string& path) const;

 private:
  void mkdirs_locked(const std::string& path);
  void bump_epoch(const std::string& path);

  sim::Simulator& sim_;
  // Entry owners by path hash; counts bsfs/ns_requests{shard=i}.
  dht::ServiceRing ring_;
  std::map<std::string, NsEntry> entries_;  // sorted: list() is a range scan
  bs::unordered_map<std::string, uint64_t> epochs_;
};

}  // namespace bs::bsfs
