// HDFS NameNode model (the paper's baseline, §II.C).
//
// One centralized server holds the namespace AND every block's locations,
// and is consulted for every block allocation and every block lookup —
// unlike BSFS, where the namespace manager only resolves paths and the
// block metadata load spreads over the DHT. Every request costs a
// serialized service time, so the NameNode queues under high client counts.
//
// Semantics modeled after 0.20-era HDFS as the paper describes them:
//   * single writer per file (lease), enforced at create;
//   * write-once: no appends, no overwrites after close;
//   * block placement: first replica on the writer's node (if it runs a
//     datanode), second on a random node in the same rack, third on a
//     random node in a different rack.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/liveness.h"
#include "net/network.h"
#include "net/rpc.h"
#include "sim/task.h"

namespace bs::hdfs {

using BlockId = uint64_t;

struct BlockInfo {
  BlockId id = 0;
  uint64_t size = 0;
  std::vector<net::NodeId> replicas;
};

struct NameNodeConfig {
  net::NodeId node = 0;
  double service_time_s = 150e-6;
  uint64_t block_size = 64ULL << 20;
  uint32_t replication = 1;
  uint64_t placement_seed = 0x8df3;
};

class NameNode {
 public:
  NameNode(sim::Simulator& sim, net::Network& net,
           std::vector<net::NodeId> datanode_nodes, NameNodeConfig cfg);

  // Every request below is one slot of the NameNode's service, returned as
  // a call (net/rpc.h): await it where it is made, and keep the referenced
  // arguments alive until it resumes.

  // Creates a file under construction with `client` as the lease holder.
  // Fails if the path exists (write-once) or is a directory. `replication`
  // overrides the configured default degree for this one file (0 = use the
  // default) — 0.20-era HDFS carried replication per file the same way.
  net::Service::Call<bool> create(net::NodeId client, const std::string& path,
                                  uint32_t replication = 0);
  // Allocates the next block and its replica pipeline. Caller must hold the
  // lease. Returns nullopt if not. `exclude` lists datanodes the writer
  // observed failing (HDFS's excludedNodes on pipeline retry) — skipped
  // even if the liveness view has not caught up yet.
  net::Service::Call<std::optional<BlockInfo>> add_block(
      net::NodeId client, const std::string& path,
      const std::vector<net::NodeId>& exclude);
  // Records a finished block's actual size and which datanodes actually
  // stored it (a pipeline hop that died mid-write drops out of the replica
  // set; empty = keep the allocated pipeline, the common case).
  net::Service::Call<bool> complete_block(
      net::NodeId client, const std::string& path, BlockId block,
      uint64_t size, const std::vector<net::NodeId>& stored);
  // Removes a block whose entire pipeline failed (the writer re-allocates).
  net::Service::Call<bool> abandon_block(net::NodeId client,
                                         const std::string& path,
                                         BlockId block);
  // Closes the file: visible to readers, lease released.
  net::Service::Call<bool> close_file(net::NodeId client,
                                      const std::string& path);

  struct Stat {
    uint64_t size = 0;
    bool is_dir = false;
    bool under_construction = false;
  };
  net::Service::Call<std::optional<Stat>> stat(net::NodeId client,
                                               const std::string& path);
  // Block locations intersecting [offset, offset+length). Readers call this
  // per block — the lookup load that centralizes on the NameNode.
  net::Service::Call<std::vector<BlockInfo>> block_locations(
      net::NodeId client, const std::string& path, uint64_t offset,
      uint64_t length);
  net::Service::Call<std::vector<std::string>> list(net::NodeId client,
                                                    const std::string& dir);
  net::Service::Call<bool> remove(net::NodeId client, const std::string& path);
  // Moves a closed file (metadata only; block replicas stay where they
  // are). Fails if `from` is missing, a directory, or under construction,
  // or `to` already exists.
  net::Service::Call<bool> rename(net::NodeId client, const std::string& from,
                                  const std::string& to);
  net::Service::Call<bool> mkdir(net::NodeId client, const std::string& path);

  // --- fault tolerance (the NameNode is the re-replication brain) ---

  // Block placement and replacement choice exclude nodes this view reports
  // dead (wired to the failure detector). Null = assume everything is up.
  void set_liveness(const net::LivenessView* view) { liveness_ = view; }

  struct UnderReplicated {
    std::string path;
    BlockId block = 0;
    uint64_t size = 0;
    std::vector<net::NodeId> live;  // surviving replicas
    uint32_t missing = 0;           // replicas to re-create
  };
  // Namespace scan for blocks below the replication target (local helper
  // for Hdfs::repair_under_replicated, which models the RPC cost once).
  // `holds` models datanode block reports: a replica only counts as live
  // when its node is believed up AND reports the block (a wiped-and-
  // recovered datanode is up but empty). Null = trust liveness alone.
  std::vector<UnderReplicated> scan_under_replicated(
      const std::function<bool(net::NodeId, BlockId)>& holds = nullptr) const;
  // Live replacement targets for one block, excluding `exclude`.
  std::vector<net::NodeId> choose_replacements(
      const std::vector<net::NodeId>& exclude, uint32_t count);
  // Installs a repaired block's replica set.
  void set_block_replicas(const std::string& path, BlockId block,
                          std::vector<net::NodeId> replicas);

  uint64_t total_requests() const { return svc_.requests(); }
  size_t queue_depth() const { return svc_.queue_depth(); }
  const NameNodeConfig& config() const { return cfg_; }

 private:
  struct FileEntry {
    bool is_dir = false;
    bool under_construction = false;
    net::NodeId lease_holder = 0;
    std::vector<BlockInfo> blocks;
    uint64_t size = 0;
    uint32_t replication = 0;  // per-file degree; 0 = the configured default
  };

  uint32_t degree_of(const FileEntry& e) const {
    return e.replication > 0 ? e.replication : cfg_.replication;
  }

  // Per-op metadata counters ("hdfs/namenode_ops{op=...}") — the paper's
  // serialization-point argument is about exactly this op mix.
  enum Op : int {
    kOpCreate = 0, kOpAddBlock, kOpCompleteBlock, kOpAbandonBlock, kOpClose,
    kOpStat, kOpLocations, kOpList, kOpRemove, kOpRename, kOpMkdir, kOpCount
  };

  bool node_dead(net::NodeId n) const {
    return liveness_ != nullptr && !liveness_->is_up(n);
  }
  // One live datanode outside `taken` satisfying `pred`: 64 random
  // attempts, then a deterministic sweep. The shared picker behind both
  // initial placement and replacement choice.
  std::optional<net::NodeId> pick_datanode(
      const std::vector<net::NodeId>& taken,
      const std::function<bool(net::NodeId)>& pred);
  std::vector<net::NodeId> choose_replicas(
      net::NodeId client, const std::vector<net::NodeId>& exclude,
      uint32_t replication);
  void mkdirs_locked(const std::string& path);

  sim::Simulator& sim_;
  net::Network& net_;
  NameNodeConfig cfg_;
  net::Service svc_;
  std::vector<net::NodeId> datanodes_;
  std::map<std::string, FileEntry> entries_;
  const net::LivenessView* liveness_ = nullptr;
  Rng rng_;
  BlockId next_block_ = 1;
  obs::Counter* m_op_[kOpCount];
};

}  // namespace bs::hdfs
