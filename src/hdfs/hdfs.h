// HDFS — fs::FileSystem implementation of the paper's baseline.
//
// Client behavior mirrors 0.20-era DFSClient:
//   * writes buffer a whole block, ask the NameNode for a replica pipeline,
//     stream the block through it, and report completion;
//   * reads resolve one block at a time at the NameNode, pick the closest
//     replica (local → rack-local → random), stream the block, and serve
//     record-sized reads from the streaming buffer;
//   * create() takes the single-writer lease; append() is unsupported.
#pragma once

#include <cstdint>
#include <memory>

#include "common/container.h"
#include "fs/filesystem.h"
#include "hdfs/datanode.h"
#include "hdfs/namenode.h"

namespace bs::hdfs {

struct HdfsConfig {
  NameNodeConfig namenode;
  // Datanode page-cache size (see DataNode).
  uint64_t datanode_ram = 2ULL << 30;
  // When datanodes ack a block relative to its disk sync — the
  // hflush/hsync spectrum (see hdfs/datanode.h). The default is the
  // paper's synchronous write-through model.
  DurabilityPolicy datanode_durability = DurabilityPolicy::immediate();
  // Per-stream protocol efficiency: HDFS's packet/ack pipeline does not
  // quite fill a NIC; one stream tops out at this fraction of line rate.
  double stream_efficiency = 0.92;
};

class Hdfs;

class HdfsWriter final : public fs::FsWriter {
 public:
  HdfsWriter(Hdfs& owner, net::NodeId node, std::string path);
  sim::Task<bool> write(DataSpec data) override;
  sim::Task<bool> close() override;
  uint64_t bytes_written() const override { return bytes_written_; }

 private:
  sim::Task<bool> flush(uint64_t threshold);

  Hdfs& owner_;
  net::NodeId node_;
  std::string path_;
  std::vector<DataSpec> pending_;
  uint64_t pending_bytes_ = 0;
  uint64_t bytes_written_ = 0;
  bool closed_ = false;
};

class HdfsReader final : public fs::FsReader {
 public:
  HdfsReader(Hdfs& owner, net::NodeId node, std::string path, uint64_t size);
  sim::Task<DataSpec> read(uint64_t offset, uint64_t size) override;
  uint64_t size() const override { return size_; }

 private:
  Hdfs& owner_;
  net::NodeId node_;
  std::string path_;
  uint64_t size_;
  // Streaming buffer: the block currently held.
  uint64_t cached_start_ = UINT64_MAX;
  DataSpec cached_data_;
};

class HdfsClient final : public fs::FsClient {
 public:
  HdfsClient(Hdfs& owner, net::NodeId node) : owner_(owner), node_(node) {}
  net::NodeId node() const override { return node_; }

  sim::Task<std::unique_ptr<fs::FsWriter>> create(const std::string& path) override;
  // Per-file replication, recorded at the NameNode and honored by every
  // block pipeline of this file (0.20-era dfs.replication per-file knob).
  sim::Task<std::unique_ptr<fs::FsWriter>> create_replicated(
      const std::string& path, uint32_t replication) override;
  sim::Task<std::unique_ptr<fs::FsReader>> open(const std::string& path) override;
  // HDFS does not support appends (paper §II.C): always null. The same
  // goes for concurrent shared appends — callers must fall back to
  // per-writer part files plus a serialized concat.
  sim::Task<std::unique_ptr<fs::FsWriter>> append(const std::string& path) override;
  sim::Task<std::unique_ptr<fs::FsWriter>> append_shared(
      const std::string& path) override;
  sim::Task<std::optional<fs::FileStat>> stat(const std::string& path) override;
  sim::Task<std::vector<std::string>> list(const std::string& dir) override;
  sim::Task<bool> remove(const std::string& path) override;
  sim::Task<bool> rename(const std::string& from,
                         const std::string& to) override;
  sim::Task<std::vector<fs::BlockLocation>> locations(
      const std::string& path, uint64_t offset, uint64_t length) override;

 private:
  Hdfs& owner_;
  net::NodeId node_;
};

class Hdfs final : public fs::FileSystem {
 public:
  // Datanodes on every cluster node by default.
  Hdfs(sim::Simulator& sim, net::Network& net, HdfsConfig cfg = {},
       std::vector<net::NodeId> datanode_nodes = {});

  std::string name() const override { return "HDFS"; }
  uint64_t block_size() const override { return cfg_.namenode.block_size; }
  std::unique_ptr<fs::FsClient> make_client(net::NodeId node) override;

  NameNode& namenode() { return *namenode_; }
  DataNode& datanode_on(net::NodeId node) { return *datanodes_.at(node); }
  const HdfsConfig& config() const { return cfg_; }
  sim::Simulator& simulator() override { return sim_; }

  // Waits until every datanode hsynced its unsynced window to disk (a
  // no-op under the default kImmediate policy).
  sim::Task<void> drain_all();

  // --- fault tolerance ---

  // Plugs a liveness view (typically the failure detector) into NameNode
  // placement and into reader replica selection.
  void set_liveness(const net::LivenessView* view);

  // Fail-stop crash / recovery of the datanode on `node` (fault-injector
  // hooks). wipe_storage models a disk loss.
  void crash_datanode(net::NodeId node, bool wipe_storage = false);
  void recover_datanode(net::NodeId node);

  struct RepairStats {
    uint64_t under_replicated = 0;
    uint64_t replicas_restored = 0;
    uint64_t bytes_copied = 0;
    uint64_t unrepairable = 0;  // no live source replica survived
    double finished_at = 0;
  };
  // NameNode-driven re-replication: scans the namespace for blocks below
  // the replication target, picks live replacement datanodes, and copies
  // each block dn→dn from a surviving replica. `copy_parallelism` bounds
  // concurrent copies. Runs from `initiator` (usually the NameNode's own
  // node).
  sim::Task<RepairStats> repair_under_replicated(net::NodeId initiator,
                                                 uint32_t copy_parallelism = 8);

 private:
  friend class HdfsClient;
  friend class HdfsReader;
  friend class HdfsWriter;

  sim::Task<void> repair_block(NameNode::UnderReplicated block,
                               RepairStats* stats);

  sim::Simulator& sim_;
  net::Network& net_;
  HdfsConfig cfg_;
  std::unique_ptr<NameNode> namenode_;
  bs::unordered_map<net::NodeId, std::unique_ptr<DataNode>> datanodes_;
  const net::LivenessView* liveness_ = nullptr;
};

}  // namespace bs::hdfs
