// HDFS DataNode model: stores block replicas on a node's local disk.
//
// Writes are pipelined (client → dn1 → dn2 → dn3): in the fluid
// approximation all pipeline hops transfer concurrently and the block
// completes when the slowest hop finishes. When each datanode acks is the
// DurabilityPolicy (common/durability.h), HDFS's hflush/hsync spectrum:
//   kImmediate  (default — the paper's model) the transfer and the disk
//               write overlap and the block is acked only when both finish
//               (hsync per block). This synchronous disk write is the
//               contrast with BlobSeer's write-behind providers — it is
//               what pins HDFS write throughput to local-disk speed in the
//               paper's §IV.B write benchmark. Power loss destroys zero
//               acked blocks.
//   kBatched    ack when the transfer finishes (hflush) *and* the
//               acked-unsynced window is at most max_records blocks; a
//               background syncer coalesces up to max_records blocks per
//               disk write on a count-or-time trigger (periodic hsync).
//               Power loss destroys at most the window plus the batch in
//               flight.
//   kNone       ack on transfer alone; syncing is best-effort background
//               work on the same cadence. Power loss destroys every
//               unsynced block.
// The background syncer is the unsynced window the blob provider uses too
// (kv/sync_window.h): same batch rule, same ack rule, same loss
// accounting. Power loss discards exactly the unsynced window (the batch
// in flight is failed by the incarnation machinery,
// net::Network::try_disk_write); synced blocks survive a plain crash.
//
// Reads stream one block from one datanode (HDFS reads are single-source —
// the contrast with BSFS's striped parallel page fetches).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/dataspec.h"
#include "common/durability.h"
#include "hdfs/namenode.h"
#include "kv/page_cache.h"
#include "kv/sync_window.h"
#include "net/network.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace bs::hdfs {

class DataNode final : private kv::SyncWindow<BlockId>::Site {
 public:
  // `ram_bytes` models the OS page cache: recently written/read blocks are
  // served from memory (the paper's reads run over freshly written data).
  DataNode(sim::Simulator& sim, net::Network& net, net::NodeId node,
           uint64_t ram_bytes = 2ULL << 30,
           DurabilityPolicy durability = DurabilityPolicy::immediate());

  net::NodeId node() const { return node_; }

  // Receives a block body from `from` (client or upstream datanode) and
  // persists it per the durability policy (see file comment). False when
  // the datanode is down (at request time — the sender waits out the
  // connection timeout — or mid-transfer, discarding the bytes) or when a
  // power loss destroyed the block before its durability settled.
  sim::Task<bool> receive_block(net::NodeId from, BlockId id, DataSpec data,
                                double rate_cap = 0);

  // Serves `length` bytes of a block starting at `offset`: disk read plus
  // network transfer back to the client, overlapped. nullopt if unknown or
  // down (a down datanode costs the caller the connection timeout).
  sim::Task<std::optional<DataSpec>> read_block(net::NodeId client, BlockId id,
                                                uint64_t offset,
                                                uint64_t length);

  // Copies a whole block straight to another datanode (NameNode-driven
  // re-replication): disk read here, then a dn→dn pipeline hop.
  sim::Task<bool> replicate_to(DataNode& dst, BlockId id);

  // Drops a stored block immediately (pipeline teardown: a hop downstream
  // of a dead datanode discards what it streamed). No modeled cost.
  void forget_block(BlockId id);

  // What a power loss does to the store (fault-injector hook; the node's
  // power itself is net::Network::node_up). A plain crash destroys exactly
  // the unsynced window (blocks whose hsync has not reached the platter);
  // wipe_storage additionally models a disk loss.
  void crash(bool wipe_storage = false);

  // Blocks until every unsynced block is on disk, forcing batches out
  // regardless of the count-or-time trigger.
  sim::Task<void> drain() { return window_.drain(); }

  bool has_block(BlockId id) const;
  // The durability spectrum's observable side.
  uint64_t unsynced_blocks() const { return window_.unsynced(); }
  uint64_t unsynced_bytes() const { return window_.unsynced_bytes(); }
  uint64_t sync_batches() const { return window_.batches(); }
  uint64_t bytes_lost_on_power_loss() const { return window_.bytes_lost(); }
  uint64_t acked_bytes_lost_on_power_loss() const {
    return window_.acked_bytes_lost();
  }

 private:
  using Window = kv::SyncWindow<BlockId>;

  bool down() const { return !net_.node_up(node_); }

  // Window::Site: a block whose hsync never reached the platter dies with
  // the page cache.
  bool holds(const BlockId& id) const override { return has_block(id); }
  void settle(const Window::Entry& block, Window::Fate fate) override {
    if (fate == Window::Fate::kLost && has_block(block.key)) {
      forget_block(block.key);
    }
  }

  sim::Simulator& sim_;
  net::Network& net_;
  net::NodeId node_;
  std::map<BlockId, DataSpec> blocks_;
  kv::PageCache<BlockId> cache_;  // the OS page cache, over whole blocks
  // Background hsync (kBatched/kNone only; kImmediate syncs inline).
  Window window_;

  // Obs handles (cluster-wide aggregates shared by all datanodes).
  obs::Tracer* tracer_;
  obs::Counter* m_blocks_received_;
  obs::Counter* m_bytes_received_;
  obs::Counter* m_bytes_served_;
  obs::Counter* m_cache_hits_;
  obs::Counter* m_cache_misses_;
  obs::Counter* m_replications_;
};

}  // namespace bs::hdfs
