// The intermediate-data subsystem: where map outputs live between the map
// and reduce phases, and what a mapper-node crash costs.
//
// Classic Hadoop spills map outputs to the mapper's local disk and serves
// shuffle fetches from there — cheap, but a tasktracker crash after the map
// committed destroys the spill, and every reduce that still needs it must
// report fetch failures until the JobTracker re-executes the *completed*
// map (the re-execution cascades the paper's intermediate-data line of work
// measures). The alternative it proposes is to keep intermediate data in
// the DFS itself (BSFS: replicated, crash-survivable, shuffle reads fail
// over across replicas through the ordinary blob/datanode failover), at the
// price of replicated write traffic inside the map phase.
//
// ShuffleStore is that choice as a seam. The engine materializes a
// committed map attempt's partitioned output through write_map_output and
// moves partitions to reducers through fetch_partition; the two backends —
// selected per job by JobConfig::intermediate_mode — implement them as
// local-disk spill + tasktracker-served fetch (kLocalDisk) or as replicated
// DFS files under <output_dir>/_intermediate/ (kDfs). A fetch_partition
// failure is the engine's detection signal: the JobTracker counts reported
// failures per map and, past the Hadoop-style threshold, declares the
// output lost and re-schedules the map (see MapReduceCluster).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fs/filesystem.h"
#include "mr/app.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace bs::mr {

// Where a job keeps its intermediate (map-output) data.
enum class IntermediateMode {
  kLocalDisk,  // mapper-local spill; lost when the mapper node crashes
  kDfs,        // files in the job's DFS; survives crashes via replication
};

// Partitioner: hash(key) mod R, as in Hadoop's HashPartitioner.
uint32_t partition_of(const std::string& key, uint32_t reducers);

// Routes map() emissions into per-reducer partitions, counting bytes the
// way the shuffle will move them (key + value + separators).
class PartitionEmitter final : public Emitter {
 public:
  PartitionEmitter(
      uint32_t reducers,
      std::vector<std::vector<std::pair<std::string, std::string>>>* partitions,
      std::vector<uint64_t>* bytes)
      : reducers_(reducers), partitions_(partitions), bytes_(bytes) {}

  void emit(std::string key, std::string value) override {
    const uint32_t p = reducers_ == 0 ? 0 : partition_of(key, reducers_);
    (*bytes_)[p] += key.size() + value.size() + 2;
    (*partitions_)[p].emplace_back(std::move(key), std::move(value));
  }

 private:
  uint32_t reducers_;
  std::vector<std::vector<std::pair<std::string, std::string>>>* partitions_;
  std::vector<uint64_t>* bytes_;
};

// Map output registry entry: where the committed attempt ran, how to find
// its materialized output in the store, and how many intermediate bytes it
// produced per reduce partition (record mode also keeps the data itself —
// the simulation's stand-in for the actual payload).
struct MapOutput {
  net::NodeId node = 0;     // where the committed attempt ran
  uint32_t attempt = 0;     // attempt ordinal (names the kDfs files)
  uint64_t incarnation = 0; // node power-loss count at spill time (kLocalDisk)
  std::vector<uint64_t> partition_bytes;
  std::vector<std::vector<std::pair<std::string, std::string>>> partitions;
};

// The intermediate-data backend. All methods are driven from the engine's
// attempt coroutines; implementations must be deterministic given the
// simulator state (no hidden randomness).
class ShuffleStore {
 public:
  virtual ~ShuffleStore() = default;

  // True when a mapper-node crash destroys this store's committed map
  // outputs (kLocalDisk); false when the store survives crashes on its
  // own (kDfs). Advertised store semantics — what operators and tests
  // reason about when choosing a mode. The engine's fetch-failure →
  // re-execution machinery is deliberately NOT gated on it: it stays
  // armed in both modes (re-execution is the universal self-healing
  // remedy, e.g. for a pathologically missing kDfs file); with kDfs it
  // simply never fires in practice because fetches fail over inside the
  // DFS instead of failing.
  virtual bool crash_loses_output() const = 0;

  // Map side, called on the attempt's node after the map compute and
  // before the commit RPC: materialize the attempt's partitioned output.
  // `out` arrives with node/attempt/partition_bytes filled; the store
  // performs the I/O, records whatever it needs to locate the data later
  // (incarnation, file names are derived), and adds the bytes it stored to
  // *bytes_written. False = the write failed (the node lost power
  // mid-spill / mid-upload) and the attempt must abort, not commit.
  virtual sim::Task<bool> write_map_output(const std::string& job_dir,
                                           uint32_t map_index, MapOutput* out,
                                           uint64_t* bytes_written) = 0;

  // Reduce side: move partition `reduce_index` of committed map output `m`
  // to the reducer's node `dst`. False = fetch failure (the serving node
  // is unreachable or its copy of the data is gone); the caller reports it
  // to the JobTracker and retries after a backoff.
  virtual sim::Task<bool> fetch_partition(const std::string& job_dir,
                                          uint32_t map_index,
                                          const MapOutput& m,
                                          uint32_t reduce_index,
                                          net::NodeId dst) = 0;

  // Job-drain sweep: removes everything the job left in the store,
  // including output of losing/crashed attempts nothing ever read
  // (initiated from `node`, normally the JobTracker's).
  virtual sim::Task<void> cleanup(const std::string& job_dir,
                                  net::NodeId node) = 0;
};

// <output_dir>/_intermediate — the kDfs store's directory, swept when the
// job drains (and deliberately skipped by the storage repair services:
// shuffle data is job-lifetime-only).
std::string intermediate_dir(const std::string& output_dir);

// Today's behavior made honest: the spill lives on the mapper's local disk
// and fetches stream disk → network from that node, so both legs fail
// against a powered-off node, and a node that crashed and rebooted serves
// nothing from before the crash (incarnation check — job-local spill
// directories do not survive a tasktracker loss, wiped disk or not).
class LocalDiskShuffleStore final : public ShuffleStore {
 public:
  LocalDiskShuffleStore(sim::Simulator& sim, net::Network& net)
      : sim_(sim), net_(net) {}
  bool crash_loses_output() const override { return true; }

  sim::Task<bool> write_map_output(const std::string& job_dir,
                                   uint32_t map_index, MapOutput* out,
                                   uint64_t* bytes_written) override;
  sim::Task<bool> fetch_partition(const std::string& job_dir,
                                  uint32_t map_index, const MapOutput& m,
                                  uint32_t reduce_index,
                                  net::NodeId dst) override;
  sim::Task<void> cleanup(const std::string& job_dir,
                          net::NodeId node) override;

 private:
  sim::Simulator& sim_;
  net::Network& net_;
};

// Paper mode: map outputs are DFS files under _intermediate/, one per
// (map, partition), written at `replication` (0 = the back-end default).
// Reads go through the ordinary FS client, so they inherit the back-end's
// replica failover; a mapper-node crash costs nothing but degraded reads.
class DfsShuffleStore final : public ShuffleStore {
 public:
  DfsShuffleStore(sim::Simulator& sim, net::Network& net, fs::FileSystem& fs,
                  uint32_t replication)
      : sim_(sim), net_(net), fs_(fs), replication_(replication) {}
  bool crash_loses_output() const override { return false; }

  sim::Task<bool> write_map_output(const std::string& job_dir,
                                   uint32_t map_index, MapOutput* out,
                                   uint64_t* bytes_written) override;
  sim::Task<bool> fetch_partition(const std::string& job_dir,
                                  uint32_t map_index, const MapOutput& m,
                                  uint32_t reduce_index,
                                  net::NodeId dst) override;
  sim::Task<void> cleanup(const std::string& job_dir,
                          net::NodeId node) override;

  // The file holding partition `reduce_index` of `map_index`'s output as
  // written by attempt `attempt` (exposed for tests).
  static std::string partition_path(const std::string& job_dir,
                                    uint32_t map_index, uint32_t attempt,
                                    uint32_t reduce_index);

 private:
  sim::Simulator& sim_;
  net::Network& net_;
  fs::FileSystem& fs_;
  uint32_t replication_;
};

std::unique_ptr<ShuffleStore> make_shuffle_store(IntermediateMode mode,
                                                 sim::Simulator& sim,
                                                 net::Network& net,
                                                 fs::FileSystem& fs,
                                                 uint32_t dfs_replication);

}  // namespace bs::mr
