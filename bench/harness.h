// Shared paper-scale bench harness.
//
// Reproduces the paper's Grid'5000 deployment: 270 nodes in 9 racks, node 0
// is the dedicated master (NameNode / version manager / provider manager /
// namespace manager), storage services on nodes 1..269, clients co-located
// with the storage nodes, 1 GB of data per client, 1–250 concurrent
// clients. Absolute numbers come from the simulated substrate (documented
// in EXPERIMENTS.md); the reproduced claims are the *shapes*: who wins, by
// what factor, and how throughput holds as the client count grows.
#pragma once

#include <chrono>  // bslint: allow(wall-clock) — bench self-timing only
#include <memory>
#include <string>
#include <vector>

#include "blob/cluster.h"
#include "bsfs/bsfs.h"
#include "common/durability.h"
#include "common/stats.h"
#include "common/table.h"
#include "fs/filesystem.h"
#include "hdfs/hdfs.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace bs::bench {

constexpr uint64_t kMiB = 1ULL << 20;
constexpr uint64_t kGiB = 1ULL << 30;

// Per-bench result reporter. Every bench binary accepts `--json`: the
// human-readable narration and tables are suppressed and one JSON object
//   {"bench": "<name>", "metrics": {"<key>": <value>, ...}}
// is printed to stdout instead (machine-readable results for the
// BENCH_*.json perf trajectory). Keys are slash-delimited paths like
// "clients=100/bsfs_mbps_per_client"; insertion order is preserved.
//
// Engine-speed trajectory: every --json line additionally carries
// "wall_clock_s" (host time from report construction to destruction — the
// only wall-clock measurement in the tree, everything else is simulated
// time) and "events_per_sec" (total simulator events dispatched across all
// worlds, divided by that wall clock), so BENCH_*.json tracks the engine's
// real-time throughput from PR 9 onward.
//
// Observability flags (obs/metrics.h, obs/trace.h):
//   --metrics <path>  write every world's deterministic registry snapshot
//                     (text format, one `# world <label>` section per
//                     world, capture order = construction order);
//   --trace <path>    enable span tracing in every world and write one
//                     merged Chrome trace-event JSON file (one "process"
//                     per world+node, one "thread" per component; load it
//                     in Perfetto / chrome://tracing).
// Either flag arms a process-wide sink; worlds built afterwards register
// at construction and flush into it when they are destroyed, and the
// report's destructor writes the files. With neither flag, tracing stays
// disabled and no capture happens.
class BenchReport {
 public:
  BenchReport(std::string name, int argc, char** argv);
  ~BenchReport();  // emits the JSON line in --json mode; writes obs files

  bool json() const { return json_; }

  // Records one scalar result (always; cheap).
  void metric(const std::string& key, double value);

  // printf-style narration; silent in --json mode.
  void say(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  // Renders a table; silent in --json mode.
  void table(const Table& t);

 private:
  std::string name_;
  bool json_ = false;
  std::vector<std::pair<std::string, double>> metrics_;
  std::chrono::steady_clock::time_point start_;  // bslint: allow(wall-clock)
};

// Adds a finished world's event count to the process-wide total behind
// BenchReport's events_per_sec. BsfsWorld/HdfsWorld destructors call this;
// benches driving raw Simulators call it themselves before the report goes
// out of scope.
void report_world_events(uint64_t events);

// Hooks a bare simulator (one not wrapped in a Bsfs/Hdfs world) into the
// --metrics/--trace sink: registers at construction (enabling tracing if
// --trace is armed), flushes the registry snapshot / trace ring at
// destruction. Labels are "<kind>0", "<kind>1", ... in construction order.
class ObsWorldScope {
 public:
  ObsWorldScope(sim::Simulator& sim, const char* kind);
  ~ObsWorldScope();
  ObsWorldScope(const ObsWorldScope&) = delete;
  ObsWorldScope& operator=(const ObsWorldScope&) = delete;

 private:
  sim::Simulator& sim_;
  std::string label_;
  uint32_t index_ = 0;
};

// The paper's sweep: 1 to 250 concurrent clients.
inline std::vector<uint32_t> client_sweep() { return {1, 50, 100, 150, 200, 250}; }

net::ClusterConfig paper_cluster();

// Knobs a bench can tweak before building a world.
struct WorldOptions {
  net::ClusterConfig cluster = paper_cluster();
  // BSFS knobs.
  uint64_t page_size = 8 * kMiB;
  uint64_t block_size = 64 * kMiB;
  uint32_t bsfs_replication = 1;
  bool client_cache = true;
  bool provider_read_cache = true;  // reads run over freshly written data
  uint64_t provider_ram = 2 * kGiB;
  blob::PlacementPolicy placement = blob::PlacementPolicy::kLeastLoaded;
  uint32_t metadata_nodes = 0;  // 0 = all storage nodes
  double dht_service_time_s = 50e-6;
  // Metadata-plane sharding (PR 10): number of version-manager/namespace
  // shards. 1 = the centralized single-server plane (the paper's baseline
  // and the pre-sharding behavior); S > 1 spreads per-blob/per-path serial
  // points over the first S storage nodes. HDFS has no sharding lever, so
  // HdfsWorld ignores this — which is exactly the single-master contrast
  // ext10 measures.
  uint32_t metadata_shards = 1;
  // Client metadata lease TTL in seconds (0 = leases off; see
  // bsfs::BsfsConfig::lease_ttl_s).
  double lease_ttl_s = 0;
  // HDFS knobs.
  uint32_t hdfs_replication = 1;
  // Write-path durability (common/durability.h). Defaults preserve the
  // paper's models: BSFS providers write-behind (ack on RAM), HDFS
  // datanodes synchronous write-through (ack after disk).
  DurabilityPolicy blob_durability = DurabilityPolicy::write_behind();
  DurabilityPolicy hdfs_durability = DurabilityPolicy::immediate();
};

// A full BSFS deployment over its own simulator.
struct BsfsWorld {
  explicit BsfsWorld(const WorldOptions& opt = WorldOptions{});
  ~BsfsWorld();  // flushes metrics/trace into the obs sink, if armed

  WorldOptions options;
  sim::Simulator sim;
  net::Network net;
  std::unique_ptr<blob::BlobSeerCluster> blobs;
  std::unique_ptr<bsfs::NamespaceManager> ns;
  std::unique_ptr<bsfs::Bsfs> fs;
  // Observability identity, assigned at construction when BenchReport's
  // --metrics/--trace sink is armed ("bsfs0", "bsfs1", ... in world
  // construction order); empty otherwise.
  std::string obs_label;
  uint32_t obs_index = 0;
};

// A full HDFS deployment over its own simulator.
struct HdfsWorld {
  explicit HdfsWorld(const WorldOptions& opt = WorldOptions{});
  ~HdfsWorld();  // flushes metrics/trace into the obs sink, if armed

  WorldOptions options;
  sim::Simulator sim;
  net::Network net;
  std::unique_ptr<hdfs::Hdfs> fs;
  std::string obs_label;
  uint32_t obs_index = 0;
};

// Storage nodes (everything except the master, node 0).
std::vector<net::NodeId> storage_nodes(const net::ClusterConfig& cfg);
// The node a client with index i runs on.
net::NodeId client_node(const net::ClusterConfig& cfg, uint32_t i);

// --- setup helpers (simulated time advances; not part of measurements) ---

// Creates `path` with `bytes` of pattern data through the normal FS write
// path, from `node`. Returns once closed.
sim::Task<void> put_file(fs::FileSystem& fs, net::NodeId node,
                         std::string path, uint64_t bytes, uint64_t seed);

// Fast-path for BSFS: one blob write for the whole file (one version) —
// used to stage very large inputs without thousands of setup versions.
sim::Task<void> bsfs_stage_file(BsfsWorld& world, std::string path,
                                uint64_t bytes, uint64_t seed);

// --- measurement ---

struct ScenarioResult {
  Summary per_client_mbps;  // one sample per client
  double makespan_s = 0;
  double aggregate_mbps = 0;
};

struct ReadTask {
  net::NodeId node;
  std::string path;
  uint64_t offset;
  uint64_t bytes;
};

// Runs all read tasks concurrently (sequential 1 MiB requests per client,
// through each FS's client cache) and reports throughput.
ScenarioResult run_reads(sim::Simulator& sim, fs::FileSystem& fs,
                         const std::vector<ReadTask>& tasks,
                         uint64_t request_size = kMiB);

struct WriteTask {
  net::NodeId node;
  std::string path;
  uint64_t bytes;
  uint64_t seed;
  bool append = false;  // append to an existing file instead of create
};

// Runs all write tasks concurrently (sequential 1 MiB writes per client).
ScenarioResult run_writes(sim::Simulator& sim, fs::FileSystem& fs,
                          const std::vector<WriteTask>& tasks,
                          uint64_t request_size = kMiB);

// One point of a fig1–fig3 client sweep: mean per-client throughput.
struct SweepPoint {
  uint32_t clients;
  double bsfs_mbps;
  double hdfs_mbps;
};

// The paper's shape for fig1–fig3: BSFS per-client throughput above HDFS
// at every client count >= 50. Reports gate/clients=N/bsfs_over_hdfs for
// each gated point and returns the bench's exit code (1 if the shape
// broke).
int gate_bsfs_above_hdfs(BenchReport& report,
                         const std::vector<SweepPoint>& sweep);

}  // namespace bs::bench
