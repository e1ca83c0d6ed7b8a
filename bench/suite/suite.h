// The repo benchmark: four paper workloads run on both back-ends.
//
// Everything here is built from the src/ public API. The suite never
// includes bench/harness.h: later changes edit the harness, and a claimed
// gain must not be able to move its own yardstick. bench/suite/README.md
// describes the workloads, metrics and bounds.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "blob/cluster.h"
#include "bsfs/bsfs.h"
#include "bsfs/namespace.h"
#include "fs/filesystem.h"
#include "hdfs/hdfs.h"
#include "net/network.h"
#include "host_time.h"
#include "sim/simulator.h"
#include "timed_fs.h"

namespace bs::suite {

constexpr uint64_t kMiB = 1ULL << 20;
constexpr uint64_t kGiB = 1ULL << 30;

enum class Backend { kBsfs, kHdfs };
const char* backend_name(Backend b);  // "bsfs" / "hdfs"

// Named values with units, in insertion order (end-to-end and per-layer).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;
// Named output checks: (name, passed).
using Checks = std::vector<std::pair<std::string, bool>>;

// The knobs the workloads set differently; everything else is the paper's
// deployment (bench/harness.cpp's defaults at the time the suite was cut).
struct WorldConfig {
  uint64_t page_size = 8 * kMiB;
  uint64_t block_size = 64 * kMiB;
  uint32_t metadata_shards = 1;  // BSFS version-manager + namespace shards
};

// Storage nodes 1..269 of the 270-node cluster; node 0 is the master.
std::vector<net::NodeId> storage_nodes();

// Queue depths sampled every 1 ms of simulated time during a traced
// measured phase.
struct QueueSamples {
  uint64_t n = 0;
  double vm_sum = 0;
  double vm_max = 0;
  double nn_sum = 0;
  double nn_max = 0;
};

// One deployment of one back-end over its own simulator. The order audit
// is on from construction, so the digest covers set-up and measurement.
struct World {
  World(Backend backend, const WorldConfig& cfg, bool timed, bool traced);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // Set-up and post-phase checks go through the untimed file system; the
  // measured phase goes through fs(), timed unless the suite runs without
  // TimedFs (the self-test's transparency check).
  fs::FileSystem& raw();
  fs::FileSystem& fs() { return timed_ ? *timed_ : raw(); }

  Backend backend;
  WorldConfig cfg;
  bool traced;
  sim::Simulator sim;
  net::Network net;
  std::unique_ptr<blob::BlobSeerCluster> blobs;  // BSFS only
  std::unique_ptr<bsfs::NamespaceManager> ns;    // BSFS only
  std::unique_ptr<bsfs::Bsfs> bsfs;              // BSFS only
  std::unique_ptr<hdfs::Hdfs> hdfs;              // HDFS only
  OpLog log;
  QueueSamples queues;
  HostTimer run_timer;  // the measured phase's event loop

 private:
  std::unique_ptr<TimedFs> timed_;
};

// One input file: `bytes` of pattern stream `seed`.
struct StagedFile {
  std::string path;
  uint64_t bytes = 0;
  uint64_t seed = 0;
};
// Set-up: writes the files concurrently and runs the simulator until they
// are closed. BSFS stages each as one blob version (the fast path
// bench/harness also uses); HDFS streams each from the master through the
// normal writer. Returns the BSFS blob ids in input order (0s on HDFS).
std::vector<uint64_t> stage_files(World& w,
                                  const std::vector<StagedFile>& files);
// Post-phase: stats `paths` from the master through the untimed client.
std::vector<std::optional<fs::FileStat>> stat_paths(
    World& w, const std::vector<std::string>& paths);

// Clients connect at seeded instants over this long. Without the ramp,
// runs whose clients never contend (HDFS writes to local disks, a
// saturated NameNode) would be identical for every seed.
constexpr double kConnectRampS = 0.02;

// Runs `clients` concurrently until all return and gives the makespan:
// from now to the last return. Client i starts at a `seed`-drawn instant
// in [0, ramp_s). The event loop runs in slices of 15-60 ms of host
// time, each charged to w.run_timer. In a traced world a sampler also
// reads the version-manager and NameNode queue depths every 1 ms.
double run_closed_loop(World& w, std::vector<sim::Task<void>> clients,
                       uint64_t seed, double ramp_s);

// Output checkers. Each is a pure comparison so the self-test can show it
// firing on a corrupted case.
bool read_matches(const DataSpec& got, uint64_t seed, uint64_t offset,
                  uint64_t size);
bool size_matches(const std::optional<fs::FileStat>& st, uint64_t size);

// What a self-test run perturbs in the workload's expectations.
enum class Corruption { kNone, kWrongSeed, kShortFile, kVersionCount, kJobInput };

// Sizes: kFull is the benchmark; kSmall keeps every mechanism but shrinks
// clients and bytes so the self-test runs in seconds.
enum class Scale { kFull, kSmall };

class Workload {
 public:
  virtual ~Workload() = default;
  virtual WorldConfig config() const { return WorldConfig{}; }
  // Set-up: stages inputs through the untimed file system.
  virtual void stage(World& w) = 0;
  // The measured phase; returns the simulated makespan.
  virtual double run(World& w) = 0;
  // Post-phase output checks.
  virtual void check(World& w, Checks* out) = 0;
  // Per-layer metrics only this workload produces (MapReduce job stats).
  virtual void layers(const World& w, Metrics* out) const {
    (void)w;
    (void)out;
  }
};

const std::vector<std::string>& workload_names();
// Null for an unknown name. `seed` drives input generation only.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        Backend backend, uint64_t seed,
                                        Scale scale, Corruption corruption);

// --- per-layer metrics (layers.cpp) ---

// Nearest-rank quantile of `samples` (0 when empty).
double quantile(std::vector<double> samples, double q);

// Cumulative public counters of one world at one instant, flattened to
// name -> value (histograms as bucket counts), so the measured phase's
// share is the difference of two readings.
struct Reading {
  std::map<std::string, double> counters;
  std::map<std::string, std::vector<uint64_t>> histograms;
};
Reading read_world(World& w);
// Appends the layer metrics of one world's measured phase.
void layer_metrics(World& w, const Reading& before, const Reading& after,
                   Metrics* out);
// Samples queue depths into w.queues every 1 ms until *done.
sim::Task<void> sample_queues(World* w, const bool* done);

}  // namespace bs::suite
