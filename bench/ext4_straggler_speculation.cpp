// Extension X4: stragglers, speculative execution, and multi-job fair
// scheduling — the MapReduce-engine scenarios the paper's Grid'5000 runs
// would hit in practice but never isolate.
//
// Setup: paper-scale cluster; 10% of the storage nodes are *slow* (disk,
// NIC, and CPU throttled 8x — degraded, not dead, so they keep
// heartbeating and keep taking tasks). A cost-model DistributedGrep job
// runs over a staged input with shuffle slowstart enabled.
//
// Measured per storage system (BSFS vs HDFS):
//   * job makespan with speculative execution off vs on — backup tasks
//     must strictly beat the straggler tail;
//   * slowstart leverage: makespan with serial phases (slowstart = 1.0)
//     vs overlapped shuffle (slowstart = 0.05) on a healthy cluster;
//   * two concurrent grep jobs under the fair scheduler — both make
//     progress from the first heartbeats (no starvation);
//   * bit-reproducibility: the speculation run is repeated in a fresh
//     world and every JobStats byte must match.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "fault/injector.h"
#include "mr/app.h"
#include "mr/cluster.h"
#include "sim/sync.h"

using namespace bs;
using namespace bs::bench;

namespace {

constexpr uint64_t kGrepInputBytes = 4ULL * kGiB;   // 64 maps at 64 MiB
constexpr uint64_t kJobInputBytes = 2ULL * kGiB;    // per multi-job input
constexpr double kSlowFraction = 0.10;
constexpr double kSlowFactor = 8.0;
constexpr double kSlowstart = 0.05;
constexpr uint64_t kSlowSeed = 0x57a66;

mr::MrConfig mr_config(const net::ClusterConfig& cluster) {
  mr::MrConfig cfg;
  cfg.jobtracker_node = 0;
  cfg.tasktracker_nodes = storage_nodes(cluster);
  return cfg;
}

sim::Task<void> run_one(mr::MapReduceCluster* mr, mr::JobConfig jc,
                        mr::JobStats* out) {
  *out = co_await mr->run_job(std::move(jc));
}

mr::JobConfig grep_config(mr::DistributedGrep* app, const std::string& input,
                          const std::string& out_dir) {
  mr::JobConfig jc;
  jc.input_files = {input};
  jc.output_dir = out_dir;
  jc.app = app;
  jc.num_reducers = 8;
  jc.cost_model = true;
  jc.record_read_size = kMiB;
  return jc;
}

// Replication 3 (the era's default) on both systems: a backup attempt can
// then read its input from a healthy replica instead of being pinned to a
// slow node's only copy — without replication, speculation cannot beat a
// straggling *data source* (the block exists nowhere else), only a
// straggling worker.
WorldOptions world_options() {
  WorldOptions opt;
  opt.bsfs_replication = 3;
  opt.hdfs_replication = 3;
  return opt;
}

template <typename World>
void stage(World& world, const std::string& path, uint64_t bytes) {
  if constexpr (std::is_same_v<World, BsfsWorld>) {
    world.sim.spawn(bsfs_stage_file(world, path, bytes, 4242));
  } else {
    world.sim.spawn(put_file(*world.fs, 0, path, bytes, 4242));
  }
  world.sim.run();
}

// One straggler run: slow nodes injected right before the job, speculation
// on/off per `speculative`. Returns the job's stats (and, via out param,
// the exact serialized stats for the reproducibility check).
template <typename World>
mr::JobStats straggler_run(bool speculative, std::string* serialized) {
  World world(world_options());
  stage(world, "/in/huge", kGrepInputBytes);

  fault::FaultInjector injector(world.sim, world.net, {.seed = kSlowSeed});
  const auto storage = storage_nodes(world.options.cluster);
  injector.slow_fraction_at(storage, kSlowFraction, kSlowFactor,
                            world.sim.now());

  mr::DistributedGrep app("inventurous");
  mr::MrConfig cfg = mr_config(world.options.cluster);
  cfg.reduce_slowstart = kSlowstart;
  cfg.speculative_execution = speculative;
  mr::MapReduceCluster cluster(world.sim, world.net, *world.fs, cfg);
  mr::JobStats stats;
  world.sim.spawn(run_one(&cluster, grep_config(&app, "/in/huge", "/out/g"),
                          &stats));
  world.sim.run();
  if (serialized != nullptr) *serialized = mr::debug_string(stats);
  return stats;
}

// Healthy-cluster run at the given slowstart (speculation off): isolates
// how much the shuffle/map overlap buys each storage system. Uses the
// shuffle-heavy sort (selectivity 1.0): with slowstart the reduces write
// their outputs *while* the map phase is still reading, which is exactly
// the concurrent-access pattern where BSFS's striped, load-balanced pages
// should gain more than HDFS's single-pipeline blocks.
template <typename World>
mr::JobStats slowstart_run(double slowstart) {
  World world(world_options());
  stage(world, "/in/huge", kGrepInputBytes);
  mr::SortApp app;
  mr::MrConfig cfg = mr_config(world.options.cluster);
  cfg.reduce_slowstart = slowstart;
  mr::MapReduceCluster cluster(world.sim, world.net, *world.fs, cfg);
  mr::JobConfig jc;
  jc.input_files = {"/in/huge"};
  jc.output_dir = "/out/s";
  jc.app = &app;
  jc.num_reducers = 8;
  jc.cost_model = true;
  jc.record_read_size = kMiB;
  mr::JobStats stats;
  world.sim.spawn(run_one(&cluster, jc, &stats));
  world.sim.run();
  return stats;
}

double first_launch(const mr::JobStats& s) {
  double t = -1;
  for (const auto& l : s.launches) {
    if (t < 0 || l.time < t) t = l.time;
  }
  return t;
}

// Two concurrent grep jobs under the fair scheduler, healthy cluster (the
// scenario isolates slot sharing; stragglers are measured separately).
template <typename World>
std::pair<mr::JobStats, mr::JobStats> fair_run() {
  World world(world_options());
  stage(world, "/in/a", kJobInputBytes);
  stage(world, "/in/b", kJobInputBytes);

  mr::DistributedGrep app("inventurous");
  mr::MrConfig cfg = mr_config(world.options.cluster);
  cfg.scheduler = mr::SchedulerKind::kFair;
  cfg.reduce_slowstart = kSlowstart;
  cfg.speculative_execution = true;
  mr::MapReduceCluster cluster(world.sim, world.net, *world.fs, cfg);
  mr::JobStats a, b;
  world.sim.spawn(run_one(&cluster, grep_config(&app, "/in/a", "/out/a"), &a));
  world.sim.spawn(run_one(&cluster, grep_config(&app, "/in/b", "/out/b"), &b));
  world.sim.run();
  return {a, b};
}

struct SystemResult {
  double makespan_off = 0;
  double makespan_on = 0;
  uint64_t backups = 0;
  uint64_t wins = 0;
  bool reproducible = false;
  double slowstart_serial = 0;
  double slowstart_overlap = 0;
  double fair_a = 0;
  double fair_b = 0;
  double fair_launch_gap = 0;
};

template <typename World>
SystemResult run_system(BenchReport& report, const char* name) {
  SystemResult res;
  report.say("%s: grep over %llu GiB, %d%% slow nodes (%.0fx), "
             "slowstart=%.2f\n",
             name, static_cast<unsigned long long>(kGrepInputBytes / kGiB),
             static_cast<int>(kSlowFraction * 100), kSlowFactor, kSlowstart);

  const mr::JobStats off = straggler_run<World>(false, nullptr);
  std::string run1, run2;
  const mr::JobStats on = straggler_run<World>(true, &run1);
  straggler_run<World>(true, &run2);
  res.makespan_off = off.duration;
  res.makespan_on = on.duration;
  res.backups = on.speculative_maps + on.speculative_reduces;
  res.wins = on.speculative_wins;
  res.reproducible = run1 == run2 && !run1.empty();

  const mr::JobStats serial = slowstart_run<World>(1.0);
  const mr::JobStats overlap = slowstart_run<World>(kSlowstart);
  res.slowstart_serial = serial.duration;
  res.slowstart_overlap = overlap.duration;

  const auto [a, b] = fair_run<World>();
  res.fair_a = a.duration;
  res.fair_b = b.duration;
  res.fair_launch_gap = std::abs(first_launch(a) - first_launch(b));
  return res;
}

void report_system(BenchReport& report, Table& table, const char* key,
                   const SystemResult& r) {
  table.add_row({key, Table::num(r.makespan_off), Table::num(r.makespan_on),
                 Table::num(r.makespan_off / r.makespan_on, 2),
                 std::to_string(r.backups), std::to_string(r.wins),
                 Table::num(r.slowstart_serial), Table::num(r.slowstart_overlap),
                 r.reproducible ? "yes" : "NO"});
  report.metric(std::string(key) + "/makespan_speculation_off_s",
                r.makespan_off);
  report.metric(std::string(key) + "/makespan_speculation_on_s",
                r.makespan_on);
  report.metric(std::string(key) + "/speculation_gain",
                r.makespan_off / r.makespan_on);
  report.metric(std::string(key) + "/backup_attempts",
                static_cast<double>(r.backups));
  report.metric(std::string(key) + "/backup_wins", static_cast<double>(r.wins));
  report.metric(std::string(key) + "/slowstart_serial_s", r.slowstart_serial);
  report.metric(std::string(key) + "/slowstart_overlap_s",
                r.slowstart_overlap);
  report.metric(std::string(key) + "/slowstart_gain",
                r.slowstart_serial / r.slowstart_overlap);
  report.metric(std::string(key) + "/fair_job_a_s", r.fair_a);
  report.metric(std::string(key) + "/fair_job_b_s", r.fair_b);
  report.metric(std::string(key) + "/fair_first_launch_gap_s",
                r.fair_launch_gap);
  // 1 when both concurrent jobs got slots from the first heartbeats and
  // finished close together (no starvation under fair sharing).
  const double spread = std::abs(r.fair_a - r.fair_b) /
                        std::max(r.fair_a, r.fair_b);
  const bool no_starvation = r.fair_launch_gap < 1.0 && spread < 0.5;
  report.metric(std::string(key) + "/fair_no_starvation",
                no_starvation ? 1.0 : 0.0);
  report.metric(std::string(key) + "/bit_reproducible",
                r.reproducible ? 1.0 : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("ext4_straggler_speculation", argc, argv);
  report.say("X4: stragglers + speculation + fair scheduling\n"
             "shape: speculation strictly improves makespan under slow\n"
             "nodes, and BSFS gains more than HDFS (striped page reads\n"
             "free backup tasks from the slow data source entirely);\n"
             "fair sharing runs two jobs without starvation\n\n");

  SystemResult bsfs = run_system<BsfsWorld>(report, "BSFS");
  SystemResult hdfs = run_system<HdfsWorld>(report, "HDFS");

  Table table({"backend", "spec off (s)", "spec on (s)", "gain", "backups",
               "wins", "slowstart 1.0 (s)", "slowstart 0.05 (s)",
               "reproducible"});
  report_system(report, table, "bsfs", bsfs);
  report_system(report, table, "hdfs", hdfs);
  report.table(table);

  report.say("\nfair scheduler: BSFS jobs %.1fs / %.1fs (launch gap %.2fs), "
             "HDFS jobs %.1fs / %.1fs (launch gap %.2fs)\n",
             bsfs.fair_a, bsfs.fair_b, bsfs.fair_launch_gap, hdfs.fair_a,
             hdfs.fair_b, hdfs.fair_launch_gap);

  const bool ok = bsfs.makespan_on < bsfs.makespan_off &&
                  hdfs.makespan_on < hdfs.makespan_off && bsfs.reproducible &&
                  hdfs.reproducible;
  report.say("%s\n", ok ? "speculation strictly improved makespan on both "
                          "backends; runs bit-reproducible"
                        : "WARNING: expected shape not met");
  return ok ? 0 : 1;
}
