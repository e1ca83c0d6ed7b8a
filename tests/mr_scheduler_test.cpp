// MapReduce engine v2 tests: fair sharing across concurrent jobs,
// locality preservation per job, speculative execution against throttled
// (slow) nodes, loser-kill output commit semantics, slowstart overlap,
// and liveness-aware task placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "blob/cluster.h"
#include "bsfs/bsfs.h"
#include "common/rng.h"
#include "common/wordlist.h"
#include "hdfs/hdfs.h"
#include "mr/app.h"
#include "mr/cluster.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace bs::mr {
namespace {

constexpr uint64_t kBlock = 4096;

struct SchedWorld {
  sim::Simulator sim;
  net::Network net;
  blob::BlobSeerCluster blobs;
  bsfs::NamespaceManager ns;
  bsfs::Bsfs bsfs;

  SchedWorld()
      : net(sim,
            [] {
              net::ClusterConfig c;
              c.num_nodes = 8;
              c.nodes_per_rack = 4;
              return c;
            }()),
        blobs(sim, net, {}), ns(sim, net, {}),
        bsfs(sim, net, blobs, ns,
             bsfs::BsfsConfig{.block_size = kBlock, .page_size = kBlock / 4,
                              .replication = 1, .enable_cache = true}) {}
};

// WordCount semantics with tiny processing rates, so task runtimes are long
// enough for the straggler detector to sample progress differences.
class SlowWordCount final : public MapReduceApp {
 public:
  std::string name() const override { return "slow-wordcount"; }
  void map(uint64_t, const std::string& line, Emitter& out) override {
    size_t start = 0;
    for (size_t i = 0; i <= line.size(); ++i) {
      if (i == line.size() ||
          std::isspace(static_cast<unsigned char>(line[i]))) {
        if (i > start) out.emit(line.substr(start, i - start), "1");
        start = i + 1;
      }
    }
  }
  void reduce(const std::string& key, const std::vector<std::string>& values,
              Emitter& out) override {
    uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(v);
    out.emit(key, std::to_string(total));
  }
  double map_rate_bps() const override { return 64e3; }
  double reduce_rate_bps() const override { return 64e3; }
  double map_selectivity() const override { return 1.1; }
  double output_ratio() const override { return 0.05; }
};

// Cost-model app with slow maps (about 0.5 s per 4 KiB block), used to make
// scheduling decisions observable at test scale.
class SlowCostApp final : public MapReduceApp {
 public:
  std::string name() const override { return "slow-cost"; }
  double map_rate_bps() const override { return 8192; }
  double map_selectivity() const override { return 0.5; }
  double reduce_rate_bps() const override { return 1e6; }
  double output_ratio() const override { return 1.0; }
};

sim::Task<void> put_pattern(fs::FileSystem* f, std::string path,
                            uint64_t bytes) {
  auto client = f->make_client(0);
  auto writer = co_await client->create(path);
  co_await writer->write(DataSpec::pattern(7, 0, bytes));
  co_await writer->close();
}

sim::Task<void> put_text(fs::FileSystem* f, std::string path,
                         std::string text) {
  auto client = f->make_client(0);
  auto writer = co_await client->create(path);
  co_await writer->write(DataSpec::from_string(std::move(text)));
  co_await writer->close();
}

sim::Task<void> run_one(MapReduceCluster* mr, JobConfig jc, JobStats* out) {
  *out = co_await mr->run_job(std::move(jc));
}

double first_launch_time(const JobStats& s) {
  double t = -1;
  for (const auto& l : s.launches) {
    if (t < 0 || l.time < t) t = l.time;
  }
  return t;
}

// Runs two identical 24-map cost jobs submitted back-to-back under the
// given policy; returns their stats.
std::pair<JobStats, JobStats> run_two_jobs(SchedulerKind kind) {
  SchedWorld w;
  w.sim.spawn(put_pattern(&w.bsfs, "/in/a", kBlock * 24));
  w.sim.spawn(put_pattern(&w.bsfs, "/in/b", kBlock * 24));
  w.sim.run();

  SlowCostApp app;
  MrConfig mcfg;
  mcfg.heartbeat_s = 0.05;
  mcfg.task_startup_s = 0.01;
  mcfg.map_slots = 1;
  mcfg.reduce_slots = 1;
  mcfg.scheduler = kind;
  MapReduceCluster mr(w.sim, w.net, w.bsfs, mcfg);

  auto make_jc = [&](const std::string& in, const std::string& out_dir) {
    JobConfig jc;
    jc.input_files = {in};
    jc.output_dir = out_dir;
    jc.app = &app;
    jc.num_reducers = 1;
    jc.cost_model = true;
    jc.record_read_size = kBlock;
    return jc;
  };
  JobStats a, b;
  w.sim.spawn(run_one(&mr, make_jc("/in/a", "/out/a"), &a));
  w.sim.spawn(run_one(&mr, make_jc("/in/b", "/out/b"), &b));
  w.sim.run();
  return {a, b};
}

TEST(FairScheduler, SplitsSlotsBetweenConcurrentJobs) {
  const auto [fifo_a, fifo_b] = run_two_jobs(SchedulerKind::kFifo);
  const auto [fair_a, fair_b] = run_two_jobs(SchedulerKind::kFair);

  ASSERT_EQ(fifo_a.maps, 24u);
  ASSERT_EQ(fifo_b.maps, 24u);
  ASSERT_EQ(fair_a.maps, 24u);
  ASSERT_EQ(fair_b.maps, 24u);

  // FIFO: job A hogs every slot; B's first task waits for A's map phase to
  // drain. Fair: both jobs get tasks running from the first heartbeats.
  const double fifo_gap = first_launch_time(fifo_b) - first_launch_time(fifo_a);
  const double fair_gap = first_launch_time(fair_b) - first_launch_time(fair_a);
  EXPECT_GT(fifo_gap, 0.5);
  EXPECT_LT(fair_gap, 0.25);
  EXPECT_LT(fair_gap, fifo_gap);

  // No starvation under fair sharing: identical jobs finish close together.
  const double fair_end_a = fair_a.submit_time + fair_a.duration;
  const double fair_end_b = fair_b.submit_time + fair_b.duration;
  const double spread = std::abs(fair_end_a - fair_end_b);
  EXPECT_LT(spread, 0.3 * std::max(fair_a.duration, fair_b.duration));
  // Under FIFO the first job finishes well before the second.
  const double fifo_end_a = fifo_a.submit_time + fifo_a.duration;
  const double fifo_end_b = fifo_b.submit_time + fifo_b.duration;
  EXPECT_LT(fifo_end_a, fifo_end_b - 0.5);
}

TEST(FairScheduler, LocalityPreservedPerJob) {
  SchedWorld w;
  w.sim.spawn(put_pattern(&w.bsfs, "/in/a", kBlock * 16));
  w.sim.spawn(put_pattern(&w.bsfs, "/in/b", kBlock * 16));
  w.sim.run();

  SlowCostApp app;
  MrConfig mcfg;
  mcfg.heartbeat_s = 0.05;
  mcfg.task_startup_s = 0.01;
  mcfg.scheduler = SchedulerKind::kFair;
  MapReduceCluster mr(w.sim, w.net, w.bsfs, mcfg);
  JobStats a, b;
  auto make_jc = [&](const std::string& in, const std::string& out_dir) {
    JobConfig jc;
    jc.input_files = {in};
    jc.output_dir = out_dir;
    jc.app = &app;
    jc.num_reducers = 1;
    jc.cost_model = true;
    jc.record_read_size = kBlock;
    return jc;
  };
  w.sim.spawn(run_one(&mr, make_jc("/in/a", "/out/a"), &a));
  w.sim.spawn(run_one(&mr, make_jc("/in/b", "/out/b"), &b));
  w.sim.run();

  for (const JobStats* s : {&a, &b}) {
    EXPECT_EQ(s->data_local_maps + s->rack_local_maps + s->remote_maps,
              s->maps);
    // Locality-aware selection still holds with two jobs contending.
    EXPECT_GE(s->data_local_maps + s->rack_local_maps, s->maps / 2);
  }
}

// Shared setup for the speculation tests: a two-tracker world where node 1
// is severely throttled (disk, NIC, and CPU all 16x slower).
JobStats run_throttled_wordcount(bool speculation, std::string* corpus_out,
                                 std::map<std::string, uint64_t>* expect_out) {
  SchedWorld w;
  Rng rng(91);
  std::string text;
  std::map<std::string, uint64_t> expect;
  while (text.size() < kBlock * 6) {
    std::string line = random_sentence(rng, 1 + rng.below(8));
    std::istringstream is(line);
    std::string word;
    while (is >> word) ++expect[word];
    text += line;
  }
  if (corpus_out != nullptr) *corpus_out = text;
  if (expect_out != nullptr) *expect_out = expect;
  w.sim.spawn(put_text(&w.bsfs, "/in", text));
  w.sim.run();

  w.net.set_node_perf(1, net::NodePerf{1.0 / 16, 1.0 / 16, 1.0 / 16});

  SlowWordCount app;
  MrConfig mcfg;
  mcfg.tasktracker_nodes = {1, 2};
  mcfg.heartbeat_s = 0.05;
  mcfg.task_startup_s = 0.01;
  mcfg.speculative_execution = speculation;
  mcfg.speculative_min_runtime_s = 0.05;
  mcfg.speculation_interval_s = 0.05;
  MapReduceCluster mr(w.sim, w.net, w.bsfs, mcfg);
  JobConfig jc;
  jc.input_files = {"/in"};
  jc.output_dir = "/out";
  jc.app = &app;
  jc.num_reducers = 2;
  jc.record_read_size = 512;
  JobStats stats;
  w.sim.spawn(run_one(&mr, std::move(jc), &stats));
  w.sim.run();

  // Verify the application output is exact regardless of speculation.
  std::map<std::string, uint64_t> got;
  for (const auto& [k, v] : stats.results) got[k] = std::stoull(v);
  EXPECT_EQ(got, expect);

  // Exactly one committed part-r file per reduce task, and JobStats
  // output_bytes equals the bytes actually in the committed files (no
  // double-counted bytes from losing attempts).
  std::vector<std::pair<std::string, uint64_t>> parts;
  auto check = [](fs::FileSystem* f,
                  std::vector<std::pair<std::string, uint64_t>>* out)
      -> sim::Task<void> {
    auto client = f->make_client(0);
    auto names = co_await client->list("/out");
    for (const auto& name : names) {
      if (name.find("part-r-") == std::string::npos) continue;
      auto st = co_await client->stat(name);
      if (st.has_value()) out->emplace_back(name, st->size);
    }
  };
  w.sim.spawn(check(&w.bsfs, &parts));
  w.sim.run();
  EXPECT_EQ(parts.size(), 2u);
  uint64_t file_bytes = 0;
  for (const auto& [name, size] : parts) file_bytes += size;
  EXPECT_EQ(file_bytes, stats.output_bytes);
  return stats;
}

TEST(Speculation, BackupAttemptLaunchedForThrottledNode) {
  JobStats on = run_throttled_wordcount(true, nullptr, nullptr);
  EXPECT_GE(on.speculative_maps + on.speculative_reduces, 1u);
  EXPECT_GE(on.speculative_wins, 1u);
  EXPECT_GE(on.killed_attempts, 1u);

  JobStats off = run_throttled_wordcount(false, nullptr, nullptr);
  EXPECT_EQ(off.speculative_maps + off.speculative_reduces, 0u);
  EXPECT_EQ(off.killed_attempts, 0u);
  // Backup tasks rescue the work stuck on the slow node.
  EXPECT_LT(on.duration, off.duration);
}

TEST(Speculation, LoserKillLeavesSingleCommittedOutputPerTask) {
  // Generator maps write real files: the commit-by-rename path must leave
  // exactly one part file per task and no temp leftovers. The throttled
  // node is made extreme (64x) so its attempts are still running when the
  // pending queue drains — the precondition for the straggler sweep.
  SchedWorld w;
  w.net.set_node_perf(1, net::NodePerf{1.0 / 64, 1.0 / 64, 1.0 / 64});

  RandomTextWriter app(kBlock);
  MrConfig mcfg;
  mcfg.tasktracker_nodes = {1, 2};
  mcfg.heartbeat_s = 0.05;
  mcfg.task_startup_s = 0.01;
  mcfg.speculative_execution = true;
  mcfg.speculative_min_runtime_s = 0.05;
  mcfg.speculation_interval_s = 0.05;
  MapReduceCluster mr(w.sim, w.net, w.bsfs, mcfg);
  JobConfig jc;
  jc.output_dir = "/out";
  jc.app = &app;
  jc.num_generator_maps = 8;
  JobStats stats;
  w.sim.spawn(run_one(&mr, std::move(jc), &stats));
  w.sim.run();

  EXPECT_EQ(stats.maps, 8u);
  EXPECT_GE(stats.speculative_maps, 1u);
  EXPECT_GE(stats.killed_attempts, 1u);

  // Every part file exists exactly once with the full payload; losers'
  // temp files are gone.
  int present = 0;
  std::vector<std::string> leftovers;
  auto check = [](fs::FileSystem* f, int* out,
                  std::vector<std::string>* tmp) -> sim::Task<void> {
    auto client = f->make_client(2);
    auto names = co_await client->list("/out");
    for (const auto& name : names) {
      auto st = co_await client->stat(name);
      if (st.has_value() && !st->is_dir && st->size >= kBlock) ++*out;
    }
    *tmp = co_await client->list("/out/_attempts");
    co_return;
  };
  w.sim.spawn(check(&w.bsfs, &present, &leftovers));
  w.sim.run();
  EXPECT_EQ(present, 8);
  EXPECT_TRUE(leftovers.empty()) << leftovers.size() << " temp files leaked";

  // Output bytes are counted once per committed task.
  EXPECT_GE(stats.output_bytes, 8 * kBlock);
  EXPECT_LT(stats.output_bytes, 2 * 8 * kBlock);
}

TEST(SharedOutput, SpeculativeLosersNeverAppendDuplicateBlocks) {
  // kSharedAppend under speculation: reduces append to ONE shared file, so
  // first-finisher-wins must be arbitrated BEFORE the append — a loser
  // that appended anyway would leave a duplicate block that no rename race
  // could take back. The throttled node guarantees a backup/loser exists.
  SchedWorld w;
  Rng rng(91);
  std::string text;
  std::map<std::string, uint64_t> expect;
  while (text.size() < kBlock * 6) {
    std::string line = random_sentence(rng, 1 + rng.below(8));
    std::istringstream is(line);
    std::string word;
    while (is >> word) ++expect[word];
    text += line;
  }
  w.sim.spawn(put_text(&w.bsfs, "/in", text));
  w.sim.run();
  w.net.set_node_perf(1, net::NodePerf{1.0 / 16, 1.0 / 16, 1.0 / 16});

  SlowWordCount app;
  MrConfig mcfg;
  mcfg.tasktracker_nodes = {1, 2};
  mcfg.heartbeat_s = 0.05;
  mcfg.task_startup_s = 0.01;
  mcfg.speculative_execution = true;
  mcfg.speculative_min_runtime_s = 0.05;
  mcfg.speculation_interval_s = 0.05;
  MapReduceCluster mr(w.sim, w.net, w.bsfs, mcfg);
  JobConfig jc;
  jc.input_files = {"/in"};
  jc.output_dir = "/out";
  jc.app = &app;
  jc.num_reducers = 2;
  jc.record_read_size = 512;
  jc.output_mode = JobConfig::OutputMode::kSharedAppend;
  JobStats stats;
  w.sim.spawn(run_one(&mr, std::move(jc), &stats));
  w.sim.run();

  // Results are exact despite the speculative race.
  std::map<std::string, uint64_t> got;
  for (const auto& [k, v] : stats.results) got[k] = std::stoull(v);
  EXPECT_EQ(got, expect);
  // Every reduce committed by exactly one concurrent append; no fallback.
  EXPECT_EQ(stats.shared_appends, 2u);
  EXPECT_EQ(stats.concat_parts, 0u);

  // On disk: one shared file whose size equals the appended bytes exactly
  // (a duplicate block would show up as excess size), no part-r files, no
  // temp leftovers.
  std::vector<std::string> names;
  uint64_t shared_size = 0;
  std::vector<std::string> leftovers;
  auto check = [](fs::FileSystem* f, std::vector<std::string>* out,
                  uint64_t* size,
                  std::vector<std::string>* tmp) -> sim::Task<void> {
    auto client = f->make_client(2);
    *out = co_await client->list("/out");
    auto st = co_await client->stat("/out/output-shared");
    if (st.has_value()) *size = st->size;
    *tmp = co_await client->list("/out/_attempts");
  };
  w.sim.spawn(check(&w.bsfs, &names, &shared_size, &leftovers));
  w.sim.run();
  EXPECT_EQ(shared_size, stats.shared_append_bytes);
  EXPECT_GE(shared_size, stats.output_bytes);
  for (const auto& name : names) {
    EXPECT_EQ(name.find("part-r-"), std::string::npos)
        << "part file in shared-append mode: " << name;
  }
  EXPECT_TRUE(leftovers.empty()) << leftovers.size() << " temp files leaked";
}

TEST(SharedOutput, HdfsFallsBackToSerializedConcat) {
  // The same job against HDFS: append_shared() is refused (§II.C), so the
  // reduces commit part files and the engine concatenates them into the
  // shared file afterwards — same final layout, serialized cost.
  sim::Simulator sim;
  net::ClusterConfig ncfg;
  ncfg.num_nodes = 8;
  ncfg.nodes_per_rack = 4;
  net::Network net(sim, ncfg);
  hdfs::Hdfs hdfs_fs(sim, net,
                     hdfs::HdfsConfig{.namenode = {.node = 0,
                                                   .service_time_s = 150e-6,
                                                   .block_size = kBlock,
                                                   .replication = 1,
                                                   .placement_seed = 7}});
  Rng rng(91);
  std::string text;
  std::map<std::string, uint64_t> expect;
  while (text.size() < kBlock * 6) {
    std::string line = random_sentence(rng, 1 + rng.below(8));
    std::istringstream is(line);
    std::string word;
    while (is >> word) ++expect[word];
    text += line;
  }
  sim.spawn(put_text(&hdfs_fs, "/in", text));
  sim.run();

  SlowWordCount app;
  MrConfig mcfg;
  mcfg.heartbeat_s = 0.05;
  mcfg.task_startup_s = 0.01;
  MapReduceCluster mr(sim, net, hdfs_fs, mcfg);
  JobConfig jc;
  jc.input_files = {"/in"};
  jc.output_dir = "/out";
  jc.app = &app;
  jc.num_reducers = 2;
  jc.record_read_size = 512;
  jc.output_mode = JobConfig::OutputMode::kSharedAppend;
  JobStats stats;
  sim.spawn(run_one(&mr, std::move(jc), &stats));
  sim.run();

  std::map<std::string, uint64_t> got;
  for (const auto& [k, v] : stats.results) got[k] = std::stoull(v);
  EXPECT_EQ(got, expect);
  EXPECT_EQ(stats.shared_appends, 0u);
  EXPECT_EQ(stats.concat_parts, 2u);
  EXPECT_EQ(stats.concat_bytes, stats.output_bytes);
  EXPECT_GT(stats.concat_s, 0.0);

  // Final layout matches the live path: one shared file holding all output
  // bytes, the part files consumed by the concat.
  std::vector<std::string> names;
  uint64_t shared_size = 0;
  auto check = [](fs::FileSystem* f, std::vector<std::string>* out,
                  uint64_t* size) -> sim::Task<void> {
    auto client = f->make_client(2);
    *out = co_await client->list("/out");
    auto st = co_await client->stat("/out/output-shared");
    if (st.has_value()) *size = st->size;
  };
  sim.spawn(check(&hdfs_fs, &names, &shared_size));
  sim.run();
  EXPECT_EQ(shared_size, stats.output_bytes);
  for (const auto& name : names) {
    EXPECT_EQ(name.find("part-r-"), std::string::npos)
        << "part file survived the concat: " << name;
  }
}

TEST(Shuffle, ParallelCopiesBoundConcurrentFetches) {
  // MrConfig::shuffle_parallel_copies (mapred.reduce.parallel.copies) caps
  // how many map outputs one reduce fetches at a time.
  auto run_with = [](uint32_t copies) {
    SchedWorld w;
    w.sim.spawn(put_pattern(&w.bsfs, "/in", kBlock * 24));
    w.sim.run();
    SlowCostApp app;
    MrConfig mcfg;
    mcfg.heartbeat_s = 0.05;
    mcfg.task_startup_s = 0.01;
    mcfg.shuffle_parallel_copies = copies;
    MapReduceCluster mr(w.sim, w.net, w.bsfs, mcfg);
    JobConfig jc;
    jc.input_files = {"/in"};
    jc.output_dir = "/out";
    jc.app = &app;
    jc.num_reducers = 1;
    jc.cost_model = true;
    jc.record_read_size = kBlock;
    JobStats stats;
    w.sim.spawn(run_one(&mr, std::move(jc), &stats));
    w.sim.run();
    return stats;
  };
  const JobStats parallel = run_with(4);
  const JobStats serial = run_with(1);
  // Same work either way...
  EXPECT_EQ(serial.shuffle_bytes, parallel.shuffle_bytes);
  EXPECT_EQ(serial.output_bytes, parallel.output_bytes);
  // ...but serializing the copy phase (24 per-map fetches one at a time,
  // each paying the map-side disk positioning cost) takes longer.
  EXPECT_GT(serial.duration, parallel.duration);
}

TEST(Shuffle, DfsIntermediatesRunOnHdfsToo) {
  // IntermediateMode::kDfs over the HDFS baseline: map outputs become
  // NameNode files under _intermediate/, the shuffle reads them back, the
  // job-drain sweep removes them — and the results stay exact.
  sim::Simulator sim;
  net::ClusterConfig ncfg;
  ncfg.num_nodes = 8;
  ncfg.nodes_per_rack = 4;
  net::Network net(sim, ncfg);
  hdfs::Hdfs hdfs_fs(sim, net,
                     hdfs::HdfsConfig{.namenode = {.node = 0,
                                                   .service_time_s = 150e-6,
                                                   .block_size = kBlock,
                                                   .replication = 1,
                                                   .placement_seed = 7}});
  Rng rng(91);
  std::string text;
  std::map<std::string, uint64_t> expect;
  while (text.size() < kBlock * 6) {
    std::string line = random_sentence(rng, 1 + rng.below(8));
    std::istringstream is(line);
    std::string word;
    while (is >> word) ++expect[word];
    text += line;
  }
  sim.spawn(put_text(&hdfs_fs, "/in", text));
  sim.run();

  SlowWordCount app;
  MrConfig mcfg;
  mcfg.heartbeat_s = 0.05;
  mcfg.task_startup_s = 0.01;
  MapReduceCluster mr(sim, net, hdfs_fs, mcfg);
  JobConfig jc;
  jc.input_files = {"/in"};
  jc.output_dir = "/out";
  jc.app = &app;
  jc.num_reducers = 2;
  jc.record_read_size = 512;
  jc.intermediate_mode = IntermediateMode::kDfs;
  JobStats stats;
  sim.spawn(run_one(&mr, std::move(jc), &stats));
  sim.run();

  std::map<std::string, uint64_t> got;
  for (const auto& [k, v] : stats.results) got[k] = std::stoull(v);
  EXPECT_EQ(got, expect);
  EXPECT_GT(stats.intermediate_bytes_written, 0u);
  EXPECT_EQ(stats.intermediate_bytes_read, stats.shuffle_bytes);
  EXPECT_EQ(stats.fetch_failures, 0u);

  // The intermediate files were swept when the job drained.
  std::vector<std::string> leftovers;
  bool dir_gone = false;
  auto check = [](fs::FileSystem* f, std::vector<std::string>* out,
                  bool* gone) -> sim::Task<void> {
    auto client = f->make_client(1);
    *out = co_await client->list("/out/_intermediate");
    auto st = co_await client->stat("/out/_intermediate");
    *gone = !st.has_value();
  };
  sim.spawn(check(&hdfs_fs, &leftovers, &dir_gone));
  sim.run();
  EXPECT_TRUE(leftovers.empty())
      << leftovers.size() << " intermediate files leaked";
  EXPECT_TRUE(dir_gone);
}

TEST(Slowstart, ReducesOverlapMapPhase) {
  auto run_with = [](double slowstart) {
    SchedWorld w;
    w.sim.spawn(put_pattern(&w.bsfs, "/in", kBlock * 24));
    w.sim.run();
    SlowCostApp app;
    MrConfig mcfg;
    mcfg.heartbeat_s = 0.05;
    mcfg.task_startup_s = 0.01;
    mcfg.reduce_slowstart = slowstart;
    MapReduceCluster mr(w.sim, w.net, w.bsfs, mcfg);
    JobConfig jc;
    jc.input_files = {"/in"};
    jc.output_dir = "/out";
    jc.app = &app;
    jc.num_reducers = 2;
    jc.cost_model = true;
    jc.record_read_size = kBlock;
    JobStats stats;
    w.sim.spawn(run_one(&mr, std::move(jc), &stats));
    w.sim.run();
    return stats;
  };
  const JobStats serial = run_with(1.0);
  const JobStats overlapped = run_with(0.1);
  ASSERT_EQ(serial.maps, 24u);
  ASSERT_EQ(overlapped.maps, 24u);
  // With slowstart the first reduce launches while maps are still running.
  const double serial_map_end = serial.submit_time + serial.map_phase_s;
  const double over_map_end = overlapped.submit_time + overlapped.map_phase_s;
  EXPECT_GE(serial.first_reduce_start, serial_map_end);
  EXPECT_LT(overlapped.first_reduce_start, over_map_end);
  // Same work either way.
  EXPECT_EQ(serial.shuffle_bytes, overlapped.shuffle_bytes);
  EXPECT_EQ(serial.output_bytes, overlapped.output_bytes);
}

struct FixedLiveness final : net::LivenessView {
  std::set<net::NodeId> dead;
  bool is_up(net::NodeId node) const override { return dead.count(node) == 0; }
};

TEST(Liveness, DeadNodesGetNoTasks) {
  SchedWorld w;
  w.sim.spawn(put_pattern(&w.bsfs, "/in", kBlock * 12));
  w.sim.run();

  FixedLiveness view;
  view.dead = {2, 5};
  SlowCostApp app;
  MrConfig mcfg;
  mcfg.heartbeat_s = 0.05;
  mcfg.task_startup_s = 0.01;
  mcfg.liveness = &view;
  MapReduceCluster mr(w.sim, w.net, w.bsfs, mcfg);
  JobConfig jc;
  jc.input_files = {"/in"};
  jc.output_dir = "/out";
  jc.app = &app;
  jc.num_reducers = 2;
  jc.cost_model = true;
  jc.record_read_size = kBlock;
  JobStats stats;
  w.sim.spawn(run_one(&mr, std::move(jc), &stats));
  w.sim.run();

  EXPECT_EQ(stats.maps, 12u);
  ASSERT_FALSE(stats.launches.empty());
  for (const auto& l : stats.launches) {
    EXPECT_NE(l.node, 2u);
    EXPECT_NE(l.node, 5u);
  }
}

}  // namespace
}  // namespace bs::mr
