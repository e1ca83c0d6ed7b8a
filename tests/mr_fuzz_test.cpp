// Property-style fuzz test for the MapReduce engine: seeded, deterministic,
// bounded iterations. Each iteration builds a fresh world on a randomized
// configuration (scheduler policy, slowstart, speculation, slow-node
// throttling, a crashed-and-detected storage node) and submits a
// randomized mix of jobs against BOTH storage back-ends, then checks
// engine invariants:
//   * every job completes with one committed attempt per task,
//   * all input bytes are planned and read (input_bytes == staged size),
//   * output and shuffle bytes match the app cost model exactly — even
//     when a mid-job mapper crash destroys kLocalDisk intermediates and
//     forces completed maps to re-execute, no byte is double-counted (a
//     reducer keeps partitions it already copied and re-fetches only what
//     it lost; the re-executed map's first attempt never lands twice),
//   * no task attempt is ever launched on a node the failure detector
//     believes dead.
// Each job randomizes its IntermediateMode (mr/shuffle.h), so both the
// local-disk fetch-failure path and the DFS-backed shuffle run under the
// same crash schedule.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "blob/cluster.h"
#include "bsfs/bsfs.h"
#include "common/rng.h"
#include "fault/detector.h"
#include "fault/injector.h"
#include "hdfs/hdfs.h"
#include "mr/app.h"
#include "mr/cluster.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace bs::mr {
namespace {

constexpr uint64_t kBlock = 4096;
constexpr uint32_t kNodes = 12;
constexpr int kIterations = 4;

// Shuffle-heavy cost app slowed far enough that the mid-job crash lands
// while maps are committing and reduces are fetching — the window where
// destroyed kLocalDisk intermediates actually force re-execution.
class SlowSort final : public MapReduceApp {
 public:
  std::string name() const override { return "slow-sort"; }
  double map_rate_bps() const override { return 8e3; }
  double map_selectivity() const override { return 1.0; }
  double reduce_rate_bps() const override { return 64e3; }
  double output_ratio() const override { return 1.0; }
};

struct JobPlan {
  enum Kind { kGrep, kSort, kRtw } kind = kGrep;
  std::string input;       // staged file (grep/sort)
  uint64_t input_bytes = 0;
  uint32_t reducers = 1;
  uint32_t generator_maps = 0;   // rtw
  uint64_t bytes_per_map = 0;    // rtw
  bool shared_output = false;    // OutputMode::kSharedAppend
  IntermediateMode intermediate = IntermediateMode::kLocalDisk;
  std::string output_dir;
};

// Replicates the engine's cost-model arithmetic: per-map partition bytes
// are floor(length * selectivity / reducers), per-reduce output is
// floor(shuffled * output_ratio).
void expected_cost(const JobPlan& plan, const MapReduceApp& app,
                   uint64_t* maps, uint64_t* shuffle, uint64_t* output) {
  const uint64_t m = (plan.input_bytes + kBlock - 1) / kBlock;
  *maps = m;
  std::vector<uint64_t> per_reduce(plan.reducers, 0);
  for (uint64_t i = 0; i < m; ++i) {
    const uint64_t len = std::min<uint64_t>(kBlock, plan.input_bytes - i * kBlock);
    const double inter = static_cast<double>(len) * app.map_selectivity();
    for (uint32_t r = 0; r < plan.reducers; ++r) {
      per_reduce[r] += static_cast<uint64_t>(inter / plan.reducers);
    }
  }
  *shuffle = 0;
  *output = 0;
  for (uint32_t r = 0; r < plan.reducers; ++r) {
    *shuffle += per_reduce[r];
    *output += static_cast<uint64_t>(static_cast<double>(per_reduce[r]) *
                                     app.output_ratio());
  }
}

sim::Task<void> stage_file(fs::FileSystem* f, std::string path,
                           uint64_t bytes, uint64_t seed) {
  auto client = f->make_client(1);
  auto writer = co_await client->create(path);
  co_await writer->write(DataSpec::pattern(seed, 0, bytes));
  co_await writer->close();
}

sim::Task<void> run_into(MapReduceCluster* mr, JobConfig jc, JobStats* out,
                         sim::WaitGroup* wg) {
  *out = co_await mr->run_job(std::move(jc));
  wg->done();
}

void run_iteration(const std::string& backend, uint64_t seed) {
  SCOPED_TRACE(backend + " seed=" + std::to_string(seed));
  Rng rng(seed);

  sim::Simulator sim;
  net::ClusterConfig ncfg;
  ncfg.num_nodes = kNodes;
  ncfg.nodes_per_rack = 4;
  ncfg.rpc_timeout_s = 0.3;
  net::Network net(sim, ncfg);
  blob::BlobSeerCluster blobs(sim, net, {});
  bsfs::NamespaceManager ns(sim, net, {});
  bsfs::Bsfs bsfs_fs(sim, net, blobs, ns,
                     bsfs::BsfsConfig{.block_size = kBlock,
                                      .page_size = kBlock / 4,
                                      .replication = 3,
                                      .enable_cache = true});
  hdfs::Hdfs hdfs_fs(sim, net,
                     hdfs::HdfsConfig{.namenode = {.node = 0,
                                                   .service_time_s = 150e-6,
                                                   .block_size = kBlock,
                                                   .replication = 3,
                                                   .placement_seed = seed},
                                      .stream_efficiency = 0.92});
  const bool use_bsfs = backend == "BSFS";
  fs::FileSystem& fs =
      use_bsfs ? static_cast<fs::FileSystem&>(bsfs_fs)
               : static_cast<fs::FileSystem&>(hdfs_fs);

  // Stage 1-2 input files before any fault.
  const uint32_t num_files = 1 + static_cast<uint32_t>(rng.below(2));
  std::vector<std::pair<std::string, uint64_t>> files;
  for (uint32_t i = 0; i < num_files; ++i) {
    // Large enough that every tasktracker hosts map tasks — so the
    // mid-job victim always holds committed map outputs worth losing.
    const uint64_t bytes = kBlock * (12 + rng.below(6)) + rng.below(kBlock);
    const std::string path = "/in/f" + std::to_string(i);
    files.emplace_back(path, bytes);
    sim.spawn(stage_file(&fs, path, bytes, seed + i));
  }
  sim.run();

  // Fault plumbing: one storage node crashes (disk wiped) and must be
  // detected before jobs run; another node is merely slow.
  fault::FaultInjector injector(sim, net, {.seed = seed ^ 0xfa117});
  if (use_bsfs) {
    fault::wire_blobseer(injector, blobs);
  } else {
    fault::wire_hdfs(injector, hdfs_fs);
  }
  std::vector<net::NodeId> storage;
  for (net::NodeId n = 1; n < kNodes; ++n) storage.push_back(n);
  fault::FailureDetector detector(sim, net, storage, {.node = 0});
  if (use_bsfs) {
    blobs.set_liveness(&detector);
  } else {
    hdfs_fs.set_liveness(&detector);
  }

  const net::NodeId victim =
      1 + static_cast<net::NodeId>(rng.below(kNodes - 1));
  net::NodeId slow = victim;
  while (slow == victim) {
    slow = 1 + static_cast<net::NodeId>(rng.below(kNodes - 1));
  }
  // A second victim crashes MID-JOB (committed kLocalDisk map outputs on
  // it are destroyed; kDfs intermediates ride replica failover).
  net::NodeId victim2 = victim;
  while (victim2 == victim || victim2 == slow) {
    victim2 = 1 + static_cast<net::NodeId>(rng.below(kNodes - 1));
  }
  const double slow_factor = 2.0 + rng.uniform() * 4.0;

  detector.start();
  injector.crash_at(victim, 0.1);

  // Randomized engine configuration.
  MrConfig mcfg;
  mcfg.heartbeat_s = 0.05;
  mcfg.task_startup_s = 0.01;
  mcfg.scheduler = rng.chance(0.5) ? SchedulerKind::kFair : SchedulerKind::kFifo;
  const double slowstarts[] = {0.0, 0.5, 1.0};
  mcfg.reduce_slowstart = slowstarts[rng.below(3)];
  mcfg.speculative_execution = rng.chance(0.5);
  mcfg.speculative_min_runtime_s = 0.05;
  mcfg.speculation_interval_s = 0.1;
  mcfg.fetch_failure_threshold = 2;
  mcfg.fetch_retry_s = 0.1;
  mcfg.liveness = &detector;
  MapReduceCluster mr(sim, net, fs, mcfg);

  // Randomized job mix.
  DistributedGrep grep("needle");
  SlowSort sort_app;
  RandomTextWriter rtw(kBlock * 2);
  const uint32_t num_jobs = 1 + static_cast<uint32_t>(rng.below(2));
  std::vector<JobPlan> plans;
  for (uint32_t j = 0; j < num_jobs; ++j) {
    JobPlan plan;
    const uint64_t pick = rng.below(3);
    plan.kind = pick == 0 ? JobPlan::kGrep
                          : (pick == 1 ? JobPlan::kSort : JobPlan::kRtw);
    plan.reducers = 1 + static_cast<uint32_t>(rng.below(3));
    plan.shared_output = rng.chance(0.5);
    plan.intermediate = rng.chance(0.5) ? IntermediateMode::kDfs
                                        : IntermediateMode::kLocalDisk;
    plan.output_dir = "/out/j" + std::to_string(j);
    if (plan.kind == JobPlan::kRtw) {
      plan.generator_maps = 3 + static_cast<uint32_t>(rng.below(4));
      plan.bytes_per_map = kBlock * 2;
    } else {
      const auto& [path, bytes] = files[rng.below(files.size())];
      plan.input = path;
      plan.input_bytes = bytes;
    }
    plans.push_back(std::move(plan));
  }

  std::vector<JobStats> stats(plans.size());
  auto orchestrate = [](sim::Simulator* s, fault::FailureDetector* det,
                        fault::FaultInjector* inj, net::NodeId slow_node,
                        double factor, net::NodeId midjob_victim,
                        MapReduceCluster* engine,
                        std::vector<JobPlan>* ps, DistributedGrep* g,
                        SlowSort* so, RandomTextWriter* rt,
                        std::vector<JobStats>* out) -> sim::Task<void> {
    // Jobs start only after the crash is detected, so the scheduler's
    // liveness view already knows the victim is dead.
    while (det->dead_nodes().empty()) {
      co_await s->delay(0.2);
    }
    inj->slow_node_at(slow_node, factor, s->now() + 0.2);
    // The second victim dies while the jobs are in flight. With the
    // classic serial phases (slowstart 1.0) the crash is timed into the
    // window where maps have committed but no reduce has fetched yet —
    // committed intermediate outputs die with the node; with overlapped
    // shuffle it lands on running attempts instead (abort + re-fetch).
    const double crash_offset =
        engine->config().reduce_slowstart >= 1.0 ? 0.66 : 0.5;
    inj->crash_at(midjob_victim, s->now() + crash_offset);
    sim::WaitGroup wg(*s);
    wg.add(ps->size());
    for (size_t j = 0; j < ps->size(); ++j) {
      const JobPlan& plan = (*ps)[j];
      JobConfig jc;
      jc.output_dir = plan.output_dir;
      jc.num_reducers = plan.reducers;
      jc.cost_model = true;
      jc.record_read_size = kBlock;
      if (plan.shared_output) {
        jc.output_mode = JobConfig::OutputMode::kSharedAppend;
      }
      jc.intermediate_mode = plan.intermediate;
      if (plan.intermediate == IntermediateMode::kDfs) {
        jc.intermediate_replication = 2;
      }
      switch (plan.kind) {
        case JobPlan::kGrep:
          jc.app = g;
          jc.input_files = {plan.input};
          break;
        case JobPlan::kSort:
          jc.app = so;
          jc.input_files = {plan.input};
          break;
        case JobPlan::kRtw:
          jc.app = rt;
          jc.num_generator_maps = plan.generator_maps;
          break;
      }
      s->spawn(run_into(engine, std::move(jc), &(*out)[j], &wg));
    }
    co_await wg.wait();
    det->stop();
  };
  sim.spawn(orchestrate(&sim, &detector, &injector, slow, slow_factor,
                        victim2, &mr, &plans, &grep, &sort_app, &rtw,
                        &stats));
  sim.run();

  // --- invariants ---
  for (size_t j = 0; j < plans.size(); ++j) {
    const JobPlan& plan = plans[j];
    const JobStats& s = stats[j];
    SCOPED_TRACE("job " + std::to_string(j) + " (" + s.job_name + ")");
    if (plan.kind == JobPlan::kRtw) {
      EXPECT_EQ(s.maps, plan.generator_maps);
      EXPECT_EQ(s.reduces, 0u);
      // Generator output is exact: committed bytes == maps * payload.
      EXPECT_EQ(s.output_bytes, plan.generator_maps * plan.bytes_per_map);
    } else {
      const MapReduceApp& app =
          plan.kind == JobPlan::kGrep
              ? static_cast<const MapReduceApp&>(grep)
              : static_cast<const MapReduceApp&>(sort_app);
      uint64_t want_maps = 0, want_shuffle = 0, want_output = 0;
      expected_cost(plan, app, &want_maps, &want_shuffle, &want_output);
      // All inputs fully planned and read.
      EXPECT_EQ(s.maps, want_maps);
      EXPECT_EQ(s.input_bytes, plan.input_bytes);
      // Output/shuffle bytes match the cost model exactly — losers of
      // speculative races must not double-count.
      EXPECT_EQ(s.shuffle_bytes, want_shuffle);
      EXPECT_EQ(s.output_bytes, want_output);
      EXPECT_EQ(s.reduces, plan.reducers);
    }
    // Shared-output accounting: on BSFS every reduce commits by exactly
    // one concurrent append; on HDFS every reduce falls back to a part
    // file that the serialized concat pass consumes. Exactly one of the
    // two mechanisms fires, exactly reducers times.
    if (plan.shared_output && plan.kind != JobPlan::kRtw) {
      if (use_bsfs) {
        EXPECT_EQ(s.shared_appends, plan.reducers);
        EXPECT_EQ(s.concat_parts, 0u);
        EXPECT_GE(s.shared_append_bytes, s.output_bytes);
      } else {
        EXPECT_EQ(s.concat_parts, plan.reducers);
        EXPECT_EQ(s.shared_appends, 0u);
        EXPECT_EQ(s.concat_bytes, s.output_bytes);
      }
    } else {
      EXPECT_EQ(s.shared_appends, 0u);
      EXPECT_EQ(s.concat_parts, 0u);
    }
    // Intermediate-store accounting: every committed reduce's input came
    // out of the store (re-fetches after a re-execution add, never
    // subtract), and every committed map materialized its partitions at
    // least once. Generator jobs never touch the store.
    if (plan.kind == JobPlan::kRtw) {
      EXPECT_EQ(s.intermediate_bytes_written, 0u);
      EXPECT_EQ(s.intermediate_bytes_read, 0u);
      EXPECT_EQ(s.fetch_failures, 0u);
      EXPECT_EQ(s.maps_reexecuted, 0u);
    } else {
      uint64_t want_maps2 = 0, want_shuffle2 = 0, want_output2 = 0;
      const MapReduceApp& capp =
          plan.kind == JobPlan::kGrep
              ? static_cast<const MapReduceApp&>(grep)
              : static_cast<const MapReduceApp&>(sort_app);
      expected_cost(plan, capp, &want_maps2, &want_shuffle2, &want_output2);
      EXPECT_GE(s.intermediate_bytes_read, s.shuffle_bytes);
      EXPECT_GE(s.intermediate_bytes_written, want_shuffle2);
    }
    // Every committed map has exactly one locality attribution — lost
    // commits revoked theirs, re-executions re-attributed.
    EXPECT_EQ(s.data_local_maps + s.rack_local_maps + s.remote_maps, s.maps);
    // The scheduler never hands tasks to the node the detector saw die.
    ASSERT_FALSE(s.launches.empty());
    for (const auto& l : s.launches) {
      EXPECT_NE(l.node, victim) << "task launched on detected-dead node";
    }
  }

  // On-disk invariants: shared jobs leave ONE shared file holding at least
  // the job's logical output (exactly the appended bytes on BSFS) and no
  // part-r files; nobody leaks _attempts/ temp files.
  struct DirCheck {
    std::vector<std::string> names;
    std::optional<uint64_t> shared_size;
    std::vector<std::string> leftovers;
  };
  std::vector<DirCheck> checks(plans.size());
  auto inspect = [](fs::FileSystem* f, const std::vector<JobPlan>* ps,
                    std::vector<DirCheck>* out) -> sim::Task<void> {
    auto client = f->make_client(0);
    for (size_t j = 0; j < ps->size(); ++j) {
      const std::string& dir = (*ps)[j].output_dir;
      (*out)[j].names = co_await client->list(dir);
      auto st = co_await client->stat(dir + "/output-shared");
      if (st.has_value()) (*out)[j].shared_size = st->size;
      (*out)[j].leftovers = co_await client->list(dir + "/_attempts");
    }
  };
  sim.spawn(inspect(&fs, &plans, &checks));
  sim.run();
  for (size_t j = 0; j < plans.size(); ++j) {
    const JobPlan& plan = plans[j];
    const DirCheck& c = checks[j];
    SCOPED_TRACE("dir check, job " + std::to_string(j));
    EXPECT_TRUE(c.leftovers.empty()) << c.leftovers.size() << " temp leaks";
    if (plan.shared_output && plan.kind != JobPlan::kRtw) {
      ASSERT_TRUE(c.shared_size.has_value());
      if (use_bsfs) {
        EXPECT_EQ(*c.shared_size, stats[j].shared_append_bytes);
      } else {
        EXPECT_EQ(*c.shared_size, stats[j].output_bytes);
      }
      EXPECT_GE(*c.shared_size, stats[j].output_bytes);
      for (const auto& name : c.names) {
        EXPECT_EQ(name.find("part-r-"), std::string::npos)
            << "part file in shared mode: " << name;
      }
    } else {
      EXPECT_FALSE(c.shared_size.has_value());
    }
  }
}

// --- durability spectrum fuzz -------------------------------------------
//
// Property: under a random DurabilityPolicy and a random power-cycle
// schedule, the write-path ack contract holds at both storage sites.
//   * kImmediate never loses an acked record (site accounting agrees);
//   * kBatched loses at most the configured window per power cycle —
//     max_records acked-beyond-sync plus the batch in flight on the disk;
//   * every record either acked or was refused — nobody hangs.
// The client keeps its own ledger of acks and audits survivors end-to-end
// (has_page / has_block after recovery), independent of the sites' loss
// counters.

struct DurabilityPlan {
  DurabilityPolicy policy;
  uint64_t record_bytes = 0;
  uint64_t records = 0;
  std::vector<std::pair<double, double>> cycles;  // (crash at, outage secs)
};

DurabilityPlan random_durability_plan(Rng& rng) {
  DurabilityPlan plan;
  const uint64_t level = rng.below(3);
  const uint64_t max_records = 4 + rng.below(29);
  const double max_delay = 0.002 + rng.uniform() * 0.02;
  plan.policy = level == 0   ? DurabilityPolicy::none()
                : level == 1 ? DurabilityPolicy::batched(max_records, max_delay)
                             : DurabilityPolicy::immediate();
  plan.record_bytes = kBlock * (1 + rng.below(8));
  plan.records = 150 + rng.below(100);
  const int cycles = 1 + static_cast<int>(rng.below(2));
  double at = 0.05 + rng.uniform() * 0.1;
  for (int c = 0; c < cycles; ++c) {
    const double outage = 0.1 + rng.uniform() * 0.3;
    plan.cycles.emplace_back(at, outage);
    at += outage + 0.1 + rng.uniform() * 0.2;
  }
  return plan;
}

sim::Task<void> provider_stream(blob::Provider* p, const DurabilityPlan* plan,
                                std::vector<uint8_t>* acked) {
  for (uint64_t i = 0; i < plan->records; ++i) {
    const bool ok = co_await p->put_page(
        0, blob::PageKey{7, i, 1},
        DataSpec::pattern(i, 0, plan->record_bytes));
    (*acked)[i] = ok ? 1 : 2;
  }
}

sim::Task<void> provider_cycles(sim::Simulator* sim, blob::BlobSeerCluster* b,
                                const DurabilityPlan* plan, net::NodeId node) {
  double now = 0;
  for (const auto& [at, outage] : plan->cycles) {
    co_await sim->delay(at - now);
    b->crash_provider(node, /*wipe_storage=*/false);
    co_await sim->delay(outage);
    b->recover_provider(node);
    now = at + outage;
  }
}

sim::Task<void> datanode_stream(hdfs::DataNode* dn, const DurabilityPlan* plan,
                                std::vector<uint8_t>* acked) {
  for (uint64_t i = 0; i < plan->records; ++i) {
    const bool ok = co_await dn->receive_block(
        0, static_cast<hdfs::BlockId>(i + 1),
        DataSpec::pattern(i, 0, plan->record_bytes));
    (*acked)[i] = ok ? 1 : 2;
  }
}

sim::Task<void> datanode_cycles(sim::Simulator* sim, hdfs::Hdfs* h,
                                const DurabilityPlan* plan, net::NodeId node) {
  double now = 0;
  for (const auto& [at, outage] : plan->cycles) {
    co_await sim->delay(at - now);
    h->crash_datanode(node, /*wipe_storage=*/false);
    co_await sim->delay(outage);
    h->recover_datanode(node);
    now = at + outage;
  }
}

void run_durability_iteration(const std::string& backend, uint64_t seed) {
  SCOPED_TRACE(backend + " durability seed=" + std::to_string(seed));
  Rng rng(seed);
  const DurabilityPlan plan = random_durability_plan(rng);
  SCOPED_TRACE("level=" +
               std::to_string(static_cast<int>(plan.policy.level)) +
               " window=" + std::to_string(plan.policy.max_records) +
               " cycles=" + std::to_string(plan.cycles.size()));

  sim::Simulator sim;
  net::ClusterConfig ncfg;
  ncfg.num_nodes = 4;
  ncfg.nodes_per_rack = 4;
  net::Network net(sim, ncfg);
  const net::NodeId node = 1;
  const bool use_bsfs = backend == "BSFS";

  std::vector<uint8_t> acked(plan.records, 0);
  uint64_t lost_acked_bytes = 0;
  uint64_t site_acked_lost = 0;

  if (use_bsfs) {
    blob::BlobSeerConfig bcfg;
    bcfg.provider.durability = plan.policy;
    blob::BlobSeerCluster blobs(sim, net, std::move(bcfg));
    blob::Provider& p = blobs.provider_on(node);
    sim.spawn(provider_stream(&p, &plan, &acked));
    sim.spawn(provider_cycles(&sim, &blobs, &plan, node));
    sim.run();
    for (uint64_t i = 0; i < plan.records; ++i) {
      if (acked[i] == 1 && !p.has_page(blob::PageKey{7, i, 1})) {
        lost_acked_bytes += plan.record_bytes;
      }
    }
    site_acked_lost = p.acked_bytes_lost_on_power_loss();
  } else {
    hdfs::HdfsConfig hcfg;
    hcfg.namenode.block_size = kBlock;
    hcfg.datanode_durability = plan.policy;
    hdfs::Hdfs h(sim, net, std::move(hcfg));
    hdfs::DataNode& dn = h.datanode_on(node);
    sim.spawn(datanode_stream(&dn, &plan, &acked));
    sim.spawn(datanode_cycles(&sim, &h, &plan, node));
    sim.run();
    for (uint64_t i = 0; i < plan.records; ++i) {
      if (acked[i] == 1 &&
          !dn.has_block(static_cast<hdfs::BlockId>(i + 1))) {
        lost_acked_bytes += plan.record_bytes;
      }
    }
    site_acked_lost = dn.acked_bytes_lost_on_power_loss();
  }

  // Liveness: every record's ack settled one way or the other.
  for (uint64_t i = 0; i < plan.records; ++i) EXPECT_NE(acked[i], 0);

  switch (plan.policy.level) {
    case DurabilityLevel::kImmediate:
      // The strong promise: nothing acked was lost, and the site's own
      // accounting agrees with the client's audit.
      EXPECT_EQ(lost_acked_bytes, 0u);
      EXPECT_EQ(site_acked_lost, 0u);
      break;
    case DurabilityLevel::kBatched: {
      // Bounded loss: per power cycle at most max_records acked records
      // beyond the last sync plus the in-flight batch.
      const uint64_t bound = plan.cycles.size() * 2 * plan.policy.max_records *
                             plan.record_bytes;
      EXPECT_LE(lost_acked_bytes, bound);
      EXPECT_LE(site_acked_lost, bound);
      break;
    }
    case DurabilityLevel::kNone:
      // No promise to audit — but the run must still terminate with every
      // ack settled (checked above) and survivors readable.
      break;
  }
}

TEST(MrFuzz, DurabilitySpectrumHoldsAckContractOnBsfs) {
  for (int i = 0; i < 2 * kIterations; ++i) {
    run_durability_iteration("BSFS", 0xd00dULL + static_cast<uint64_t>(i));
  }
}

TEST(MrFuzz, DurabilitySpectrumHoldsAckContractOnHdfs) {
  for (int i = 0; i < 2 * kIterations; ++i) {
    run_durability_iteration("HDFS", 0xd00dULL + static_cast<uint64_t>(i));
  }
}

TEST(MrFuzz, RandomJobMixesHoldInvariantsOnBsfs) {
  for (int i = 0; i < kIterations; ++i) {
    run_iteration("BSFS", 0xf002ULL + static_cast<uint64_t>(i));
  }
}

TEST(MrFuzz, RandomJobMixesHoldInvariantsOnHdfs) {
  for (int i = 0; i < kIterations; ++i) {
    run_iteration("HDFS", 0xf002ULL + static_cast<uint64_t>(i));
  }
}

}  // namespace
}  // namespace bs::mr
