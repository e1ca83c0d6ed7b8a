// End-to-end determinism: the whole stack (network, storage, MapReduce) is
// driven by one event queue with deterministic tie-breaking, so two
// identical runs must agree bit-for-bit — timings, event counts, data, and
// scheduler decisions. This is what makes every bench number in
// EXPERIMENTS.md exactly reproducible.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "blob/cluster.h"
#include "bsfs/bsfs.h"
#include "common/container.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/wordlist.h"
#include "fault/injector.h"
#include "fault/retention.h"
#include "hdfs/hdfs.h"
#include "mr/app.h"
#include "mr/cluster.h"
#include "mr/shuffle.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/order_audit.h"
#include "sim/simulator.h"

namespace bs {
namespace {

constexpr uint64_t kBlock = 8192;

struct RunResult {
  double end_time = 0;
  uint64_t events = 0;
  uint64_t flows = 0;
  double bytes_moved = 0;
  double job_duration = 0;
  uint64_t data_local = 0;
  std::vector<std::pair<std::string, std::string>> results;
  // Observability plane (obs/): the registry snapshot and trace export are
  // documented byte-deterministic, so they are gated like everything else.
  std::string metrics_snapshot;
  std::string trace_json;
  // Request counts of every metadata-plane service plus the schedule
  // digest (see metadata_plane_requests).
  std::string metadata_plane;

  bool operator==(const RunResult& o) const {
    return end_time == o.end_time && events == o.events && flows == o.flows &&
           bytes_moved == o.bytes_moved && job_duration == o.job_duration &&
           data_local == o.data_local && results == o.results &&
           metrics_snapshot == o.metrics_snapshot &&
           trace_json == o.trace_json && metadata_plane == o.metadata_plane;
  }
};

// Where every metadata request of a run_stack world queued: the NameNode's
// and provider manager's totals, the version manager's and namespace's
// per-shard counts, the DHT's per-node counts and its get/put totals, plus
// the schedule digest that says the events around them did not move.
std::string metadata_plane_requests(sim::Simulator& sim,
                                    blob::BlobSeerCluster& blobs,
                                    bsfs::NamespaceManager& ns,
                                    hdfs::Hdfs& hdfs_fs) {
  std::string out;
  for (const char* gauge :
       {"sim/order_digest_hi", "sim/order_digest_lo", "sim/order_events"}) {
    out += std::string(gauge) + "=" +
           obs::format_metric_value(sim.metrics().gauge(gauge).value()) + "\n";
  }
  auto per_node = [&out](const char* name,
                         const std::map<net::NodeId, uint64_t>& counts) {
    out += name;
    for (const auto& [node, n] : counts) {
      out += " " + std::to_string(node) + ":" + std::to_string(n);
    }
    out += "\n";
  };
  out += "namenode=" +
         std::to_string(hdfs_fs.namenode().total_requests()) + "\n";
  out += "provider_manager=" +
         std::to_string(blobs.provider_manager().total_requests()) + "\n";
  per_node("version_manager", blobs.version_manager().requests_per_shard());
  per_node("namespace", ns.requests_per_shard());
  dht::Dht& dht = blobs.metadata_dht();
  per_node("dht", dht.requests_per_node());
  out += "dht_gets=" + std::to_string(dht.gets()) +
         " dht_puts=" + std::to_string(dht.puts()) + "\n";
  return out;
}

RunResult run_stack(const std::string& backend, bool sharded_metadata = false) {
  sim::Simulator sim;
  // Tracing on for the whole run: recording spans must not perturb the
  // simulation (every timing assertion below would catch it if it did).
  sim.tracer().set_enabled(true);
  // Event-stream audit on: the metrics snapshot then carries the schedule
  // digest (sim/order_digest_*), so RunResult equality asserts the two
  // runs executed the same schedule — not merely converged on the same
  // outputs.
  sim.enable_order_audit();
  net::ClusterConfig ncfg;
  ncfg.num_nodes = 24;
  ncfg.nodes_per_rack = 6;
  net::Network net(sim, ncfg);
  // Sharded-metadata variant (PR 10): version-manager serial points and
  // namespace entries spread over ring shards, with client leases on — the
  // whole control plane must stay exactly as bit-reproducible as the
  // centralized one.
  blob::BlobSeerConfig bscfg;
  bsfs::NamespaceConfig nscfg;
  bsfs::BsfsConfig fscfg{.block_size = kBlock,
                         .page_size = kBlock / 8,
                         .replication = 1,
                         .enable_cache = true};
  if (sharded_metadata) {
    bscfg.version_manager_nodes = {2, 5, 9, 13};
    nscfg.shard_nodes = {3, 7, 11, 14};
    fscfg.lease_ttl_s = 0.25;
  }
  blob::BlobSeerCluster blobs(sim, net, bscfg);
  bsfs::NamespaceManager ns(sim, net, nscfg);
  bsfs::Bsfs bsfs_fs(sim, net, blobs, ns, fscfg);
  hdfs::Hdfs hdfs_fs(sim, net,
                     hdfs::HdfsConfig{.namenode = {.node = 0,
                                                   .service_time_s = 150e-6,
                                                   .block_size = kBlock,
                                                   .replication = 1,
                                                   .placement_seed = 7},
                                      .datanode_ram = 1u << 30,
                                      .stream_efficiency = 0.92});
  fs::FileSystem& fs = backend == "BSFS"
                           ? static_cast<fs::FileSystem&>(bsfs_fs)
                           : static_cast<fs::FileSystem&>(hdfs_fs);

  // Stage a corpus and run a WordCount with failure injection enabled —
  // retries and all, the outcome must still be deterministic.
  Rng rng(404);
  const std::string corpus = random_text(rng, kBlock * 6);
  auto stage = [](fs::FileSystem* f, std::string text) -> sim::Task<void> {
    auto client = f->make_client(1);
    auto writer = co_await client->create("/in");
    co_await writer->write(DataSpec::from_string(std::move(text)));
    co_await writer->close();
  };
  sim.spawn(stage(&fs, corpus));
  sim.run();

  mr::WordCount app;
  mr::MrConfig mcfg;
  mcfg.heartbeat_s = 0.05;
  mcfg.task_startup_s = 0.01;
  mcfg.task_failure_prob = 0.2;
  mr::MapReduceCluster cluster(sim, net, fs, mcfg);
  mr::JobConfig jc;
  jc.input_files = {"/in"};
  jc.output_dir = "/out";
  jc.app = &app;
  jc.num_reducers = 3;
  jc.record_read_size = 1024;
  mr::JobStats stats;
  auto run = [](mr::MapReduceCluster* c, mr::JobConfig conf,
                mr::JobStats* out) -> sim::Task<void> {
    *out = co_await c->run_job(std::move(conf));
  };
  sim.spawn(run(&cluster, std::move(jc), &stats));
  sim.run();

  RunResult out;
  out.end_time = sim.now();
  out.events = sim.events_processed();
  out.flows = net.flows_started();
  out.bytes_moved = net.bytes_moved();
  out.job_duration = stats.duration;
  out.data_local = stats.data_local_maps;
  out.results = stats.results;
  out.metrics_snapshot = sim.metrics().text_snapshot();
  out.trace_json = sim.tracer().chrome_json();
  out.metadata_plane = metadata_plane_requests(sim, blobs, ns, hdfs_fs);
  return out;
}

TEST(Determinism, BsfsStackIsBitReproducible) {
  const RunResult a = run_stack("BSFS");
  const RunResult b = run_stack("BSFS");
  EXPECT_TRUE(a == b);
  EXPECT_GT(a.events, 0u);
  EXPECT_FALSE(a.results.empty());
}

TEST(Determinism, HdfsStackIsBitReproducible) {
  const RunResult a = run_stack("HDFS");
  const RunResult b = run_stack("HDFS");
  EXPECT_TRUE(a == b);
}

// Observability plane: the registry and tracer ride the same deterministic
// event loop, so two identical runs must produce byte-identical metric
// snapshots and Chrome-trace exports — on both backends. (The snapshots
// also ride RunResult::operator== above; this test pins the obs-specific
// claims: non-empty, every instrumented subsystem contributed.)
TEST(Determinism, ObservabilitySnapshotsAreBitReproducible) {
  for (const char* backend : {"BSFS", "HDFS"}) {
    const RunResult a = run_stack(backend);
    const RunResult b = run_stack(backend);
    EXPECT_EQ(a.metrics_snapshot, b.metrics_snapshot) << backend;
    EXPECT_EQ(a.trace_json, b.trace_json) << backend;
    EXPECT_FALSE(a.metrics_snapshot.empty());
    for (const char* needle :
         {"net/bytes", "net/rpcs", "mr/jobs_completed",
          "mr/task_launches{kind=map}", "hdfs/namenode_ops{op=create}",
          "blob/vm_requests", "sim/order_digest_lo", "sim/order_ties"}) {
      EXPECT_NE(a.metrics_snapshot.find(needle), std::string::npos)
          << backend << " missing " << needle;
    }
  }
}

// Sharded metadata plane (PR 10): distributing the version manager and
// namespace across ring shards — leases on — must not cost a single bit of
// reproducibility, and the sharded world must agree with the centralized
// one on application output (per-blob chain equality is pinned in
// vm_shard_test).
TEST(Determinism, ShardedMetadataPlaneIsBitReproducible) {
  for (const char* backend : {"BSFS", "HDFS"}) {
    const RunResult a = run_stack(backend, /*sharded_metadata=*/true);
    const RunResult b = run_stack(backend, /*sharded_metadata=*/true);
    EXPECT_TRUE(a == b) << backend;
    EXPECT_GT(a.events, 0u) << backend;
  }
  auto sorted = [](std::vector<std::pair<std::string, std::string>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  const RunResult sharded = run_stack("BSFS", /*sharded_metadata=*/true);
  const RunResult central = run_stack("BSFS");
  EXPECT_EQ(sorted(sharded.results), sorted(central.results));
}

TEST(Determinism, BackendsDifferButAgreeOnResults) {
  // Different timing/event profiles, identical application output.
  RunResult bsfs_run = run_stack("BSFS");
  RunResult hdfs_run = run_stack("HDFS");
  EXPECT_NE(bsfs_run.end_time, hdfs_run.end_time);
  auto sorted = [](std::vector<std::pair<std::string, std::string>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(bsfs_run.results), sorted(hdfs_run.results));
}

// Engine v2: two concurrent jobs under the fair scheduler with slowstart,
// speculative execution, failure injection, AND a slow-node injection all
// active — an identical seed must yield byte-identical JobStats (every
// speculation decision included) across two fresh clusters.
std::string run_engine_v2(const std::string& backend,
                          bool shared_output = false) {
  sim::Simulator sim;
  net::ClusterConfig ncfg;
  ncfg.num_nodes = 20;
  ncfg.nodes_per_rack = 5;
  net::Network net(sim, ncfg);
  blob::BlobSeerCluster blobs(sim, net, {});
  bsfs::NamespaceManager ns(sim, net, {});
  bsfs::Bsfs bsfs_fs(sim, net, blobs, ns,
                     bsfs::BsfsConfig{.block_size = kBlock,
                                      .page_size = kBlock / 8,
                                      .replication = 1,
                                      .enable_cache = true});
  hdfs::Hdfs hdfs_fs(sim, net,
                     hdfs::HdfsConfig{.namenode = {.node = 0,
                                                   .service_time_s = 150e-6,
                                                   .block_size = kBlock,
                                                   .replication = 1,
                                                   .placement_seed = 7},
                                      .datanode_ram = 1u << 30,
                                      .stream_efficiency = 0.92});
  fs::FileSystem& fs = backend == "BSFS"
                           ? static_cast<fs::FileSystem&>(bsfs_fs)
                           : static_cast<fs::FileSystem&>(hdfs_fs);

  Rng rng(505);
  const std::string corpus = random_text(rng, kBlock * 6);
  auto stage = [](fs::FileSystem* f, std::string text) -> sim::Task<void> {
    auto client = f->make_client(1);
    auto writer = co_await client->create("/in");
    co_await writer->write(DataSpec::from_string(std::move(text)));
    co_await writer->close();
  };
  sim.spawn(stage(&fs, corpus));
  sim.run();

  // Throttle one tasktracker 8x shortly after the jobs start.
  auto slow = [](sim::Simulator* s, net::Network* n) -> sim::Task<void> {
    co_await s->delay(0.2);
    n->set_node_perf(3, net::NodePerf{1.0 / 8, 1.0 / 8, 1.0 / 8});
  };
  sim.spawn(slow(&sim, &net));

  mr::WordCount wc;
  mr::SortApp sort_app;
  mr::MrConfig mcfg;
  mcfg.heartbeat_s = 0.05;
  mcfg.task_startup_s = 0.01;
  mcfg.task_failure_prob = 0.1;
  mcfg.scheduler = mr::SchedulerKind::kFair;
  mcfg.reduce_slowstart = 0.5;
  mcfg.speculative_execution = true;
  mcfg.speculative_min_runtime_s = 0.05;
  mcfg.speculation_interval_s = 0.1;
  mr::MapReduceCluster cluster(sim, net, fs, mcfg);

  auto run = [](mr::MapReduceCluster* c, mr::JobConfig conf,
                mr::JobStats* out) -> sim::Task<void> {
    *out = co_await c->run_job(std::move(conf));
  };
  mr::JobConfig jc1;
  jc1.input_files = {"/in"};
  jc1.output_dir = "/out/wc";
  jc1.app = &wc;
  jc1.num_reducers = 3;
  jc1.record_read_size = 1024;
  mr::JobConfig jc2;
  jc2.input_files = {"/in"};
  jc2.output_dir = "/out/sort";
  jc2.app = &sort_app;
  jc2.num_reducers = 2;
  jc2.cost_model = true;
  jc2.record_read_size = 1024;
  if (shared_output) {
    jc1.output_mode = mr::JobConfig::OutputMode::kSharedAppend;
    jc2.output_mode = mr::JobConfig::OutputMode::kSharedAppend;
  }
  mr::JobStats s1, s2;
  sim.spawn(run(&cluster, std::move(jc1), &s1));
  sim.spawn(run(&cluster, std::move(jc2), &s2));
  sim.run();

  char tail[128];
  std::snprintf(tail, sizeof(tail), "end=%a events=%llu flows=%llu moved=%a\n",
                sim.now(),
                static_cast<unsigned long long>(sim.events_processed()),
                static_cast<unsigned long long>(net.flows_started()),
                net.bytes_moved());
  return mr::debug_string(s1) + mr::debug_string(s2) + tail;
}

TEST(Determinism, EngineV2MultiJobSpeculationIsBitReproducible) {
  const std::string a = run_engine_v2("BSFS");
  const std::string b = run_engine_v2("BSFS");
  EXPECT_EQ(a, b);
  // The scenario must actually exercise speculation for the claim to mean
  // anything.
  EXPECT_NE(a.find("spec=1"), std::string::npos);
}

TEST(Determinism, EngineV2HdfsIsBitReproducible) {
  const std::string a = run_engine_v2("HDFS");
  const std::string b = run_engine_v2("HDFS");
  EXPECT_EQ(a, b);
}

// Shared-append output (OutputMode::kSharedAppend) with speculation,
// failure injection, and the slow-node throttle all enabled: the commit
// claim arbitration and the concurrent appends must be as deterministic as
// the rename path — byte-identical JobStats, append counters included.
TEST(Determinism, EngineV2SharedAppendBsfsIsBitReproducible) {
  const std::string a = run_engine_v2("BSFS", /*shared_output=*/true);
  const std::string b = run_engine_v2("BSFS", /*shared_output=*/true);
  EXPECT_EQ(a, b);
  // Every reduce of both jobs (3 + 2) committed by exactly one concurrent
  // append; the fallback never engaged on BSFS.
  EXPECT_NE(a.find("shared_appends=3"), std::string::npos);
  EXPECT_NE(a.find("shared_appends=2"), std::string::npos);
  EXPECT_EQ(a.find("concat_parts=1"), std::string::npos);
  EXPECT_EQ(a.find("concat_parts=2"), std::string::npos);
  EXPECT_EQ(a.find("concat_parts=3"), std::string::npos);
}

TEST(Determinism, EngineV2SharedAppendHdfsIsBitReproducible) {
  const std::string a = run_engine_v2("HDFS", /*shared_output=*/true);
  const std::string b = run_engine_v2("HDFS", /*shared_output=*/true);
  EXPECT_EQ(a, b);
  // HDFS refuses appends: both jobs fell back to parts + serialized concat.
  EXPECT_NE(a.find("concat_parts=3"), std::string::npos);
  EXPECT_NE(a.find("concat_parts=2"), std::string::npos);
  EXPECT_NE(a.find("shared_appends=0"), std::string::npos);
}

// Intermediate-data fault tolerance under a mid-job mapper crash, with
// speculation enabled: the kLocalDisk mode arms the fetch-failure →
// re-execution state machine, the kDfs mode rides DFS replica failover.
// Two identical runs must agree byte-for-byte, JobStats v3 counters
// (fetch_failures, maps_reexecuted, intermediate bytes) included.
class SlowWordCount final : public mr::MapReduceApp {
 public:
  std::string name() const override { return "slow-wordcount"; }
  void map(uint64_t, const std::string& line, mr::Emitter& out) override {
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
              mr::Emitter& out) override {
    uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(v);
    out.emit(key, std::to_string(total));
  }
  double map_rate_bps() const override { return 16e3; }  // long map phase
  double reduce_rate_bps() const override { return 512e3; }
  double map_selectivity() const override { return 1.1; }
  double output_ratio() const override { return 0.05; }
};

std::string run_intermediate_crash(const std::string& backend,
                                   mr::IntermediateMode mode) {
  sim::Simulator sim;
  net::ClusterConfig ncfg;
  ncfg.num_nodes = 20;
  ncfg.nodes_per_rack = 5;
  ncfg.rpc_timeout_s = 0.3;
  net::Network net(sim, ncfg);
  blob::BlobSeerCluster blobs(sim, net, {});
  bsfs::NamespaceManager ns(sim, net, {});
  bsfs::Bsfs bsfs_fs(sim, net, blobs, ns,
                     bsfs::BsfsConfig{.block_size = kBlock,
                                      .page_size = kBlock / 8,
                                      .replication = 2,
                                      .enable_cache = true});
  hdfs::Hdfs hdfs_fs(sim, net,
                     hdfs::HdfsConfig{.namenode = {.node = 0,
                                                   .service_time_s = 150e-6,
                                                   .block_size = kBlock,
                                                   .replication = 2,
                                                   .placement_seed = 7},
                                      .datanode_ram = 1u << 30,
                                      .stream_efficiency = 0.92});
  const bool use_bsfs = backend == "BSFS";
  fs::FileSystem& fs = use_bsfs ? static_cast<fs::FileSystem&>(bsfs_fs)
                                : static_cast<fs::FileSystem&>(hdfs_fs);

  fault::FaultInjector injector(sim, net, {});
  if (use_bsfs) {
    fault::wire_blobseer(injector, blobs);
    blobs.set_liveness(&net.ground_truth());
  } else {
    fault::wire_hdfs(injector, hdfs_fs);
    hdfs_fs.set_liveness(&net.ground_truth());
  }

  Rng rng(606);
  const std::string corpus = random_text(rng, kBlock * 8);
  auto stage = [](fs::FileSystem* f, std::string text) -> sim::Task<void> {
    auto client = f->make_client(1);
    auto writer = co_await client->create("/in");
    co_await writer->write(DataSpec::from_string(std::move(text)));
    co_await writer->close();
  };
  sim.spawn(stage(&fs, corpus));
  sim.run();

  // Node 3 dies (disk wiped) mid-map-phase, after its first-wave maps
  // committed. With 3 tasktrackers its committed outputs matter to every
  // reducer.
  injector.crash_at(3, 0.8);

  SlowWordCount app;
  mr::MrConfig mcfg;
  mcfg.tasktracker_nodes = {1, 2, 3};
  mcfg.heartbeat_s = 0.05;
  mcfg.task_startup_s = 0.01;
  mcfg.speculative_execution = true;
  mcfg.speculative_min_runtime_s = 0.05;
  mcfg.speculation_interval_s = 0.1;
  mcfg.fetch_failure_threshold = 2;
  mcfg.fetch_retry_s = 0.1;
  mr::MapReduceCluster cluster(sim, net, fs, mcfg);
  mr::JobConfig jc;
  jc.input_files = {"/in"};
  jc.output_dir = "/out";
  jc.app = &app;
  jc.num_reducers = 2;
  jc.record_read_size = 512;
  jc.intermediate_mode = mode;
  jc.intermediate_replication =
      mode == mr::IntermediateMode::kDfs ? 2 : 0;
  mr::JobStats stats;
  auto run = [](mr::MapReduceCluster* c, mr::JobConfig conf,
                mr::JobStats* out) -> sim::Task<void> {
    *out = co_await c->run_job(std::move(conf));
  };
  sim.spawn(run(&cluster, std::move(jc), &stats));
  sim.run();

  char tail[128];
  std::snprintf(tail, sizeof(tail), "end=%a events=%llu flows=%llu moved=%a\n",
                sim.now(),
                static_cast<unsigned long long>(sim.events_processed()),
                static_cast<unsigned long long>(net.flows_started()),
                net.bytes_moved());
  return mr::debug_string(stats) + tail;
}

TEST(Determinism, LocalDiskCrashReexecutionIsBitReproducible) {
  const std::string a =
      run_intermediate_crash("BSFS", mr::IntermediateMode::kLocalDisk);
  const std::string b =
      run_intermediate_crash("BSFS", mr::IntermediateMode::kLocalDisk);
  EXPECT_EQ(a, b);
  // The scenario must actually lose intermediate data and re-execute
  // completed maps for the claim to mean anything.
  EXPECT_EQ(a.find("fetch_failures=0\n"), std::string::npos);
  EXPECT_EQ(a.find("maps_reexecuted=0\n"), std::string::npos);
}

TEST(Determinism, DfsIntermediateCrashIsBitReproducible) {
  const std::string a =
      run_intermediate_crash("BSFS", mr::IntermediateMode::kDfs);
  const std::string b =
      run_intermediate_crash("BSFS", mr::IntermediateMode::kDfs);
  EXPECT_EQ(a, b);
  // Replicated DFS intermediates ride out the same crash: no fetch
  // failures, no re-execution — and the intermediate traffic shows up in
  // the v3 byte counters.
  EXPECT_NE(a.find("fetch_failures=0\n"), std::string::npos);
  EXPECT_NE(a.find("maps_reexecuted=0\n"), std::string::npos);
  EXPECT_EQ(a.find("intermediate_bytes_written=0\n"), std::string::npos);
}

TEST(Determinism, HdfsIntermediateCrashIsBitReproducible) {
  for (const auto mode : {mr::IntermediateMode::kLocalDisk,
                          mr::IntermediateMode::kDfs}) {
    const std::string a = run_intermediate_crash("HDFS", mode);
    const std::string b = run_intermediate_crash("HDFS", mode);
    EXPECT_EQ(a, b);
  }
}

// Snapshot-isolated inputs (JobStats v4, mr/dataset.h): a job pins its
// input at submission while a writer keeps appending to the live file —
// on BSFS additionally under a concurrent RetentionService loop pruning
// unpinned history. Two identical runs must agree byte-for-byte, the v4
// counters (input_snapshot_versions, bytes_ingested_during_job) included.
std::string run_snapshot_ingest(const std::string& backend) {
  sim::Simulator sim;
  net::ClusterConfig ncfg;
  ncfg.num_nodes = 20;
  ncfg.nodes_per_rack = 5;
  net::Network net(sim, ncfg);
  blob::BlobSeerCluster blobs(sim, net, {});
  bsfs::NamespaceManager ns(sim, net, {});
  bsfs::Bsfs bsfs_fs(sim, net, blobs, ns,
                     bsfs::BsfsConfig{.block_size = kBlock,
                                      .page_size = kBlock / 8,
                                      .replication = 1,
                                      .enable_cache = true});
  hdfs::Hdfs hdfs_fs(sim, net,
                     hdfs::HdfsConfig{.namenode = {.node = 0,
                                                   .service_time_s = 150e-6,
                                                   .block_size = kBlock,
                                                   .replication = 1,
                                                   .placement_seed = 7},
                                      .datanode_ram = 1u << 30,
                                      .stream_efficiency = 0.92});
  const bool use_bsfs = backend == "BSFS";
  fs::FileSystem& fs = use_bsfs ? static_cast<fs::FileSystem&>(bsfs_fs)
                                : static_cast<fs::FileSystem&>(hdfs_fs);

  Rng rng(707);
  const std::string corpus = random_text(rng, kBlock * 6);
  auto stage = [](fs::FileSystem* f, std::string text) -> sim::Task<void> {
    auto client = f->make_client(1);
    auto writer = co_await client->create("/in");
    co_await writer->write(DataSpec::from_string(std::move(text)));
    co_await writer->close();
  };
  sim.spawn(stage(&fs, corpus));
  sim.run();

  // Continuous ingest during the job (BSFS only — HDFS cannot append;
  // there the run pins a static file and the v4 counters must stay 0).
  bool job_done = false;
  if (use_bsfs) {
    auto appender = [](sim::Simulator* s, fs::FileSystem* f, Rng seed,
                       const bool* done) -> sim::Task<void> {
      auto client = f->make_client(2);
      Rng r = seed;
      while (!*done) {
        co_await s->delay(0.15);
        if (*done) break;
        auto writer = co_await client->append("/in");
        if (writer == nullptr) co_return;
        co_await writer->write(
            DataSpec::from_string(random_sentence(r, 1 + r.below(5))));
        co_await writer->close();
      }
    };
    sim.spawn(appender(&sim, &fs, Rng(808), &job_done));
  }
  fault::RetentionService retention(
      bsfs_fs, fault::RetentionConfig{.node = 0, .period_s = 0.2,
                                      .keep_last = 2});
  if (use_bsfs) retention.start();

  SlowWordCount app;
  mr::MrConfig mcfg;
  mcfg.heartbeat_s = 0.05;
  mcfg.task_startup_s = 0.01;
  mcfg.task_failure_prob = 0.2;  // retried attempts must re-read the pin
  mr::MapReduceCluster cluster(sim, net, fs, mcfg);
  mr::JobConfig jc;
  jc.input_files = {"/in"};
  jc.output_dir = "/out";
  jc.app = &app;
  jc.num_reducers = 2;
  jc.record_read_size = 1024;
  mr::JobStats stats;
  auto run = [](mr::MapReduceCluster* c, mr::JobConfig conf,
                mr::JobStats* out, bool* done) -> sim::Task<void> {
    *out = co_await c->run_job(std::move(conf));
    *done = true;
  };
  sim.spawn(run(&cluster, std::move(jc), &stats, &job_done));
  sim.run_until(60.0);
  retention.stop();
  sim.run();

  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "end=%a events=%llu flows=%llu moved=%a reclaimed=%llu\n",
                sim.now(),
                static_cast<unsigned long long>(sim.events_processed()),
                static_cast<unsigned long long>(net.flows_started()),
                net.bytes_moved(),
                static_cast<unsigned long long>(
                    retention.total().bytes_reclaimed));
  return mr::debug_string(stats) + tail;
}

TEST(Determinism, SnapshotIngestBsfsIsBitReproducible) {
  const std::string a = run_snapshot_ingest("BSFS");
  const std::string b = run_snapshot_ingest("BSFS");
  EXPECT_EQ(a, b);
  // The scenario must actually pin a real version and see ingest run
  // ahead of it, or the v4 gate is vacuous.
  EXPECT_NE(a.find("input_snapshot_versions="), std::string::npos);
  EXPECT_EQ(a.find("input_snapshot_versions=0\n"), std::string::npos);
  EXPECT_EQ(a.find("bytes_ingested_during_job=0\n"), std::string::npos);
}

TEST(Determinism, SnapshotIngestHdfsIsBitReproducible) {
  const std::string a = run_snapshot_ingest("HDFS");
  const std::string b = run_snapshot_ingest("HDFS");
  EXPECT_EQ(a, b);
  // The length-pinning fallback has no real version to record, and the
  // static file never grew.
  EXPECT_NE(a.find("input_snapshot_versions=0\n"), std::string::npos);
  EXPECT_NE(a.find("bytes_ingested_during_job=0\n"), std::string::npos);
}

// Map-only generator jobs (RandomTextWriter): every map writes an
// attempt-private temp file and commits it by rename, the commit path no
// scenario above runs. Failure injection leaves partial temp files behind,
// speculation races backups against maps on a throttled node (losers drop
// their temp file), and the two jobs cover both generator bodies: chunked
// cost-mode writes and one record-mode text write.
std::string run_generator(const std::string& backend) {
  sim::Simulator sim;
  net::ClusterConfig ncfg;
  ncfg.num_nodes = 20;
  ncfg.nodes_per_rack = 5;
  net::Network net(sim, ncfg);
  blob::BlobSeerCluster blobs(sim, net, {});
  bsfs::NamespaceManager ns(sim, net, {});
  bsfs::Bsfs bsfs_fs(sim, net, blobs, ns,
                     bsfs::BsfsConfig{.block_size = kBlock,
                                      .page_size = kBlock / 8,
                                      .replication = 1,
                                      .enable_cache = true});
  hdfs::Hdfs hdfs_fs(sim, net,
                     hdfs::HdfsConfig{.namenode = {.node = 0,
                                                   .service_time_s = 150e-6,
                                                   .block_size = kBlock,
                                                   .replication = 1,
                                                   .placement_seed = 7},
                                      .datanode_ram = 1u << 30,
                                      .stream_efficiency = 0.92});
  fs::FileSystem& fs = backend == "BSFS"
                           ? static_cast<fs::FileSystem&>(bsfs_fs)
                           : static_cast<fs::FileSystem&>(hdfs_fs);

  auto slow = [](sim::Simulator* s, net::Network* n) -> sim::Task<void> {
    co_await s->delay(0.05);
    n->set_node_perf(3, net::NodePerf{1.0 / 16, 1.0 / 16, 1.0 / 16});
  };
  sim.spawn(slow(&sim, &net));

  mr::RandomTextWriter cost_app(kBlock * 128);
  mr::RandomTextWriter text_app(kBlock * 4);
  mr::MrConfig mcfg;
  mcfg.tasktracker_nodes = {1, 2, 3, 4, 5, 6};
  mcfg.heartbeat_s = 0.05;
  mcfg.task_startup_s = 0.01;
  mcfg.task_failure_prob = 0.15;
  mcfg.speculative_execution = true;
  mcfg.speculative_min_runtime_s = 0.05;
  mcfg.speculation_interval_s = 0.1;
  mr::MapReduceCluster cluster(sim, net, fs, mcfg);

  auto run = [](mr::MapReduceCluster* c, mr::JobConfig conf,
                mr::JobStats* out) -> sim::Task<void> {
    *out = co_await c->run_job(std::move(conf));
  };
  mr::JobConfig jc1;
  jc1.output_dir = "/out/cost";
  jc1.app = &cost_app;
  jc1.num_generator_maps = 16;
  jc1.cost_model = true;
  mr::JobConfig jc2;
  jc2.output_dir = "/out/text";
  jc2.app = &text_app;
  jc2.num_generator_maps = 6;
  mr::JobStats s1, s2;
  sim.spawn(run(&cluster, std::move(jc1), &s1));
  sim.spawn(run(&cluster, std::move(jc2), &s2));
  sim.run();

  // What the jobs left behind: committed part files only, no temp file.
  std::vector<std::string> left;
  auto list = [](fs::FileSystem* f,
                 std::vector<std::string>* out) -> sim::Task<void> {
    auto client = f->make_client(1);
    for (const char* dir : {"/out/cost", "/out/text"}) {
      for (std::string& name : co_await client->list(dir)) {
        out->push_back(std::move(name));
      }
    }
  };
  sim.spawn(list(&fs, &left));
  sim.run();

  std::string out = mr::debug_string(s1) + mr::debug_string(s2);
  for (const std::string& name : left) out += "file " + name + "\n";
  char tail[128];
  std::snprintf(tail, sizeof(tail), "end=%a events=%llu flows=%llu moved=%a\n",
                sim.now(),
                static_cast<unsigned long long>(sim.events_processed()),
                static_cast<unsigned long long>(net.flows_started()),
                net.bytes_moved());
  return out + tail;
}

// Sum of one JobStats counter over every job in a runner string.
uint64_t counter_sum(const std::string& s, const std::string& key) {
  const std::string needle = "\n" + key + "=";
  uint64_t total = 0;
  for (size_t at = s.find(needle); at != std::string::npos;
       at = s.find(needle, at + 1)) {
    total += std::stoull(s.substr(at + needle.size()));
  }
  return total;
}

TEST(Determinism, GeneratorCommitsAreBitReproducible) {
  for (const char* backend : {"BSFS", "HDFS"}) {
    const std::string a = run_generator(backend);
    const std::string b = run_generator(backend);
    EXPECT_EQ(a, b) << backend;
    // Failures, backups and killed losers must all occur, or the rename
    // commit's race and cleanup paths go unexercised.
    EXPECT_GT(counter_sum(a, "map_failures"), 0u) << backend;
    EXPECT_GT(counter_sum(a, "speculative_maps"), 0u) << backend;
    EXPECT_GT(counter_sum(a, "killed_attempts"), 0u) << backend;
    EXPECT_EQ(a.find("/_attempts"), std::string::npos) << backend;
  }
}

// Outcome pins for every MapReduce engine scenario in this file: FNV-1a
// (default seed) of the exact string each runner returns, recorded before
// the engine's map and reduce paths were folded into one task lifecycle.
// The engine may be restructured freely while these hold. A change that
// moves a value changed engine behaviour, not just its code: as with
// sim_test's golden schedule digest, it re-pins the value and says why in
// CHANGES.md.
TEST(Determinism, MrEngineOutcomesPinned) {
  using enum mr::IntermediateMode;
  struct Pin {
    const char* name;
    std::string (*run)();
    uint64_t hash;
  };
  const Pin pins[] = {
      {"engine_v2 BSFS parts", [] { return run_engine_v2("BSFS"); },
       0xa3bd8c7b167eb4ecULL},
      {"engine_v2 HDFS parts", [] { return run_engine_v2("HDFS"); },
       0x21da3b3119642e35ULL},
      {"engine_v2 BSFS shared",
       [] { return run_engine_v2("BSFS", /*shared_output=*/true); },
       0x18607df5ab2050ceULL},
      {"engine_v2 HDFS shared",
       [] { return run_engine_v2("HDFS", /*shared_output=*/true); },
       0x4e7526992eb571d8ULL},
      {"crash BSFS local",
       [] { return run_intermediate_crash("BSFS", kLocalDisk); },
       0x5f8e6a2cdd6dccc0ULL},
      {"crash BSFS dfs",
       [] { return run_intermediate_crash("BSFS", kDfs); },
       0xcd5038ee1305e87bULL},
      {"crash HDFS local",
       [] { return run_intermediate_crash("HDFS", kLocalDisk); },
       0x6c49d86a8540d276ULL},
      {"crash HDFS dfs",
       [] { return run_intermediate_crash("HDFS", kDfs); },
       0x2773121feace5de4ULL},
      {"snapshot BSFS", [] { return run_snapshot_ingest("BSFS"); },
       0x92efe72b0c1dac66ULL},
      {"snapshot HDFS", [] { return run_snapshot_ingest("HDFS"); },
       0x24508dee22b6a967ULL},
      {"generator BSFS", [] { return run_generator("BSFS"); },
       0xed82b8b789048469ULL},
      {"generator HDFS", [] { return run_generator("HDFS"); },
       0x1a342fd36e4d9af7ULL},
  };
  for (const Pin& pin : pins) {
    const uint64_t got = fnv1a64(pin.run());
    EXPECT_EQ(got, pin.hash) << pin.name << " got 0x" << std::hex << got;
  }
}

// Metadata-plane pins: FNV-1a (default seed) of metadata_plane_requests()
// for each run_stack configuration, recorded before the NameNode, provider
// manager, version manager, namespace and DHT request paths were folded
// into one request helper. Those services may be restructured freely while
// these hold. The pin covers request counts and the schedule digest, not
// the whole metrics snapshot, so new instruments on the services leave it
// alone. A change that moves a value changed where or when metadata
// requests queue: it re-pins the value and says why in CHANGES.md.
TEST(Determinism, MetadataPlaneRequestsPinned) {
  struct Pin {
    const char* name;
    const char* backend;
    bool sharded_metadata;
    uint64_t hash;
  };
  const Pin pins[] = {
      {"BSFS central", "BSFS", false, 0x65b1ea9f495024fbULL},
      {"BSFS sharded with leases", "BSFS", true,
       0x41dfad7d16c0d529ULL},
      {"HDFS", "HDFS", false, 0x0675cc6e8eaddeeeULL},
  };
  for (const Pin& pin : pins) {
    const RunResult r = run_stack(pin.backend, pin.sharded_metadata);
    const uint64_t got = fnv1a64(r.metadata_plane);
    EXPECT_EQ(got, pin.hash) << pin.name << " got 0x" << std::hex << got
                             << "\n" << r.metadata_plane;
  }
}

// --- flow-solver pins --------------------------------------------------------

// One transfer of a solver scenario: start time, endpoints, size, and its
// own rate cap (0 = only the cluster-wide per-stream cap applies).
struct SolverXfer {
  net::NodeId src = 0;
  net::NodeId dst = 0;
  double bytes = 0;
  double start = 0;
  double cap = 0;
};

struct SolverScenario {
  net::ClusterConfig cfg;
  std::vector<SolverXfer> xfers;
  // Runs beside the transfers (a NIC rescale); may be null.
  sim::Task<void> (*perturb)(sim::Simulator*, net::Network*) = nullptr;
};

sim::Task<void> solver_xfer(sim::Simulator* sim, net::Network* net,
                            SolverXfer x, double* done_at) {
  co_await sim->delay(x.start);
  co_await net->transfer(x.src, x.dst, x.bytes, x.cap);
  *done_at = sim->now();
}

// FNV-1a over the bit pattern of every transfer's completion time (in list
// order), then the solver's counters.
uint64_t solver_outcome_hash(const SolverScenario& sc) {
  sim::Simulator sim;
  net::Network net(sim, sc.cfg);
  std::vector<double> done(sc.xfers.size(), -1);
  for (size_t i = 0; i < sc.xfers.size(); ++i) {
    sim.spawn(solver_xfer(&sim, &net, sc.xfers[i], &done[i]));
  }
  if (sc.perturb) sim.spawn(sc.perturb(&sim, &net));
  sim.run();
  EXPECT_EQ(net.active_flows(), 0u);
  uint64_t h = kFnvOffset;
  for (double t : done) h = fnv1a64_u64(std::bit_cast<uint64_t>(t), h);
  const net::SolverStats s = net.solver_stats();
  for (uint64_t v : {s.class_solves, s.retimes_scheduled, s.retimes_damped,
                     s.path_classes_created,
                     static_cast<uint64_t>(s.active_path_classes)}) {
    h = fnv1a64_u64(v, h);
  }
  return h;
}

net::NodeId other_node(Rng& rng, net::NodeId self, uint32_t nodes) {
  const auto n = static_cast<net::NodeId>(rng.below(nodes - 1));
  return n >= self ? n + 1 : n;
}

// The read_shared shape: a 270-node cluster with the suite's per-stream
// cap; 250 clients each start 4 staggered fetches from seeded sources.
// Many fair-share levels, with capped freezes among them.
SolverScenario read_shared_fill() {
  SolverScenario sc;
  sc.cfg.num_nodes = 270;
  sc.cfg.nodes_per_rack = 30;
  sc.cfg.rack_uplink_bps = 4.0e9;
  sc.cfg.per_stream_cap_bps = 0.65 * sc.cfg.nic_bps;
  Rng rng(2);
  for (net::NodeId client = 1; client <= 250; ++client) {
    const double t0 = rng.uniform() * 0.2;
    for (int k = 0; k < 4; ++k) {
      sc.xfers.push_back({other_node(rng, client, 270), client,
                          static_cast<double>((1 + rng.below(16)) << 20),
                          t0 + 0.01 * k, 0});
    }
  }
  return sc;
}

// Staggered churn over repeated and random pairs with two per-flow cap
// levels below the NIC, so capped and bottleneck freezes interleave.
SolverScenario churn_two_caps() {
  SolverScenario sc;
  sc.cfg.num_nodes = 48;
  sc.cfg.nodes_per_rack = 8;
  sc.cfg.nic_bps = 100e6;
  sc.cfg.rack_uplink_bps = 300e6;
  Rng rng(7);
  for (int i = 0; i < 600; ++i) {
    net::NodeId s, d;
    if (i % 2 == 0) {
      s = static_cast<net::NodeId>(i % 12);
      d = static_cast<net::NodeId>(24 + i % 12);
    } else {
      s = static_cast<net::NodeId>(rng.below(48));
      d = other_node(rng, s, 48);
    }
    const double cap = i % 3 == 0 ? 20e6 : i % 3 == 1 ? 45e6 : 0;
    sc.xfers.push_back({s, d, 1e6 + rng.uniform() * 30e6,
                        rng.uniform() * 3.0, cap});
  }
  return sc;
}

sim::Task<void> rescale_nics(sim::Simulator* sim, net::Network* net) {
  co_await sim->delay(0.3);
  net->set_node_perf(3, {.nic = 0.25});
  co_await sim->delay(0.3);
  net->set_node_perf(7, {.nic = 0.5});
  net->set_node_perf(3, {});
  co_await sim->delay(0.3);
  net->set_node_perf(7, {});
}

// Random transfers in flight while two NICs are slowed and restored.
SolverScenario nic_rescale() {
  SolverScenario sc;
  sc.cfg.num_nodes = 24;
  sc.cfg.nodes_per_rack = 6;
  sc.cfg.per_stream_cap_bps = 0.65 * sc.cfg.nic_bps;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const auto s = static_cast<net::NodeId>(rng.below(24));
    sc.xfers.push_back({s, other_node(rng, s, 24),
                        static_cast<double>((1 + rng.below(24)) << 20),
                        rng.uniform() * 1.2, 0});
  }
  sc.perturb = &rescale_nics;
  return sc;
}

// Bursts of same-size transfers that all start at one instant, so each
// burst is one batched solve and many completions share an instant.
SolverScenario same_instant_bursts() {
  SolverScenario sc;
  sc.cfg.num_nodes = 64;
  sc.cfg.nodes_per_rack = 16;
  sc.cfg.rack_uplink_bps = 6 * sc.cfg.nic_bps;
  Rng rng(5);
  for (int burst = 0; burst < 4; ++burst) {
    for (int i = 0; i < 64; ++i) {
      const auto s = static_cast<net::NodeId>(rng.below(64));
      sc.xfers.push_back({s, other_node(rng, s, 64), 8.0 * (1 << 20),
                          0.25 * burst, i % 4 == 0 ? 40e6 : 0});
    }
  }
  return sc;
}

// A bottleneck test that flips by rounding alone. Class c (one flow, share
// s on its rack uplinks) and class B (kMembers flows) share D's NIC, whose
// capacity is the smallest double above limit * (kMembers + 1). The NIC
// fails the round's test when the round starts, and in exact arithmetic
// it would still fail after c's subtraction; in doubles
// fl(capacity - s) <= fl(limit * kMembers), so B freezes in the same round
// as c. A first round freezes class X (two flows on a narrower share), so
// this is not the solve's first bottleneck round. s is searched for until
// the rounding falls that way.
SolverScenario rounding_flipped_bottleneck() {
  constexpr uint32_t kMembers = 20000;
  SolverScenario sc;
  double s = 1.5e6;
  double nic = 0;
  bool flips = false;
  for (int i = 0; i < 100000 && !flips; ++i) {
    s += 0.37;
    const double limit = s * (1 + 1e-12);
    nic = std::nextafter(limit * (kMembers + 1),
                         std::numeric_limits<double>::infinity());
    flips = nic - s <= limit * kMembers && nic / (kMembers + 1) >= s;
  }
  EXPECT_TRUE(flips);
  // Four racks of two: X runs 4 -> 6, c runs 0 -> 2, B runs 3 -> 2.
  sc.cfg.num_nodes = 8;
  sc.cfg.nodes_per_rack = 2;
  sc.cfg.nic_bps = nic;
  sc.cfg.rack_uplink_bps = s;
  sc.xfers.assign(2, {4, 6, 1e6, 0, 0});
  sc.xfers.push_back({0, 2, 1e6, 0, 0});
  sc.xfers.insert(sc.xfers.end(), kMembers, {3, 2, 1e6, 0, 0});
  return sc;
}

// Flow-solver pins: solver_outcome_hash() of five scenarios that drive
// net::Network directly, recorded before progressive filling stopped
// sweeping every path class on every round. The solver may be restructured
// freely while these hold; a change that moves a value changed some rate,
// not just how it is found: it re-pins the value and says why in
// CHANGES.md.
TEST(Determinism, FlowSolverOutcomesPinned) {
  struct Pin {
    const char* name;
    SolverScenario (*scenario)();
    uint64_t hash;
  };
  const Pin pins[] = {
      {"read_shared fill", &read_shared_fill, 0x0454875c87d2e747ULL},
      {"churn with two caps", &churn_two_caps, 0x2f4275befe3024a1ULL},
      {"NIC rescale", &nic_rescale, 0x0519f525ffc423c8ULL},
      {"same-instant bursts", &same_instant_bursts, 0x210a52a2c2ea45b8ULL},
      {"rounding-flipped bottleneck", &rounding_flipped_bottleneck,
       0x3180934f5ec09154ULL},
  };
  for (const Pin& pin : pins) {
    const uint64_t got = solver_outcome_hash(pin.scenario());
    EXPECT_EQ(got, pin.hash) << pin.name << " got 0x" << std::hex << got;
  }
}

// Group-commit durability (JobStats v6, common/durability.h): a full
// MapReduce run with BOTH storage backends' write sites on the kBatched
// policy — count- and timer-triggered flushes interleaving freely — while
// a storage node power-cycles twice mid-job (unsynced windows destroyed,
// synced data kept, replica failover covering the reads). The flush
// timers, the batch boundaries, the incarnation bumps, and the v6 loss
// accounting must all ride the one deterministic event loop: two identical
// runs agree byte-for-byte on JobStats AND on the obs registry snapshot.
std::string run_group_commit_crash(const std::string& backend) {
  sim::Simulator sim;
  net::ClusterConfig ncfg;
  ncfg.num_nodes = 20;
  ncfg.nodes_per_rack = 5;
  ncfg.rpc_timeout_s = 0.3;
  net::Network net(sim, ncfg);
  const DurabilityPolicy batched = DurabilityPolicy::batched(16, 0.005);
  blob::BlobSeerConfig bcfg;
  bcfg.provider.durability = batched;
  blob::BlobSeerCluster blobs(sim, net, std::move(bcfg));
  bsfs::NamespaceManager ns(sim, net, {});
  bsfs::Bsfs bsfs_fs(sim, net, blobs, ns,
                     bsfs::BsfsConfig{.block_size = kBlock,
                                      .page_size = kBlock / 8,
                                      .replication = 2,
                                      .enable_cache = true});
  hdfs::HdfsConfig hcfg;
  hcfg.namenode = {.node = 0,
                   .service_time_s = 150e-6,
                   .block_size = kBlock,
                   .replication = 2,
                   .placement_seed = 7};
  hcfg.datanode_ram = 1u << 30;
  hcfg.stream_efficiency = 0.92;
  hcfg.datanode_durability = batched;
  hdfs::Hdfs hdfs_fs(sim, net, std::move(hcfg));
  const bool use_bsfs = backend == "BSFS";
  fs::FileSystem& fs = use_bsfs ? static_cast<fs::FileSystem&>(bsfs_fs)
                                : static_cast<fs::FileSystem&>(hdfs_fs);
  if (use_bsfs) {
    blobs.set_liveness(&net.ground_truth());
  } else {
    hdfs_fs.set_liveness(&net.ground_truth());
  }

  Rng rng(909);
  const std::string corpus = random_text(rng, kBlock * 8);
  auto stage = [](fs::FileSystem* f, std::string text) -> sim::Task<void> {
    auto client = f->make_client(1);
    auto writer = co_await client->create("/in");
    co_await writer->write(DataSpec::from_string(std::move(text)));
    co_await writer->close();
  };
  sim.spawn(stage(&fs, corpus));
  sim.run();

  // Node 5 (storage-only; the tasktrackers are 1-3) power-cycles twice
  // while the job runs. wipe_storage=false: this is a power loss, not a
  // disk death — exactly the unsynced batches die.
  auto cycles = [](sim::Simulator* s, blob::BlobSeerCluster* b,
                   hdfs::Hdfs* h, bool bsfs_run) -> sim::Task<void> {
    for (const double at : {0.8, 2.0}) {
      co_await s->delay(at - s->now());
      if (bsfs_run) {
        b->crash_provider(5, /*wipe_storage=*/false);
      } else {
        h->crash_datanode(5, /*wipe_storage=*/false);
      }
      co_await s->delay(0.4);
      if (bsfs_run) {
        b->recover_provider(5);
      } else {
        h->recover_datanode(5);
      }
    }
  };
  sim.spawn(cycles(&sim, &blobs, &hdfs_fs, use_bsfs));

  SlowWordCount app;
  mr::MrConfig mcfg;
  mcfg.tasktracker_nodes = {1, 2, 3};
  mcfg.heartbeat_s = 0.05;
  mcfg.task_startup_s = 0.01;
  mcfg.speculative_execution = true;
  mcfg.speculative_min_runtime_s = 0.05;
  mcfg.speculation_interval_s = 0.1;
  mr::MapReduceCluster cluster(sim, net, fs, mcfg);
  mr::JobConfig jc;
  jc.input_files = {"/in"};
  jc.output_dir = "/out";
  jc.app = &app;
  jc.num_reducers = 2;
  jc.record_read_size = 512;
  mr::JobStats stats;
  auto run = [](mr::MapReduceCluster* c, mr::JobConfig conf,
                mr::JobStats* out) -> sim::Task<void> {
    *out = co_await c->run_job(std::move(conf));
  };
  sim.spawn(run(&cluster, std::move(jc), &stats));
  sim.run();

  char tail[128];
  std::snprintf(tail, sizeof(tail), "end=%a events=%llu flows=%llu moved=%a\n",
                sim.now(),
                static_cast<unsigned long long>(sim.events_processed()),
                static_cast<unsigned long long>(net.flows_started()),
                net.bytes_moved());
  return mr::debug_string(stats) + tail + sim.metrics().text_snapshot();
}

TEST(Determinism, GroupCommitPowerCyclesBsfsAreBitReproducible) {
  const std::string a = run_group_commit_crash("BSFS");
  const std::string b = run_group_commit_crash("BSFS");
  EXPECT_EQ(a, b);
  // The batched write path must actually have run (group-commit batches in
  // the obs snapshot) and the job must have finished with real output.
  EXPECT_NE(a.find("kv/group_commit_batches"), std::string::npos);
  EXPECT_NE(a.find("kv/flush_latency_s"), std::string::npos);
  EXPECT_NE(a.find("bytes_lost_on_power_loss="), std::string::npos);
}

TEST(Determinism, GroupCommitPowerCyclesHdfsAreBitReproducible) {
  const std::string a = run_group_commit_crash("HDFS");
  const std::string b = run_group_commit_crash("HDFS");
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("kv/group_commit_batches"), std::string::npos);
}

// Hash-order scrambling (common/container.h): every bs::unordered_* hasher
// mixes the process hash seed into its buckets, so re-running the stack
// under distinct seeds perturbs every unordered iteration order in the
// system. Outcomes — JobStats, obs snapshots (order-audit schedule digest
// included), traces, placement — must be a pure function of the scenario,
// not of bucket order; any leak diverges one of these comparisons.
// The CMake-registered determinism_hash_seed_<n> ctest variants rerun the
// stack cases under distinct BS_HASH_SEED environments on top of this
// in-process sweep.
TEST(Determinism, HashSeedScramblingDoesNotChangeOutcomes) {
  const uint64_t saved = set_hash_seed(kDefaultHashSeed);
  const RunResult bsfs_base = run_stack("BSFS");
  const RunResult hdfs_base = run_stack("HDFS");
  const std::string engine_base = run_engine_v2("BSFS");
  for (const uint64_t seed :
       {0x9e3779b97f4a7c15ULL, 0xdeadbeefcafef00dULL, 0x12345ULL}) {
    set_hash_seed(seed);
    EXPECT_TRUE(run_stack("BSFS") == bsfs_base) << "seed " << seed;
    EXPECT_TRUE(run_stack("HDFS") == hdfs_base) << "seed " << seed;
    EXPECT_EQ(run_engine_v2("BSFS"), engine_base) << "seed " << seed;
  }
  set_hash_seed(saved);
}

TEST(Determinism, BlobWritesProduceIdenticalPlacement) {
  auto run_once = [] {
    sim::Simulator sim;
    net::ClusterConfig ncfg;
    ncfg.num_nodes = 16;
    ncfg.nodes_per_rack = 4;
    net::Network net(sim, ncfg);
    blob::BlobSeerCluster cluster(sim, net, {});
    auto client = cluster.make_client(2);
    auto proc = [](blob::BlobClient& c) -> sim::Task<void> {
      auto desc = co_await c.create(256);
      for (int i = 0; i < 8; ++i) {
        co_await c.append(desc.id, DataSpec::pattern(i, 0, 256 * 3));
      }
    };
    sim.spawn(proc(*client));
    sim.run();
    // Serialize the placement decision trail (sorted by node id).
    return cluster.provider_manager().load_sorted();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace bs
