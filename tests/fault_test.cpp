// Storage fault-tolerance subsystem tests: failure injection, heartbeat
// detection, degraded reads through replica failover, and re-replication
// repair — for both the BlobSeer core and the HDFS baseline.
//
// The acceptance scenario (ISSUE 1): with replication=3 and 10% of the
// providers crashed mid-workload, every read of a previously published
// version still succeeds, and the repair service restores the full
// replication degree. Two runs with the same seeds stay byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include <map>
#include <sstream>

#include "blob/cluster.h"
#include "blob/metadata.h"
#include "bsfs/bsfs.h"
#include "common/wordlist.h"
#include "fault/detector.h"
#include "fault/injector.h"
#include "fault/repair.h"
#include "fault/retention.h"
#include "hdfs/hdfs.h"
#include "mr/app.h"
#include "mr/cluster.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace bs::fault {
namespace {

constexpr uint64_t kPage = 64;
constexpr uint64_t kBigPage = 64 * 1024;

net::ClusterConfig test_net(uint32_t nodes = 20) {
  net::ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.nodes_per_rack = 5;
  cfg.rpc_timeout_s = 0.5;
  return cfg;
}

struct FaultWorld {
  sim::Simulator sim;
  net::Network net;
  blob::BlobSeerCluster cluster;
  FaultInjector injector;
  FailureDetector detector;

  explicit FaultWorld(net::ClusterConfig ncfg = test_net(),
                      blob::BlobSeerConfig bcfg = {},
                      FaultInjectorConfig icfg = {},
                      FailureDetectorConfig dcfg = detector_cfg())
      : net(sim, ncfg), cluster(sim, net, std::move(bcfg)),
        injector(sim, net, icfg),
        detector(sim, net, storage_nodes(ncfg), dcfg) {
    wire_blobseer(injector, cluster);
    cluster.set_liveness(&detector);
  }

  static FailureDetectorConfig detector_cfg() {
    FailureDetectorConfig cfg;
    cfg.heartbeat_s = 0.2;
    cfg.timeout_s = 0.8;
    cfg.sweep_interval_s = 0.1;
    return cfg;
  }

  static std::vector<net::NodeId> storage_nodes(
      const net::ClusterConfig& cfg) {
    std::vector<net::NodeId> nodes;
    for (net::NodeId n = 1; n < cfg.num_nodes; ++n) nodes.push_back(n);
    return nodes;
  }
};

// Writes `pages` pages of marker data and returns the blob id.
sim::Task<blob::BlobId> stage_blob(blob::BlobClient& c, uint32_t replication,
                                   uint64_t pages, blob::BlobId* out) {
  auto desc = co_await c.create(kPage, replication);
  co_await c.write(desc.id, 0, DataSpec::pattern(42, 0, kPage * pages));
  *out = desc.id;
  co_return desc.id;
}

TEST(Detector, MarksCrashedNodeDeadWithinTimeout) {
  FaultWorld w;
  w.detector.start();
  w.injector.crash_at(5, 1.0);
  double detected_at = -1;
  w.detector.on_death([&](net::NodeId n) {
    if (n == 5 && detected_at < 0) detected_at = w.sim.now();
  });
  w.sim.run_until(10.0);
  w.detector.stop();
  w.sim.run();
  EXPECT_FALSE(w.detector.is_up(5));
  EXPECT_TRUE(w.detector.is_up(6));
  EXPECT_EQ(w.detector.deaths_detected(), 1u);
  // Detection lands after the lease expires but within one timeout + beat
  // + sweep of the crash.
  EXPECT_GT(detected_at, 1.0);
  EXPECT_LT(detected_at, 1.0 + 0.8 + 0.2 + 0.2);
}

TEST(Detector, RecoveryIsDetectedWhenBeatsResume) {
  FaultWorld w;
  w.detector.start();
  w.injector.crash_at(7, 1.0);
  w.injector.recover_at(7, 4.0);
  w.sim.run_until(3.0);
  EXPECT_FALSE(w.detector.is_up(7));
  w.sim.run_until(6.0);
  EXPECT_TRUE(w.detector.is_up(7));
  EXPECT_EQ(w.detector.recoveries_detected(), 1u);
  w.detector.stop();
  w.sim.run();
}

// The acceptance scenario: replication=3, 10% of providers crashed
// mid-workload; all reads of published versions succeed (degraded mode),
// then repair restores the full replication degree.
TEST(FaultRecovery, DegradedReadsSucceedAndRepairRestoresReplication) {
  FaultWorld w;
  auto client = w.cluster.make_client(1);
  blob::BlobId blob = 0;
  constexpr uint64_t kPages = 40;
  auto stage = [](blob::BlobClient& c, blob::BlobId* out) -> sim::Task<void> {
    co_await stage_blob(c, /*replication=*/3, kPages, out);
  };
  w.sim.spawn(stage(*client, &blob));
  w.sim.run();
  ASSERT_NE(blob, 0u);

  // Kill 10% of the 19 storage nodes (2 nodes) while readers are active.
  w.detector.start();
  auto victims = w.injector.crash_fraction_at(
      FaultWorld::storage_nodes(w.net.config()), 0.10, /*t=*/w.sim.now() + 0.2);
  ASSERT_EQ(victims.size(), 2u);

  // Readers hammer the blob through the crash window; every read must
  // come back byte-exact (failover to surviving replicas).
  int read_errors = 0;
  auto reader = [](blob::BlobClient& c, blob::BlobId b,
                   int* errs) -> sim::Task<void> {
    auto want = DataSpec::pattern(42, 0, kPage * kPages);
    for (int round = 0; round < 6; ++round) {
      auto got = co_await c.read(b, blob::kNoVersion, 0, kPage * kPages);
      if (!got.content_equals(want)) ++*errs;
    }
  };
  std::vector<std::unique_ptr<blob::BlobClient>> readers;
  for (net::NodeId n = 1; n <= 4; ++n) {
    readers.push_back(w.cluster.make_client(n));
    w.sim.spawn(reader(*readers.back(), blob, &read_errors));
  }
  w.sim.run_until(30.0);
  EXPECT_EQ(read_errors, 0);
  for (net::NodeId v : victims) EXPECT_FALSE(w.detector.is_up(v));

  // Repair: every leaf back to 3 replicas, all on live providers.
  RepairConfig rcfg;
  rcfg.node = 0;
  RepairService repair(w.cluster, w.detector, rcfg);
  RepairStats stats;
  bool repaired = false;
  auto run_repair = [](RepairService& r, blob::BlobId b, RepairStats* out,
                       bool* done) -> sim::Task<void> {
    *out = co_await r.repair_blob(b);
    *done = true;
  };
  w.sim.spawn(run_repair(repair, blob, &stats, &repaired));
  w.sim.run_until(120.0);
  ASSERT_TRUE(repaired);
  EXPECT_GT(stats.under_replicated, 0u);
  EXPECT_GT(stats.replicas_restored, 0u);
  EXPECT_EQ(stats.unrepairable, 0u);

  // Verify through the layout-exposure primitive: every page has exactly 3
  // distinct providers, none of them a victim, and each one serves the page.
  bool verified = false;
  auto verify = [](FaultWorld& world, blob::BlobClient& c, blob::BlobId b,
                   std::vector<net::NodeId> dead,
                   bool* ok) -> sim::Task<void> {
    auto locs = co_await c.locate(b, blob::kNoVersion, 0, kPage * kPages);
    bool good = locs.size() == kPages;
    for (const auto& loc : locs) {
      good = good && loc.providers.size() == 3;
      std::set<net::NodeId> uniq(loc.providers.begin(), loc.providers.end());
      good = good && uniq.size() == loc.providers.size();
      for (net::NodeId p : loc.providers) {
        good = good && std::find(dead.begin(), dead.end(), p) == dead.end();
        auto page = co_await world.cluster.provider_on(p).get_page(
            c.node(), blob::PageKey{b, loc.index, loc.version});
        good = good && page.has_value();
      }
    }
    *ok = good;
  };
  w.sim.spawn(verify(w, *client, blob, victims, &verified));
  w.sim.run_until(200.0);
  EXPECT_TRUE(verified);
  w.detector.stop();
  w.sim.run();
}

TEST(FaultRecovery, SharedAppendOutputSurvivesCrashAndRepair) {
  // The §V shared-output scenario under faults: several writers append
  // whole blocks to ONE BSFS file concurrently (FsClient::append_shared,
  // the MapReduce kSharedAppend commit primitive) while a provider crashes
  // with a wiped disk mid-workload. The file must stay readable through
  // replica failover, and the repair service must restore the replication
  // degree of every appended page.
  FaultWorld w;
  bsfs::NamespaceManager ns(w.sim, w.net, {});
  const uint64_t kBlockBytes = kPage * 4;
  bsfs::Bsfs fs(w.sim, w.net, w.cluster, ns,
                bsfs::BsfsConfig{.block_size = kBlockBytes, .page_size = kPage,
                                 .replication = 2, .enable_cache = true});
  constexpr int kAppenders = 4;
  constexpr int kRounds = 6;

  auto seed_file = [](fs::FileSystem& f) -> sim::Task<void> {
    auto client = f.make_client(1);
    auto writer = co_await client->create("/job/output-shared");
    co_await writer->close();
  };
  w.sim.spawn(seed_file(fs));
  w.sim.run();

  w.detector.start();
  w.injector.crash_at(/*node=*/7, /*t=*/w.sim.now() + 0.3);

  // Appenders overlap each other AND the crash window: each appends one
  // whole block per round, spaced so rounds straddle the failure.
  auto appender = [](sim::Simulator* s, fs::FileSystem* f, net::NodeId node,
                     uint64_t seed, uint64_t block) -> sim::Task<void> {
    auto client = f->make_client(node);
    for (int round = 0; round < kRounds; ++round) {
      auto writer = co_await client->append_shared("/job/output-shared");
      if (writer == nullptr) co_return;
      co_await writer->write(
          DataSpec::pattern(seed + static_cast<uint64_t>(round), 0, block));
      co_await writer->close();
      co_await s->delay(0.1);
    }
  };
  for (int i = 0; i < kAppenders; ++i) {
    w.sim.spawn(appender(&w.sim, &fs, static_cast<net::NodeId>(2 + i),
                         1000 * (i + 1), kBlockBytes));
  }
  w.sim.run_until(10.0);
  EXPECT_FALSE(w.detector.is_up(7));

  // Degraded read: the whole file comes back (failover to the surviving
  // replica of every page the victim held).
  uint64_t read_bytes = 0;
  auto read_all = [](fs::FileSystem& f, uint64_t* out) -> sim::Task<void> {
    auto client = f.make_client(1);
    auto reader = co_await client->open("/job/output-shared");
    if (reader == nullptr) co_return;
    DataSpec all = co_await reader->read(0, reader->size());
    *out = all.size();
  };
  w.sim.spawn(read_all(fs, &read_bytes));
  w.sim.run_until(20.0);
  EXPECT_EQ(read_bytes, static_cast<uint64_t>(kAppenders * kRounds) * kBlockBytes);

  // Repair restores every appended page to 2 replicas; a second pass
  // verifies nothing is left under-replicated.
  blob::BlobId blob = 0;
  auto resolve = [](bsfs::NamespaceManager& n, blob::BlobId* out)
      -> sim::Task<void> {
    auto entry = co_await n.lookup(0, "/job/output-shared");
    if (entry.has_value()) *out = entry->blob;
  };
  w.sim.spawn(resolve(ns, &blob));
  w.sim.run_until(25.0);
  ASSERT_NE(blob, 0u);

  RepairConfig rcfg;
  rcfg.node = 0;
  RepairService repair(w.cluster, w.detector, rcfg);
  RepairStats first, second;
  bool done = false;
  auto run_repair = [](RepairService& r, blob::BlobId b, RepairStats* a,
                       RepairStats* c, bool* out) -> sim::Task<void> {
    *a = co_await r.repair_blob(b);
    *c = co_await r.repair_blob(b);
    *out = true;
  };
  w.sim.spawn(run_repair(repair, blob, &first, &second, &done));
  w.sim.run_until(120.0);
  ASSERT_TRUE(done);
  EXPECT_GT(first.under_replicated, 0u);
  EXPECT_GT(first.replicas_restored, 0u);
  EXPECT_EQ(first.unrepairable, 0u);
  EXPECT_EQ(second.under_replicated, 0u);
  w.detector.stop();
  w.sim.run();
}

TEST(FaultRecovery, NamespaceRepairLeavesIntermediateFilesAlone) {
  // MapReduce shuffle intermediates (_intermediate/) and attempt temp
  // files (_attempts/) are job-lifetime-only: the namespace-driven repair
  // pass must skip them and spend its bandwidth on persistent data only.
  FaultWorld w;
  bsfs::NamespaceManager ns(w.sim, w.net, {});
  bsfs::Bsfs fs(w.sim, w.net, w.cluster, ns,
                bsfs::BsfsConfig{.block_size = kPage * 4, .page_size = kPage,
                                 .replication = 2, .enable_cache = true});

  auto stage = [](fs::FileSystem& f) -> sim::Task<void> {
    auto client = f.make_client(1);
    for (const char* path :
         {"/data/keep", "/out/_intermediate/m00000-a0-r00000",
          "/out/_attempts/att-j0-r-00000-0"}) {
      auto writer = co_await client->create(path);
      co_await writer->write(DataSpec::pattern(7, 0, kPage * 4));
      co_await writer->close();
    }
  };
  w.sim.spawn(stage(fs));
  w.sim.run();

  // Wipe one replica holder of each file (ground-truth liveness: the test
  // is about what repair chooses to scan, not detection).
  std::vector<net::NodeId> victims;
  auto find_victims = [](fs::FileSystem& f,
                         std::vector<net::NodeId>* out) -> sim::Task<void> {
    auto client = f.make_client(0);
    for (const char* path :
         {"/data/keep", "/out/_intermediate/m00000-a0-r00000"}) {
      auto locs = co_await client->locations(path, 0, kPage * 4);
      if (!locs.empty() && !locs[0].hosts.empty()) {
        out->push_back(locs[0].hosts[0]);
      }
    }
  };
  w.sim.spawn(find_victims(fs, &victims));
  w.sim.run();
  ASSERT_EQ(victims.size(), 2u);
  for (net::NodeId v : victims) {
    w.net.set_node_up(v, false);
    w.cluster.crash_provider(v, /*wipe=*/true);
  }

  RepairConfig rcfg;
  rcfg.node = 0;
  RepairService repair(w.cluster, w.net.ground_truth(), rcfg);
  RepairStats ns_pass;
  RepairStats intermediate_only;
  blob::BlobId intermediate_blob = 0;
  bool done = false;
  auto orchestrate = [](RepairService& r, bsfs::Bsfs& f,
                        bsfs::NamespaceManager& names, RepairStats* walk,
                        RepairStats* direct, blob::BlobId* blob,
                        bool* out) -> sim::Task<void> {
    *walk = co_await r.repair_namespace(f);
    auto entry =
        co_await names.lookup(0, "/out/_intermediate/m00000-a0-r00000");
    if (entry.has_value()) *blob = entry->blob;
    *direct = co_await r.repair_blob(*blob);
    *out = true;
  };
  w.sim.spawn(orchestrate(repair, fs, ns, &ns_pass, &intermediate_only,
                          &intermediate_blob, &done));
  w.sim.run_until(60.0);
  ASSERT_TRUE(done);

  // The walk repaired the persistent file...
  EXPECT_GT(ns_pass.under_replicated, 0u);
  EXPECT_GT(ns_pass.replicas_restored, 0u);
  // ...and never looked at the scratch data: a direct pass over the
  // intermediate file's blob still finds it degraded.
  ASSERT_NE(intermediate_blob, 0u);
  EXPECT_GT(intermediate_only.under_replicated, 0u);
  w.sim.run();
}

TEST(FaultRecovery, PinnedVersionReadsSurviveProviderCrash) {
  // The §V snapshot seam under faults: a job-style consumer pins a
  // version, a writer appends past it, and a provider holding pinned
  // pages crashes. Reads through the pin must keep succeeding byte-exact
  // via replica failover — the pinned version is as crash-tolerant as the
  // live one.
  FaultWorld w;
  bsfs::NamespaceManager ns(w.sim, w.net, {});
  const uint64_t kBlockBytes = kPage * 4;
  bsfs::Bsfs fs(w.sim, w.net, w.cluster, ns,
                bsfs::BsfsConfig{.block_size = kBlockBytes, .page_size = kPage,
                                 .replication = 2, .enable_cache = true});

  std::optional<fs::Snapshot> snap;
  std::vector<fs::BlockLocation> pinned_locs;
  auto stage = [](fs::FileSystem& f, std::optional<fs::Snapshot>* out,
                  std::vector<fs::BlockLocation>* locs) -> sim::Task<void> {
    auto client = f.make_client(1);
    auto writer = co_await client->create("/data/log");
    co_await writer->write(DataSpec::pattern(21, 0, kPage * 8));
    co_await writer->close();
    *out = co_await client->snapshot("/data/log");
    if (!out->has_value()) co_return;
    *locs = co_await client->snapshot_locations(**out, 0, (*out)->size);
    // The dataset keeps growing after the pin.
    auto appender = co_await client->append("/data/log");
    co_await appender->write(DataSpec::pattern(22, 0, kPage * 8));
    co_await appender->close();
  };
  w.sim.spawn(stage(fs, &snap, &pinned_locs));
  w.sim.run();
  ASSERT_TRUE(snap.has_value());
  EXPECT_GT(snap->version, 0u);
  ASSERT_FALSE(pinned_locs.empty());
  ASSERT_FALSE(pinned_locs[0].hosts.empty());

  // Crash a node that serves the pinned version's first block.
  const net::NodeId victim = pinned_locs[0].hosts[0];
  w.detector.start();
  w.injector.crash_at(victim, w.sim.now() + 0.2);
  w.sim.run_until(w.sim.now() + 3.0);  // crash + detection settle
  ASSERT_FALSE(w.detector.is_up(victim));

  bool exact = false;
  auto read_pinned = [](fs::FileSystem& f, const fs::Snapshot& s,
                        bool* ok) -> sim::Task<void> {
    auto client = f.make_client(2);
    auto reader = co_await client->open_snapshot(s);
    if (reader == nullptr || reader->size() != kPage * 8) co_return;
    auto got = co_await reader->read(0, reader->size());
    *ok = got.content_equals(DataSpec::pattern(21, 0, kPage * 8));
  };
  w.sim.spawn(read_pinned(fs, *snap, &exact));
  w.sim.run_until(w.sim.now() + 30.0);
  EXPECT_TRUE(exact);
  w.detector.stop();
  w.sim.run();
}

// A deliberately slow word-count so a retention loop gets many cycles
// inside one job's map phase.
class RetentionWordCount final : public mr::MapReduceApp {
 public:
  std::string name() const override { return "retention-wordcount"; }
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
  double map_rate_bps() const override { return 4e2; }  // ~0.6 s per block
  double reduce_rate_bps() const override { return 64e3; }
  double map_selectivity() const override { return 1.1; }
  double output_ratio() const override { return 0.05; }
};

TEST(FaultRecovery, RetentionCycleNeverPrunesALiveJobPin) {
  // A RetentionService loop with the tightest window (keep only the
  // latest version) runs concurrently with a MapReduce job over a dataset
  // a writer keeps appending to. The job's Dataset pin must hold the
  // watermark back — its pinned version stays readable for the whole run,
  // probed directly at the version manager — and once the job drains and
  // releases the pin, the very same version is reclaimed.
  FaultWorld w;
  bsfs::NamespaceManager ns(w.sim, w.net, {});
  const uint64_t kBlockBytes = kPage * 4;
  bsfs::Bsfs fs(w.sim, w.net, w.cluster, ns,
                bsfs::BsfsConfig{.block_size = kBlockBytes, .page_size = kPage,
                                 .replication = 1, .enable_cache = true});

  Rng rng(61);
  std::string text;
  std::map<std::string, uint64_t> expect;
  while (text.size() < kBlockBytes * 8) {
    std::string line = random_sentence(rng, 1 + rng.below(6));
    std::istringstream is(line);
    std::string word;
    while (is >> word) ++expect[word];
    text += line;
  }
  auto stage = [](fs::FileSystem& f, std::string body) -> sim::Task<void> {
    auto client = f.make_client(0);
    auto writer = co_await client->create("/in");
    co_await writer->write(DataSpec::from_string(std::move(body)));
    co_await writer->close();
  };
  w.sim.spawn(stage(fs, text));
  w.sim.run();

  RetentionService retention(
      fs, RetentionConfig{.node = 0, .period_s = 0.3, .keep_last = 1});
  retention.start();

  // Continuous ingest: unaligned appends, so each one read-modify-writes
  // the short tail page and leaves reclaimable history behind it.
  bool job_done = false;
  auto appender = [](sim::Simulator* s, fs::FileSystem* f,
                     const bool* done) -> sim::Task<void> {
    auto client = f->make_client(3);
    while (!*done) {
      co_await s->delay(0.4);
      auto writer = co_await client->append("/in");
      if (writer == nullptr) co_return;
      co_await writer->write(DataSpec::from_string("ingested words here\n"));
      co_await writer->close();
    }
  };

  RetentionWordCount app;
  mr::MrConfig mcfg;
  mcfg.tasktracker_nodes = {1, 2};
  mcfg.heartbeat_s = 0.05;
  mcfg.task_startup_s = 0.01;
  mr::MapReduceCluster cluster(w.sim, w.net, fs, mcfg);
  mr::JobConfig jc;
  jc.input_files = {"/in"};
  jc.output_dir = "/out";
  jc.app = &app;
  jc.num_reducers = 2;
  jc.record_read_size = kPage;
  mr::JobStats stats;
  auto run = [](mr::MapReduceCluster* c, mr::JobConfig conf, mr::JobStats* out,
                bool* done) -> sim::Task<void> {
    *out = co_await c->run_job(std::move(conf));
    *done = true;
  };

  // Probe: while the job runs, its pinned version must stay available at
  // the version manager, retention cycles notwithstanding.
  blob::Version pinned_version = blob::kNoVersion;
  int pin_violations = 0;
  auto probe = [](sim::Simulator* s, bsfs::Bsfs* f, const bool* done,
                  blob::Version* pinned, int* violations) -> sim::Task<void> {
    auto entry = co_await f->ns().lookup(0, "/in");
    if (!entry.has_value()) co_return;
    while (!*done) {
      co_await s->delay(0.25);
      if (*done) break;
      const auto oldest = f->registry().oldest_pinned("/in");
      if (!oldest.has_value() || *oldest == 0) continue;
      *pinned = static_cast<blob::Version>(*oldest);
      auto info = co_await f->blobs().version_manager().version_info(
          0, entry->blob, *pinned);
      if (!info.has_value()) ++*violations;
    }
  };

  w.sim.spawn(run(&cluster, std::move(jc), &stats, &job_done));
  w.sim.spawn(appender(&w.sim, &fs, &job_done));
  w.sim.spawn(probe(&w.sim, &fs, &job_done, &pinned_version, &pin_violations));
  // The retention loop keeps the event queue alive; bound the run, then
  // stop it and drain.
  w.sim.run_until(30.0);
  ASSERT_TRUE(job_done);
  retention.stop();
  w.sim.run();

  // The pin held: never a cycle where the pinned version was unavailable,
  // and the job's output is exactly the pinned text's word counts.
  EXPECT_EQ(pin_violations, 0);
  ASSERT_NE(pinned_version, blob::kNoVersion);
  EXPECT_GT(retention.total().passes, 3u);  // retention really ran mid-job
  std::map<std::string, uint64_t> got;
  for (const auto& [k, v] : stats.results) got[k] = std::stoull(v);
  EXPECT_EQ(got.count("ingested"), 0u);
  EXPECT_EQ(got, expect);
  EXPECT_GT(stats.bytes_ingested_during_job, 0u);

  // With the job drained (pin released), one more pass reclaims the very
  // version the job was holding.
  RetentionStats final_pass;
  auto sweep = [](RetentionService* r, RetentionStats* out) -> sim::Task<void> {
    *out = co_await r->run_pass();
  };
  w.sim.spawn(sweep(&retention, &final_pass));
  w.sim.run();
  EXPECT_EQ(fs.registry().live_pins(), 0u);
  bool pinned_gone = false;
  auto check = [](bsfs::Bsfs* f, blob::Version v, bool* gone) -> sim::Task<void> {
    auto entry = co_await f->ns().lookup(0, "/in");
    auto info = co_await f->blobs().version_manager().version_info(
        0, entry->blob, v);
    *gone = !info.has_value();
  };
  w.sim.spawn(check(&fs, pinned_version, &pinned_gone));
  w.sim.run();
  EXPECT_TRUE(pinned_gone);
  EXPECT_GT(retention.total().bytes_reclaimed, 0u);
}

TEST(FaultRecovery, WriteSurvivesProviderCrashMidWrite) {
  FaultWorld w;
  auto client = w.cluster.make_client(1);
  w.detector.start();
  // Crash two providers while the write's page transfers are in flight
  // (the 48 MiB of replica traffic takes ~0.5 s of simulated time): the
  // affected replica stores fail and are re-placed; the write still
  // publishes and reads back byte-exact.
  constexpr uint64_t kBigPage = 256 << 10;
  w.injector.crash_at(3, 0.05);
  w.injector.crash_at(9, 0.15);
  bool ok = false;
  auto proc = [](blob::BlobClient& c, bool* out) -> sim::Task<void> {
    auto desc = co_await c.create(kBigPage, /*replication=*/3);
    auto payload = DataSpec::pattern(7, 0, kBigPage * 64);
    const blob::Version v = co_await c.write(desc.id, 0, payload);
    auto back = co_await c.read(desc.id, v, 0, kBigPage * 64);
    *out = back.content_equals(payload);
  };
  w.sim.spawn(proc(*client, &ok));
  w.sim.run_until(60.0);
  EXPECT_TRUE(ok);
  EXPECT_GT(client->write_replica_failures(), 0u);
  w.detector.stop();
  w.sim.run();
}

TEST(FaultRecovery, CorrelatedRackFailureStaysReadable) {
  // Rack-aware placement puts the second replica off the first's rack, so
  // losing an entire rack must leave every page readable at replication=2.
  FaultWorld w;
  auto client = w.cluster.make_client(1);
  blob::BlobId blob = 0;
  auto stage = [](blob::BlobClient& c, blob::BlobId* out) -> sim::Task<void> {
    co_await stage_blob(c, /*replication=*/2, 30, out);
  };
  w.sim.spawn(stage(*client, &blob));
  w.sim.run();

  w.detector.start();
  auto victims = w.injector.crash_rack_at(
      2, FaultWorld::storage_nodes(w.net.config()), w.sim.now() + 0.1);
  ASSERT_EQ(victims.size(), 5u);  // nodes 10..14

  bool ok = false;
  auto reader = [](blob::BlobClient& c, blob::BlobId b,
                   bool* out) -> sim::Task<void> {
    auto want = DataSpec::pattern(42, 0, kPage * 30);
    auto got = co_await c.read(b, blob::kNoVersion, 0, kPage * 30);
    *out = got.content_equals(want);
  };
  w.sim.spawn(reader(*client, blob, &ok));
  w.sim.run_until(60.0);
  EXPECT_TRUE(ok);
  w.detector.stop();
  w.sim.run();
}

TEST(FaultRecovery, PlacementExcludesDetectedDeadNodes) {
  FaultWorld w;
  w.detector.start();
  w.injector.crash_at(2, 0.5);
  w.injector.crash_at(11, 0.5);
  w.sim.run_until(5.0);  // well past detection
  ASSERT_FALSE(w.detector.is_up(2));

  auto client = w.cluster.make_client(1);
  blob::BlobId blob = 0;
  auto stage = [](blob::BlobClient& c, blob::BlobId* out) -> sim::Task<void> {
    co_await stage_blob(c, /*replication=*/3, 32, out);
  };
  w.sim.spawn(stage(*client, &blob));
  w.sim.run_until(30.0);

  bool placed_on_dead = false;
  bool located = false;
  auto check = [](blob::BlobClient& c, blob::BlobId b, bool* dead,
                  bool* done) -> sim::Task<void> {
    auto locs = co_await c.locate(b, blob::kNoVersion, 0, kPage * 32);
    for (const auto& loc : locs) {
      for (net::NodeId p : loc.providers) {
        if (p == 2 || p == 11) *dead = true;
      }
    }
    *done = true;
  };
  w.sim.spawn(check(*client, blob, &placed_on_dead, &located));
  w.sim.run_until(40.0);
  ASSERT_TRUE(located);
  EXPECT_FALSE(placed_on_dead);
  w.detector.stop();
  w.sim.run();
}

TEST(FaultRecovery, DeterministicUnderFaults) {
  // Two identical runs of the full crash→detect→repair pipeline must agree
  // exactly: same victims, same event counts, same finish times.
  auto run_once = [](uint64_t* events, double* t_end, uint64_t* restored,
                     std::vector<net::NodeId>* victims) {
    FaultWorld w;
    auto client = w.cluster.make_client(1);
    blob::BlobId blob = 0;
    auto stage = [](blob::BlobClient& c, blob::BlobId* out) -> sim::Task<void> {
      co_await stage_blob(c, 3, 24, out);
    };
    w.sim.spawn(stage(*client, &blob));
    w.sim.run();
    w.detector.start();
    *victims = w.injector.crash_fraction_at(
        FaultWorld::storage_nodes(w.net.config()), 0.10, w.sim.now() + 0.3);
    RepairService repair(w.cluster, w.detector, RepairConfig{});
    RepairStats stats;
    auto orchestrate = [](FaultWorld& world, RepairService& r,
                          blob::BlobId b, RepairStats* out) -> sim::Task<void> {
      co_await world.sim.delay(3.0);  // crash + detection settle
      *out = co_await r.repair_blob(b);
      world.detector.stop();
    };
    w.sim.spawn(orchestrate(w, repair, blob, &stats));
    w.sim.run();
    *events = w.sim.events_processed();
    *t_end = w.sim.now();
    *restored = stats.replicas_restored;
  };
  uint64_t e1 = 0, e2 = 0, r1 = 0, r2 = 0;
  double t1 = 0, t2 = 0;
  std::vector<net::NodeId> v1, v2;
  run_once(&e1, &t1, &r1, &v1);
  run_once(&e2, &t2, &r2, &v2);
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(r1, r2);
  EXPECT_GT(r1, 0u);
}

TEST(FaultRecovery, HdfsDatanodeDeathFailoverAndReRepair) {
  net::ClusterConfig ncfg = test_net();
  sim::Simulator sim;
  net::Network net(sim, ncfg);
  hdfs::HdfsConfig hcfg;
  hcfg.namenode.node = 0;
  hcfg.namenode.block_size = 4 * kPage;
  hcfg.namenode.replication = 3;
  std::vector<net::NodeId> datanodes = FaultWorld::storage_nodes(ncfg);
  hdfs::Hdfs fs(sim, net, hcfg, datanodes);
  FaultInjector injector(sim, net, FaultInjectorConfig{});
  wire_hdfs(injector, fs);
  FailureDetectorConfig dcfg = FaultWorld::detector_cfg();
  FailureDetector detector(sim, net, datanodes, dcfg);
  fs.set_liveness(&detector);

  // Stage a file of 6 blocks.
  const uint64_t bytes = 6 * hcfg.namenode.block_size;
  auto stage = [](hdfs::Hdfs& f, uint64_t n) -> sim::Task<void> {
    auto client = f.make_client(1);
    auto writer = co_await client->create("/data/f");
    const bool wrote = co_await writer->write(DataSpec::pattern(9, 0, n));
    BS_CHECK(wrote);
    const bool closed = co_await writer->close();
    BS_CHECK(closed);
  };
  sim.spawn(stage(fs, bytes));
  sim.run();

  detector.start();
  auto victims = injector.crash_fraction_at(datanodes, 0.10, sim.now() + 0.2);
  ASSERT_EQ(victims.size(), 2u);

  // Reads fail over to surviving replicas while the nodes are dead.
  bool read_ok = false;
  auto reader = [](hdfs::Hdfs& f, uint64_t n, bool* ok) -> sim::Task<void> {
    auto client = f.make_client(3);
    auto r = co_await client->open("/data/f");
    auto got = co_await r->read(0, n);
    *ok = got.content_equals(DataSpec::pattern(9, 0, n));
  };
  sim.spawn(reader(fs, bytes, &read_ok));
  sim.run_until(30.0);
  EXPECT_TRUE(read_ok);

  // NameNode-driven re-replication restores the degree on live datanodes.
  hdfs::Hdfs::RepairStats stats;
  bool repaired = false;
  auto do_repair = [](hdfs::Hdfs& f, hdfs::Hdfs::RepairStats* out,
                      bool* done) -> sim::Task<void> {
    *out = co_await f.repair_under_replicated(0);
    *done = true;
  };
  sim.spawn(do_repair(fs, &stats, &repaired));
  sim.run_until(200.0);
  ASSERT_TRUE(repaired);
  EXPECT_EQ(stats.unrepairable, 0u);

  bool degree_ok = true;
  auto check = [&] {
    auto still_under = fs.namenode().scan_under_replicated();
    degree_ok = still_under.empty();
  };
  check();
  EXPECT_TRUE(degree_ok);
  detector.stop();
  sim.run();
}

TEST(FaultRecovery, WipedAndRecoveredReplicaIsReCreated) {
  // A provider that crashed with a wiped disk and came back is up but
  // empty: repair must trust block reports (has_page), not liveness, and
  // re-create its lost replicas.
  FaultWorld w;
  auto client = w.cluster.make_client(1);
  blob::BlobId blob = 0;
  auto stage = [](blob::BlobClient& c, blob::BlobId* out) -> sim::Task<void> {
    co_await stage_blob(c, /*replication=*/2, 20, out);
  };
  w.sim.spawn(stage(*client, &blob));
  w.sim.run();

  // 40 replicas over 20 providers: node 4 holds some. Wipe + instant
  // recovery: every node is up again, ground truth and detector agree.
  w.cluster.crash_provider(4, /*wipe_storage=*/true);
  w.cluster.recover_provider(4);

  RepairService repair(w.cluster, w.net.ground_truth(), RepairConfig{});
  RepairStats stats;
  auto run_repair = [](RepairService& r, blob::BlobId b,
                       RepairStats* out) -> sim::Task<void> {
    *out = co_await r.repair_blob(b);
  };
  w.sim.spawn(run_repair(repair, blob, &stats));
  w.sim.run();
  EXPECT_GT(stats.under_replicated, 0u);
  EXPECT_GT(stats.replicas_restored, 0u);
  EXPECT_EQ(stats.unrepairable, 0u);

  // Every leaf's replicas must now actually hold the page.
  bool all_present = false;
  auto verify = [](FaultWorld& world, blob::BlobClient& c, blob::BlobId b,
                   bool* ok) -> sim::Task<void> {
    auto locs = co_await c.locate(b, blob::kNoVersion, 0, kPage * 20);
    bool good = locs.size() == 20;
    for (const auto& loc : locs) {
      good = good && loc.providers.size() == 2;
      for (net::NodeId p : loc.providers) {
        good = good && world.cluster.provider_on(p).has_page(
                           blob::PageKey{b, loc.index, loc.version});
      }
    }
    *ok = good;
  };
  w.sim.spawn(verify(w, *client, blob, &all_present));
  w.sim.run();
  EXPECT_TRUE(all_present);
}

TEST(FaultInjection, InjectedCrashWipesStorage) {
  // Every crash the injector fires is a disk loss, on both back-ends: a
  // node brought back by recover_at is up but holds nothing. A direct
  // crash without the wipe (a power loss) keeps what reached the disk.
  FaultWorld w;  // injector wired to the providers by wire_blobseer
  auto put_pages = [](blob::Provider& p) -> sim::Task<void> {
    for (uint64_t i = 0; i < 3; ++i) {
      const bool ok = co_await p.put_page(0, blob::PageKey{1, i, 1},
                                          DataSpec::pattern(i, 0, kPage));
      BS_CHECK(ok);
    }
    co_await p.drain();  // on disk: only a wipe can lose them now
  };
  w.sim.spawn(put_pages(w.cluster.provider_on(4)));
  w.sim.spawn(put_pages(w.cluster.provider_on(5)));
  w.sim.run();
  ASSERT_EQ(w.cluster.provider_on(4).page_count(), 3u);
  ASSERT_EQ(w.cluster.provider_on(5).page_count(), 3u);
  w.injector.crash_at(4, w.sim.now() + 1.0);
  w.injector.recover_at(4, w.sim.now() + 2.0);
  w.cluster.crash_provider(5, /*wipe_storage=*/false);
  w.sim.run();
  w.cluster.recover_provider(5);
  EXPECT_TRUE(w.net.node_up(4));
  EXPECT_EQ(w.cluster.provider_on(4).page_count(), 0u);
  EXPECT_EQ(w.cluster.provider_on(5).page_count(), 3u);

  sim::Simulator sim;
  net::Network net(sim, test_net());
  hdfs::HdfsConfig hcfg;
  hcfg.namenode.node = 0;
  hdfs::Hdfs fs(sim, net, hcfg, FaultWorld::storage_nodes(test_net()));
  FaultInjector injector(sim, net);
  wire_hdfs(injector, fs);
  auto put_block = [](hdfs::DataNode& dn) -> sim::Task<void> {
    // The default DataNode policy syncs a block before acking it.
    const bool ok =
        co_await dn.receive_block(0, /*id=*/7, DataSpec::pattern(7, 0, kPage));
    BS_CHECK(ok);
  };
  sim.spawn(put_block(fs.datanode_on(4)));
  sim.run();
  ASSERT_TRUE(fs.datanode_on(4).has_block(7));
  injector.crash_at(4, sim.now() + 1.0);
  injector.recover_at(4, sim.now() + 2.0);
  sim.run();
  EXPECT_TRUE(net.node_up(4));
  EXPECT_FALSE(fs.datanode_on(4).has_block(7));
}

TEST(FaultRecovery, RepairOntoARecoveredHolderCountsItsRamOnce) {
  // A provider that crashes without a wipe is dropped from the leaf and
  // recovers still holding the page. A second repair of that page can pick
  // it as the replacement (it is neither a holder nor dead), and the
  // re-stored page must stay resident once.
  sim::Simulator sim;
  net::Network net(sim, test_net());
  blob::BlobSeerConfig bcfg;
  bcfg.provider_nodes = {1, 2, 3};
  blob::BlobSeerCluster cluster(sim, net, bcfg);
  auto client = cluster.make_client(0);
  blob::BlobId blob = 0;
  std::vector<net::NodeId> holders;
  auto stage = [](blob::BlobClient& c, blob::BlobId* out,
                  std::vector<net::NodeId>* held) -> sim::Task<void> {
    auto desc = co_await c.create(kBigPage, /*replication=*/2);
    co_await c.write(desc.id, 0, DataSpec::pattern(42, 0, kBigPage));
    auto locs = co_await c.locate(desc.id, blob::kNoVersion, 0, kBigPage);
    *held = locs.at(0).providers;
    *out = desc.id;
  };
  sim.spawn(stage(*client, &blob, &holders));
  sim.run();
  ASSERT_EQ(holders.size(), 2u);
  const net::NodeId a = holders[0];
  const net::NodeId b = holders[1];

  RepairService repair(cluster, net.ground_truth(), RepairConfig{});
  auto repair_once = [](RepairService& r, blob::BlobId id) -> sim::Task<void> {
    co_await r.repair_blob(id);
  };
  cluster.crash_provider(a);
  sim.spawn(repair_once(repair, blob));
  sim.run();
  cluster.recover_provider(a);
  ASSERT_EQ(cluster.provider_on(a).ram_used(), kBigPage);

  cluster.crash_provider(b);
  sim.spawn(repair_once(repair, blob));
  sim.run();
  EXPECT_TRUE(cluster.provider_on(a).has_page(blob::PageKey{blob, 0, 1}));
  EXPECT_EQ(cluster.provider_on(a).ram_used(), kBigPage);
}

TEST(FaultRecovery, RepairReadsCountAsCacheHitsAndMisses) {
  // A repair copy reads its source through the page cache as a client read
  // does, and is counted with client reads: a cold copy is one miss (and a
  // disk read), a cached copy one hit. Both back-ends.
  sim::Simulator sim;
  net::Network net(sim, test_net());
  blob::ProviderConfig cold_cfg;
  cold_cfg.node = 1;
  cold_cfg.read_cache = false;  // a synced page leaves RAM at once
  blob::ProviderConfig cached_cfg;
  cached_cfg.node = 2;
  blob::ProviderConfig dst_cfg;
  dst_cfg.node = 3;
  blob::Provider cold(sim, net, cold_cfg);
  blob::Provider cached(sim, net, cached_cfg);
  blob::Provider dst(sim, net, dst_cfg);
  auto repair_copy = [](blob::Provider& src, blob::Provider& to,
                        blob::PageKey key, bool* ok) -> sim::Task<void> {
    const bool put =
        co_await src.put_page(0, key, DataSpec::pattern(5, 0, kPage));
    BS_CHECK(put);
    co_await src.drain();
    *ok = co_await src.replicate_to(to, key);
  };
  bool cold_ok = false;
  bool cached_ok = false;
  sim.spawn(repair_copy(cold, dst, blob::PageKey{1, 0, 1}, &cold_ok));
  sim.spawn(repair_copy(cached, dst, blob::PageKey{1, 1, 1}, &cached_ok));
  sim.run();
  EXPECT_TRUE(cold_ok);
  EXPECT_TRUE(cached_ok);
  EXPECT_EQ(cold.cache_misses(), 1u);
  EXPECT_EQ(cold.cache_hits(), 0u);
  EXPECT_EQ(cached.cache_hits(), 1u);
  EXPECT_EQ(cached.cache_misses(), 0u);
  EXPECT_EQ(sim.metrics().counter("blob/cache_misses").value(), 1.0);
  EXPECT_EQ(sim.metrics().counter("blob/cache_hits").value(), 1.0);
  EXPECT_NEAR(net.disk(1).bytes_read(), kPage, 1e-9);
  EXPECT_NEAR(net.disk(2).bytes_read(), 0, 1e-9);

  hdfs::DataNode cold_dn(sim, net, 4, /*ram_bytes=*/0);  // caches nothing
  hdfs::DataNode cached_dn(sim, net, 5);
  hdfs::DataNode dst_dn(sim, net, 6);
  auto block_copy = [](hdfs::DataNode& src, hdfs::DataNode& to,
                       hdfs::BlockId id, bool* ok) -> sim::Task<void> {
    const bool put =
        co_await src.receive_block(0, id, DataSpec::pattern(7, 0, kPage));
    BS_CHECK(put);
    *ok = co_await src.replicate_to(to, id);
  };
  bool cold_dn_ok = false;
  bool cached_dn_ok = false;
  sim.spawn(block_copy(cold_dn, dst_dn, 1, &cold_dn_ok));
  sim.spawn(block_copy(cached_dn, dst_dn, 2, &cached_dn_ok));
  sim.run();
  EXPECT_TRUE(cold_dn_ok);
  EXPECT_TRUE(cached_dn_ok);
  EXPECT_EQ(sim.metrics().counter("hdfs/dn_cache_misses").value(), 1.0);
  EXPECT_EQ(sim.metrics().counter("hdfs/dn_cache_hits").value(), 1.0);
  EXPECT_NEAR(net.disk(4).bytes_read(), kPage, 1e-9);
  EXPECT_NEAR(net.disk(5).bytes_read(), 0, 1e-9);
}

TEST(FaultRecovery, RepairIsIdempotentOnHealthyBlob) {
  FaultWorld w;
  auto client = w.cluster.make_client(1);
  blob::BlobId blob = 0;
  auto stage = [](blob::BlobClient& c, blob::BlobId* out) -> sim::Task<void> {
    co_await stage_blob(c, 3, 16, out);
  };
  w.sim.spawn(stage(*client, &blob));
  w.sim.run();

  RepairService repair(w.cluster, w.net.ground_truth(), RepairConfig{});
  RepairStats stats;
  stats.replicas_restored = 99;
  auto run_repair = [](RepairService& r, blob::BlobId b,
                       RepairStats* out) -> sim::Task<void> {
    *out = co_await r.repair_blob(b);
  };
  w.sim.spawn(run_repair(repair, blob, &stats));
  w.sim.run();
  EXPECT_EQ(stats.under_replicated, 0u);
  EXPECT_EQ(stats.replicas_restored, 0u);
  EXPECT_EQ(stats.bytes_copied, 0u);
}

}  // namespace
}  // namespace bs::fault
