// Extension X3: storage fault recovery (the availability scenario the
// paper's replicated page store implies but never measures).
//
// Setup: paper-scale cluster, replication = 3 on both systems, one file
// per client. Mid-workload the fault injector kills 10% of the storage
// nodes (disks wiped, so only re-replication can restore the data). The
// heartbeat failure detector marks them dead; clients keep reading in
// degraded mode by failing over to surviving replicas; then the repair
// service (BSFS) / the NameNode (HDFS) re-replicates every
// under-replicated page/block onto live nodes.
//
// Measured per system:
//   * read availability — fraction of client reads that completed (the
//     claim: 1.0, i.e. no read fails at replication 3 with 10% dead);
//   * per-client read throughput before the crash vs degraded (the dip
//     comes from lost replicas, RPC timeouts before detection, and repair
//     traffic competing for the network);
//   * failure detection latency;
//   * time to full replication and repair bytes moved.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "fault/detector.h"
#include "fault/injector.h"
#include "fault/repair.h"
#include "sim/parallel.h"
#include "sim/sync.h"

using namespace bs;
using namespace bs::bench;

namespace {

constexpr uint32_t kClients = 50;
constexpr uint64_t kFileBytes = 256 * kMiB;
// The killed failure domain: one whole rack (30 of 269 storage nodes,
// ~11%). A correlated rack kill is the scenario rack-aware placement
// guarantees survivable at replication >= 2: both systems keep at least
// one replica of everything outside any single rack, so availability must
// stay 1.0 and nothing is unrepairable. (A *uniform* 10% kill with wiped
// disks can destroy all three replicas of an unlucky page — no placement
// short of copyset-style schemes prevents that.)
constexpr uint32_t kKillRack = 5;
constexpr int kRounds = 5;       // sequential re-reads of each file
constexpr double kKillAt = 3.0;  // seconds after the workload starts

struct RoundSample {
  double start = 0;
  double end = 0;
  double mbps = 0;
};

struct ReadStats {
  uint64_t ok = 0;
  uint64_t total = 0;
  std::vector<RoundSample> rounds;
};

sim::Task<void> read_rounds(sim::Simulator* sim, fs::FileSystem* fs,
                            net::NodeId node, std::string path,
                            ReadStats* stats, sim::WaitGroup* wg) {
  auto client = fs->make_client(node);
  for (int r = 0; r < kRounds; ++r) {
    auto reader = co_await client->open(path);
    BS_CHECK_MSG(reader != nullptr, "bench open failed");
    const double t0 = sim->now();
    uint64_t done = 0;
    while (done < kFileBytes) {
      const uint64_t n = std::min<uint64_t>(kMiB, kFileBytes - done);
      DataSpec chunk = co_await reader->read(done, n);
      BS_CHECK(chunk.size() == n);
      done += n;
    }
    ++stats->total;
    // NB: the client read path is fail-stop — a read whose every replica is
    // gone aborts the binary with a BS_CHECK diagnostic rather than
    // returning an error. So read_availability is 1.0 whenever the bench
    // produces output at all; a lost page shows up as a loud abort (and a
    // missing data point in the trajectory), never as a fraction < 1.
    ++stats->ok;
    stats->rounds.push_back(
        {t0, sim->now(),
         static_cast<double>(kFileBytes) / (sim->now() - t0) / kMiB});
  }
  wg->done();
}

// Splits per-round throughput into before-crash and after-crash means
// (rounds straddling the kill instant count as neither).
void split_rounds(const std::vector<ReadStats>& all, double kill_time,
                  double* pre_mbps, double* post_mbps) {
  double pre = 0, post = 0;
  uint64_t npre = 0, npost = 0;
  for (const auto& st : all) {
    for (const auto& r : st.rounds) {
      if (r.end <= kill_time) {
        pre += r.mbps;
        ++npre;
      } else if (r.start >= kill_time) {
        post += r.mbps;
        ++npost;
      }
    }
  }
  *pre_mbps = npre > 0 ? pre / static_cast<double>(npre) : 0;
  *post_mbps = npost > 0 ? post / static_cast<double>(npost) : 0;
}

struct SystemResult {
  double availability = 0;
  double pre_mbps = 0;
  double degraded_mbps = 0;
  double detection_s = 0;
  double repair_s = 0;
  double repair_mib = 0;
  uint64_t unrepairable = 0;
  uint64_t residual_under_replicated = 0;
};

SystemResult run_bsfs(BenchReport& report) {
  WorldOptions opt;
  opt.bsfs_replication = 3;
  BsfsWorld world(opt);
  const auto storage = storage_nodes(opt.cluster);

  fault::FaultInjector injector(world.sim, world.net);
  fault::wire_blobseer(injector, *world.blobs);
  fault::FailureDetectorConfig dcfg;
  dcfg.node = 0;
  fault::FailureDetector detector(world.sim, world.net, storage, dcfg);
  world.blobs->set_liveness(&detector);

  // Stage one blob-backed file per client.
  {
    auto stage = [](BsfsWorld* w, std::string path,
                    uint64_t seed) -> sim::Task<void> {
      auto bc = w->blobs->make_client(0);
      const auto desc = co_await bc->create(w->options.page_size,
                                            w->options.bsfs_replication);
      co_await bc->write(desc.id, 0, DataSpec::pattern(seed, 0, kFileBytes));
      bool ok = co_await w->ns->add_file(0, path, desc.id,
                                         w->options.block_size);
      BS_CHECK(ok);
      ok = co_await w->ns->finalize(0, path);
      BS_CHECK(ok);
    };
    for (uint32_t i = 0; i < kClients; ++i) {
      world.sim.spawn(stage(&world, "/in/f" + std::to_string(i), 1000 + i));
    }
    world.sim.run();
  }

  detector.start();
  const double t0 = world.sim.now();
  const double kill_time = t0 + kKillAt;
  auto victims = injector.crash_rack_at(kKillRack, storage, kill_time);
  report.say("BSFS: killing rack %u (%zu/%zu storage nodes) at t+%.1fs "
             "(disks wiped)\n",
             kKillRack, victims.size(), storage.size(), kKillAt);

  // Each client reads another client's file (rotated), so reads are remote
  // for both systems — otherwise HDFS serves everything from the writer's
  // local page cache and never touches the network.
  std::vector<ReadStats> stats(kClients);
  sim::WaitGroup readers_done(world.sim);
  readers_done.add(kClients);
  for (uint32_t i = 0; i < kClients; ++i) {
    const uint32_t target = (i + kClients / 2 + 4) % kClients;
    world.sim.spawn(read_rounds(&world.sim, world.fs.get(),
                                client_node(opt.cluster, i),
                                "/in/f" + std::to_string(target), &stats[i],
                                &readers_done));
  }

  SystemResult res;
  fault::RepairStats repair_stats;
  auto orchestrate = [](BsfsWorld* w, fault::FailureDetector* det,
                        const std::vector<net::NodeId>* victims,
                        double kill_time, sim::WaitGroup* readers,
                        SystemResult* out,
                        fault::RepairStats* rstats) -> sim::Task<void> {
    // Wait until every victim is detected dead.
    while (det->dead_nodes().size() < victims->size()) {
      co_await w->sim.delay(0.25);
    }
    out->detection_s = w->sim.now() - kill_time;
    // Re-replicate every file the namespace holds (throttled background
    // copies).
    fault::RepairConfig rcfg;
    rcfg.node = 0;
    rcfg.copy_parallelism = 16;
    fault::RepairService repair(*w->blobs, *det, rcfg);
    *rstats = co_await repair.repair_namespace(*w->fs);
    out->repair_s = rstats->finished_at - kill_time;
    // A second pass must find nothing: full replication restored.
    fault::RepairStats verify = co_await repair.repair_namespace(*w->fs);
    out->residual_under_replicated = verify.under_replicated;
    co_await readers->wait();
    det->stop();
  };
  world.sim.spawn(orchestrate(&world, &detector, &victims, kill_time,
                              &readers_done, &res, &repair_stats));
  world.sim.run();

  uint64_t ok = 0, total = 0;
  for (const auto& st : stats) {
    ok += st.ok;
    total += st.total;
  }
  res.availability = static_cast<double>(ok) / static_cast<double>(total);
  split_rounds(stats, kill_time, &res.pre_mbps, &res.degraded_mbps);
  res.repair_mib =
      static_cast<double>(repair_stats.bytes_copied) / static_cast<double>(kMiB);
  res.unrepairable = repair_stats.unrepairable;
  return res;
}

SystemResult run_hdfs(BenchReport& report) {
  WorldOptions opt;
  opt.hdfs_replication = 3;
  HdfsWorld world(opt);
  const auto storage = storage_nodes(opt.cluster);

  fault::FaultInjector injector(world.sim, world.net);
  fault::wire_hdfs(injector, *world.fs);
  fault::FailureDetectorConfig dcfg;
  dcfg.node = 0;
  fault::FailureDetector detector(world.sim, world.net, storage, dcfg);
  world.fs->set_liveness(&detector);

  for (uint32_t i = 0; i < kClients; ++i) {
    world.sim.spawn(put_file(*world.fs, client_node(opt.cluster, i),
                             "/in/f" + std::to_string(i), kFileBytes,
                             1000 + i));
  }
  world.sim.run();

  detector.start();
  const double t0 = world.sim.now();
  const double kill_time = t0 + kKillAt;
  auto victims = injector.crash_rack_at(kKillRack, storage, kill_time);
  report.say("HDFS: killing rack %u (%zu/%zu datanodes) at t+%.1fs "
             "(disks wiped)\n",
             kKillRack, victims.size(), storage.size(), kKillAt);

  // Each client reads another client's file (rotated), so reads are remote
  // for both systems — otherwise HDFS serves everything from the writer's
  // local page cache and never touches the network.
  std::vector<ReadStats> stats(kClients);
  sim::WaitGroup readers_done(world.sim);
  readers_done.add(kClients);
  for (uint32_t i = 0; i < kClients; ++i) {
    const uint32_t target = (i + kClients / 2 + 4) % kClients;
    world.sim.spawn(read_rounds(&world.sim, world.fs.get(),
                                client_node(opt.cluster, i),
                                "/in/f" + std::to_string(target), &stats[i],
                                &readers_done));
  }

  SystemResult res;
  hdfs::Hdfs::RepairStats repair_stats;
  auto orchestrate = [](HdfsWorld* w, fault::FailureDetector* det,
                        const std::vector<net::NodeId>* victims,
                        double kill_time, sim::WaitGroup* readers,
                        SystemResult* out,
                        hdfs::Hdfs::RepairStats* rstats) -> sim::Task<void> {
    while (det->dead_nodes().size() < victims->size()) {
      co_await w->sim.delay(0.25);
    }
    out->detection_s = w->sim.now() - kill_time;
    *rstats = co_await w->fs->repair_under_replicated(
        0, /*copy_parallelism=*/16);
    out->repair_s = rstats->finished_at - kill_time;
    out->residual_under_replicated =
        w->fs->namenode().scan_under_replicated().size();
    co_await readers->wait();
    det->stop();
  };
  world.sim.spawn(orchestrate(&world, &detector, &victims, kill_time,
                              &readers_done, &res, &repair_stats));
  world.sim.run();

  uint64_t ok = 0, total = 0;
  for (const auto& st : stats) {
    ok += st.ok;
    total += st.total;
  }
  res.availability = static_cast<double>(ok) / static_cast<double>(total);
  split_rounds(stats, kill_time, &res.pre_mbps, &res.degraded_mbps);
  res.repair_mib =
      static_cast<double>(repair_stats.bytes_copied) / static_cast<double>(kMiB);
  res.unrepairable = repair_stats.unrepairable;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("ext3_fault_recovery", argc, argv);
  report.say("X3: fault recovery — kill one rack (~11%% of storage) "
             "mid-workload at replication=3\n(%u clients x %llu MB reads; "
             "wiped disks; heartbeat detection + re-replication)\n\n",
             kClients, static_cast<unsigned long long>(kFileBytes / kMiB));

  SystemResult bsfs = run_bsfs(report);
  SystemResult hdfs = run_hdfs(report);

  Table table({"metric", "BSFS", "HDFS"});
  table.add_row({"read availability", Table::num(bsfs.availability, 3),
                 Table::num(hdfs.availability, 3)});
  table.add_row({"pre-crash MB/s per client", Table::num(bsfs.pre_mbps),
                 Table::num(hdfs.pre_mbps)});
  table.add_row({"degraded MB/s per client", Table::num(bsfs.degraded_mbps),
                 Table::num(hdfs.degraded_mbps)});
  table.add_row({"detection latency (s)", Table::num(bsfs.detection_s, 2),
                 Table::num(hdfs.detection_s, 2)});
  table.add_row({"time to full replication (s)", Table::num(bsfs.repair_s, 2),
                 Table::num(hdfs.repair_s, 2)});
  table.add_row({"repair traffic (MiB)", Table::num(bsfs.repair_mib),
                 Table::num(hdfs.repair_mib)});
  table.add_row({"unrepairable", Table::num(bsfs.unrepairable, 0),
                 Table::num(hdfs.unrepairable, 0)});
  table.add_row({"residual under-replicated",
                 Table::num(bsfs.residual_under_replicated, 0),
                 Table::num(hdfs.residual_under_replicated, 0)});
  report.table(table);
  report.say("\nshape: availability stays 1.0 for both at replication 3;\n"
             "degraded throughput dips (lost replicas + pre-detection\n"
             "timeouts + repair traffic), and repair restores the full\n"
             "replication degree in bounded time\n");

  report.metric("bsfs/read_availability", bsfs.availability);
  report.metric("bsfs/pre_crash_mbps_per_client", bsfs.pre_mbps);
  report.metric("bsfs/degraded_mbps_per_client", bsfs.degraded_mbps);
  report.metric("bsfs/detection_latency_s", bsfs.detection_s);
  report.metric("bsfs/time_to_full_replication_s", bsfs.repair_s);
  report.metric("bsfs/repair_traffic_mib", bsfs.repair_mib);
  report.metric("bsfs/unrepairable", static_cast<double>(bsfs.unrepairable));
  report.metric("bsfs/residual_under_replicated",
                static_cast<double>(bsfs.residual_under_replicated));
  report.metric("hdfs/read_availability", hdfs.availability);
  report.metric("hdfs/pre_crash_mbps_per_client", hdfs.pre_mbps);
  report.metric("hdfs/degraded_mbps_per_client", hdfs.degraded_mbps);
  report.metric("hdfs/detection_latency_s", hdfs.detection_s);
  report.metric("hdfs/time_to_full_replication_s", hdfs.repair_s);
  report.metric("hdfs/repair_traffic_mib", hdfs.repair_mib);
  report.metric("hdfs/unrepairable", static_cast<double>(hdfs.unrepairable));
  report.metric("hdfs/residual_under_replicated",
                static_cast<double>(hdfs.residual_under_replicated));
  return 0;
}
