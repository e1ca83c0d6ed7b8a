// Experiment F3 (paper §IV.B, third microbenchmark):
// "Clients concurrently writing to different files" — the Reduce-phase
// access pattern.
//
// N clients (co-located with the storage nodes, as deployed on Grid'5000)
// each write a 1 GB file. The paper's result and mechanism: HDFS always
// writes the first replica locally, pinning each client to its local disk,
// while BlobSeer's provider manager load-balances pages across providers so
// BSFS writes are striped, network-bound, and absorbed by provider RAM
// (write-behind BerkeleyDB persistence).
//
// The shape is a gate: the bench exits nonzero unless BSFS per-client
// throughput is above HDFS at every client count >= 50.
#include <cstdio>

#include "bench/harness.h"
#include "sim/parallel.h"

using namespace bs;
using namespace bs::bench;

namespace {

constexpr uint64_t kFileBytes = 1 * kGiB;

std::vector<WriteTask> make_tasks(const net::ClusterConfig& cfg, uint32_t n,
                                  uint32_t round) {
  std::vector<WriteTask> tasks;
  for (uint32_t i = 0; i < n; ++i) {
    WriteTask t;
    t.node = client_node(cfg, i);
    t.path = "/out/r" + std::to_string(round) + "/file-" + std::to_string(i);
    t.bytes = kFileBytes;
    t.seed = 9000 + round * 1000 + i;
    tasks.push_back(std::move(t));
  }
  return tasks;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("fig3_write_distinct_files", argc, argv);
  report.say("F3: concurrent writes to DIFFERENT files (1 GB/client)\n");
  report.say("paper shape: BSFS above HDFS (striped+buffered vs local disk) "
             "and sustained\n\n");

  BsfsWorld bsfs_world;
  HdfsWorld hdfs_world;

  Table table({"clients", "BSFS MB/s per client", "HDFS MB/s per client",
               "BSFS aggregate MB/s", "HDFS aggregate MB/s"});
  uint32_t round = 0;
  std::vector<SweepPoint> sweep;
  for (uint32_t n : client_sweep()) {
    auto bsfs_res = run_writes(bsfs_world.sim, *bsfs_world.fs,
                               make_tasks(bsfs_world.options.cluster, n, round));
    // Let provider RAM drain to disk between points so later points are not
    // throttled by earlier backlogs.
    bsfs_world.sim.spawn(bsfs_world.blobs->drain_all());
    bsfs_world.sim.run();
    auto hdfs_res = run_writes(hdfs_world.sim, *hdfs_world.fs,
                               make_tasks(hdfs_world.options.cluster, n, round));
    table.add_row({std::to_string(n),
                   Table::num(bsfs_res.per_client_mbps.mean()),
                   Table::num(hdfs_res.per_client_mbps.mean()),
                   Table::num(bsfs_res.aggregate_mbps),
                   Table::num(hdfs_res.aggregate_mbps)});
    const std::string k = "clients=" + std::to_string(n);
    report.metric(k + "/bsfs_mbps_per_client", bsfs_res.per_client_mbps.mean());
    report.metric(k + "/hdfs_mbps_per_client", hdfs_res.per_client_mbps.mean());
    report.metric(k + "/bsfs_aggregate_mbps", bsfs_res.aggregate_mbps);
    report.metric(k + "/hdfs_aggregate_mbps", hdfs_res.aggregate_mbps);
    sweep.push_back(SweepPoint{n, bsfs_res.per_client_mbps.mean(),
                               hdfs_res.per_client_mbps.mean()});
    ++round;
  }
  report.table(table);
  return gate_bsfs_above_hdfs(report, sweep);
}
