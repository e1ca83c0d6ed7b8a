// Experiment F2 (paper §IV.B, second microbenchmark):
// "Clients concurrently reading non-overlapping parts of the same huge
// file" — the Map-phase access pattern.
//
// One 250 GB file; client i reads the 1 GB region [i GB, (i+1) GB). Besides
// the data-path effects of F1, this scenario stresses the metadata path:
// every HDFS reader resolves each block at the centralized NameNode, while
// BSFS readers walk the distributed segment tree across the metadata DHT.
//
// The shape is a gate: the bench exits nonzero unless BSFS per-client
// throughput is above HDFS at every client count >= 50.
#include <cstdio>

#include "bench/harness.h"
#include "sim/parallel.h"

using namespace bs;
using namespace bs::bench;

namespace {

constexpr uint64_t kSliceBytes = 1 * kGiB;
constexpr uint32_t kMaxClients = 250;
constexpr uint64_t kFileBytes = kMaxClients * kSliceBytes;
const char* kPath = "/input/huge";

std::vector<ReadTask> make_tasks(const net::ClusterConfig& cfg, uint32_t n) {
  std::vector<ReadTask> tasks;
  for (uint32_t i = 0; i < n; ++i) {
    ReadTask t;
    t.node = client_node(cfg, i);
    t.path = kPath;
    t.offset = static_cast<uint64_t>(i) * kSliceBytes;
    t.bytes = kSliceBytes;
    tasks.push_back(std::move(t));
  }
  return tasks;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("fig2_read_shared_file", argc, argv);
  report.say("F2: concurrent reads of NON-OVERLAPPING parts of one huge file\n");
  report.say("(250 GB file, 1 GB region per client)\n");
  report.say("paper shape: BSFS above HDFS and sustained as clients grow\n\n");

  BsfsWorld bsfs_world;
  HdfsWorld hdfs_world;
  // BSFS: staged as a single blob version (the fast path keeps setup
  // tractable); HDFS: streamed from the master through the normal writer.
  bsfs_world.sim.spawn(
      bsfs_stage_file(bsfs_world, kPath, kFileBytes, /*seed=*/42));
  bsfs_world.sim.run();
  hdfs_world.sim.spawn(put_file(*hdfs_world.fs, 0, kPath, kFileBytes, 42));
  hdfs_world.sim.run();

  Table table({"clients", "BSFS MB/s per client", "HDFS MB/s per client",
               "BSFS aggregate MB/s", "HDFS aggregate MB/s"});
  std::vector<SweepPoint> sweep;
  for (uint32_t n : client_sweep()) {
    auto bsfs_res = run_reads(bsfs_world.sim, *bsfs_world.fs,
                              make_tasks(bsfs_world.options.cluster, n));
    auto hdfs_res = run_reads(hdfs_world.sim, *hdfs_world.fs,
                              make_tasks(hdfs_world.options.cluster, n));
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
  }
  report.table(table);
  report.say("\nmetadata load: BSFS DHT gets=%llu (spread over %zu nodes), "
             "HDFS NameNode requests=%llu (one node)\n",
             static_cast<unsigned long long>(bsfs_world.blobs->metadata_dht().gets()),
             bsfs_world.blobs->metadata_dht().node_count(),
             static_cast<unsigned long long>(
                 hdfs_world.fs->namenode().total_requests()));
  report.metric("bsfs_dht_gets",
                static_cast<double>(bsfs_world.blobs->metadata_dht().gets()));
  report.metric("hdfs_namenode_requests",
                static_cast<double>(hdfs_world.fs->namenode().total_requests()));
  return gate_bsfs_above_hdfs(report, sweep);
}
