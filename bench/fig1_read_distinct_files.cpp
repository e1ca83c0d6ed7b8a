// Experiment F1 (paper §IV.B, first microbenchmark):
// "Clients concurrently reading from different files."
//
// N clients each read their own 1 GB file, N swept 1→250. The paper's
// result: BSFS delivers higher per-client throughput than HDFS and
// *sustains* it as N grows, because BlobSeer's load-balanced page
// distribution lets every client stripe its reads over many providers,
// while each HDFS client streams whole blocks from single datanodes and
// random placement creates hotspots.
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
constexpr uint32_t kMaxClients = 250;

// Stages one 1 GB file per client from the master node (which hosts no
// datanode/provider), as an external loader would: HDFS then places blocks
// randomly instead of writer-locally, and reads are genuinely remote.
std::vector<ReadTask> make_tasks(const net::ClusterConfig& cfg, uint32_t n) {
  std::vector<ReadTask> tasks;
  for (uint32_t i = 0; i < n; ++i) {
    ReadTask t;
    t.node = client_node(cfg, i);
    t.path = "/input/file-" + std::to_string(i);
    t.offset = 0;
    t.bytes = kFileBytes;
    tasks.push_back(std::move(t));
  }
  return tasks;
}

template <typename World>
sim::Task<void> stage_all(World& world) {
  std::vector<sim::Task<void>> puts;
  for (uint32_t i = 0; i < kMaxClients; ++i) {
    puts.push_back(put_file(*world.fs, /*node=*/0,
                            "/input/file-" + std::to_string(i), kFileBytes,
                            1000 + i));
  }
  co_await sim::when_all_limited(world.sim, std::move(puts), 16);
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("fig1_read_distinct_files", argc, argv);
  report.say("F1: concurrent reads from DIFFERENT files (1 GB/client)\n");
  report.say("paper shape: BSFS above HDFS and sustained as clients grow\n\n");

  BsfsWorld bsfs_world;
  HdfsWorld hdfs_world;
  bsfs_world.sim.spawn(stage_all(bsfs_world));
  bsfs_world.sim.run();
  hdfs_world.sim.spawn(stage_all(hdfs_world));
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
  return gate_bsfs_above_hdfs(report, sweep);
}
