// Experiments T1/T2 (paper §IV.C): real MapReduce applications through the
// Hadoop-style framework, BSFS vs HDFS as the storage back-end.
//
//   RandomTextWriter — map-only job, every map writes 1 GB to its own
//     output file ("concurrent massively parallel writes to different
//     files").
//   DistributedGrep — scans one huge shared input ("concurrent reads from
//     the same huge file").
//
// The paper reports job completion times, with BSFS finishing faster than
// HDFS for both, consistent with the microbenchmarks. That claim is a
// gate: the bench exits nonzero unless BSFS wins both jobs.
#include <cstdio>

#include "bench/harness.h"
#include "mr/app.h"
#include "mr/cluster.h"
#include "sim/parallel.h"

using namespace bs;
using namespace bs::bench;

namespace {

constexpr uint32_t kRtwMaps = 200;          // 200 GB written in total
constexpr uint64_t kRtwBytesPerMap = 1 * kGiB;
constexpr uint64_t kGrepInputBytes = 100ULL * kGiB;

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

mr::JobStats run_rtw(sim::Simulator& sim, net::Network& net,
                     fs::FileSystem& fs) {
  mr::RandomTextWriter app(kRtwBytesPerMap);
  mr::MapReduceCluster cluster(sim, net, fs, mr_config(net.config()));
  mr::JobConfig jc;
  jc.output_dir = "/out/rtw-" + fs.name();
  jc.app = &app;
  jc.num_generator_maps = kRtwMaps;
  jc.cost_model = true;
  mr::JobStats stats;
  sim.spawn(run_one(&cluster, std::move(jc), &stats));
  sim.run();
  return stats;
}

mr::JobStats run_grep(sim::Simulator& sim, net::Network& net,
                      fs::FileSystem& fs, const std::string& input) {
  mr::DistributedGrep app("inventurous");
  mr::MapReduceCluster cluster(sim, net, fs, mr_config(net.config()));
  mr::JobConfig jc;
  jc.input_files = {input};
  jc.output_dir = "/out/grep-" + fs.name();
  jc.app = &app;
  jc.num_reducers = 8;
  jc.cost_model = true;
  jc.record_read_size = kMiB;  // cost mode: record batching at 1 MiB
  mr::JobStats stats;
  sim.spawn(run_one(&cluster, std::move(jc), &stats));
  sim.run();
  return stats;
}

double print_job(BenchReport& report, Table& table, const mr::JobStats& s) {
  table.add_row({s.job_name, s.fs_name, Table::num(s.duration),
                 std::to_string(s.maps), std::to_string(s.reduces),
                 std::to_string(s.data_local_maps), format_bytes(
                     static_cast<double>(s.input_bytes + s.output_bytes))});
  report.metric(s.job_name + "/" + s.fs_name + "/job_time_s", s.duration);
  return s.duration;
}

// The paper's claim for one application: BSFS finishes it faster than
// HDFS. Reports the HDFS/BSFS job-time ratio; returns 1 on a failed gate.
int gate(BenchReport& report, const std::string& app, double bsfs_s,
         double hdfs_s) {
  const double ratio = hdfs_s / bsfs_s;
  report.metric("gate/" + app + "/hdfs_over_bsfs", ratio);
  report.say("%s: HDFS/BSFS job time %.2fx (gate: BSFS faster)\n",
             app.c_str(), ratio);
  if (bsfs_s < hdfs_s) return 0;
  std::fprintf(stderr, "GATE FAIL: %s takes %.2f s on BSFS vs %.2f s on HDFS\n",
               app.c_str(), bsfs_s, hdfs_s);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("table1_mapreduce_apps", argc, argv);
  report.say("T1/T2: MapReduce application job completion time (§IV.C)\n");
  report.say("paper shape: BSFS completes both jobs faster than HDFS\n\n");

  Table table({"application", "backend", "job time (s)", "maps", "reduces",
               "data-local maps", "bytes touched"});

  double rtw_bsfs = 0, rtw_hdfs = 0, grep_bsfs = 0, grep_hdfs = 0;
  {  // RandomTextWriter (write-heavy, map-only)
    BsfsWorld bsfs_world;
    rtw_bsfs = print_job(
        report, table, run_rtw(bsfs_world.sim, bsfs_world.net, *bsfs_world.fs));
    HdfsWorld hdfs_world;
    rtw_hdfs = print_job(
        report, table, run_rtw(hdfs_world.sim, hdfs_world.net, *hdfs_world.fs));
  }
  {  // DistributedGrep (read-heavy, shared input)
    BsfsWorld bsfs_world;
    bsfs_world.sim.spawn(
        bsfs_stage_file(bsfs_world, "/in/huge", kGrepInputBytes, 4242));
    bsfs_world.sim.run();
    grep_bsfs = print_job(report, table,
                          run_grep(bsfs_world.sim, bsfs_world.net,
                                   *bsfs_world.fs, "/in/huge"));
    HdfsWorld hdfs_world;
    hdfs_world.sim.spawn(
        put_file(*hdfs_world.fs, 0, "/in/huge", kGrepInputBytes, 4242));
    hdfs_world.sim.run();
    grep_hdfs = print_job(report, table,
                          run_grep(hdfs_world.sim, hdfs_world.net,
                                   *hdfs_world.fs, "/in/huge"));
  }
  report.table(table);
  report.say("\n");
  const int failures = gate(report, "random-text-writer", rtw_bsfs, rtw_hdfs) +
                       gate(report, "distributed-grep", grep_bsfs, grep_hdfs);
  return failures == 0 ? 0 : 1;
}
