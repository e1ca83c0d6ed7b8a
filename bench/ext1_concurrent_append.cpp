// Experiment X1 (paper §V, future work): concurrent appends to ONE file.
//
// BlobSeer serializes concurrent appends through version assignment, so N
// clients can append to the same file — the extension the paper proposes
// for writing all reduce outputs into a single file. We compare:
//   (a) N clients appending 1 GB each to ONE shared BSFS file,
//   (b) N clients writing 1 GB each to N distinct BSFS files (F3 baseline),
//   (c) HDFS: unsupported (append returns failure) — reported as such.
// The claim to validate: (a) scales like (b) — sharing one file costs
// almost nothing because only version assignment is centralized.
//
// The claim is a gate: the bench exits nonzero unless HDFS refuses the
// append and shared/distinct per-client throughput is at least
// kMinSharedOverDistinct at every client count. It reports
// gate/clients=N/shared_over_distinct in --json.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "sim/parallel.h"

using namespace bs;
using namespace bs::bench;

namespace {

constexpr uint64_t kBytesPerClient = 1 * kGiB;
// "Costs almost nothing": the shared file keeps at least this share of
// the distinct-files throughput.
constexpr double kMinSharedOverDistinct = 0.9;

// One point of the sweep: shared/distinct per-client throughput.
struct SharePoint {
  uint32_t clients;
  double ratio;
};

// The §V claim: HDFS refuses the append, and appending to one shared file
// keeps kMinSharedOverDistinct of the distinct-files throughput at every
// client count. Returns the bench's exit code (1 if the claim broke).
int gate(BenchReport& report, bool hdfs_refused,
         const std::vector<SharePoint>& sweep) {
  int failures = 0;
  report.say("\n");
  if (!hdfs_refused) {
    std::fprintf(stderr, "GATE FAIL: HDFS accepted an append\n");
    ++failures;
  }
  for (const SharePoint& p : sweep) {
    report.metric("gate/clients=" + std::to_string(p.clients) +
                      "/shared_over_distinct",
                  p.ratio);
    report.say("%u clients: shared/distinct per-client throughput %.2fx "
               "(gate: at least %.2f)\n",
               p.clients, p.ratio, kMinSharedOverDistinct);
    if (p.ratio >= kMinSharedOverDistinct) continue;
    std::fprintf(stderr,
                 "GATE FAIL: %u clients appending to one file get %.2fx the "
                 "per-client throughput of distinct files\n",
                 p.clients, p.ratio);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("ext1_concurrent_append", argc, argv);
  report.say("X1: concurrent appends to ONE shared file (paper §V extension)\n");
  report.say("claim: appending N clients to one file sustains the same\n");
  report.say("throughput as N clients writing N distinct files\n\n");

  // HDFS check: append is unsupported (paper §II.C).
  bool refused = false;
  {
    HdfsWorld hdfs_world;
    auto probe = [](HdfsWorld* world, bool* out) -> sim::Task<void> {
      co_await put_file(*world->fs, 0, "/shared", kMiB, 1);
      auto client = world->fs->make_client(1);
      auto writer = co_await client->append("/shared");
      *out = writer == nullptr;
    };
    hdfs_world.sim.spawn(probe(&hdfs_world, &refused));
    hdfs_world.sim.run();
    report.say("HDFS: append() -> %s\n\n",
               refused ? "REFUSED (write-once semantics)" : "accepted!?");
  }

  Table table({"clients", "shared-file append MB/s per client",
               "distinct-files write MB/s per client", "shared/distinct"});
  std::vector<SharePoint> sweep;
  for (uint32_t n : client_sweep()) {
    // (a) shared file.
    BsfsWorld shared_world;
    {
      auto seed_file = [](BsfsWorld* world) -> sim::Task<void> {
        // Create an empty file all clients then append to.
        auto client = world->fs->make_client(0);
        auto writer = co_await client->create("/shared");
        co_await writer->write(DataSpec::pattern(7, 0, 64 * kMiB));
        co_await writer->close();
      };
      shared_world.sim.spawn(seed_file(&shared_world));
      shared_world.sim.run();
    }
    std::vector<WriteTask> shared_tasks;
    for (uint32_t i = 0; i < n; ++i) {
      WriteTask t;
      t.node = client_node(shared_world.options.cluster, i);
      t.path = "/shared";
      t.bytes = kBytesPerClient;
      t.seed = 100 + i;
      t.append = true;
      shared_tasks.push_back(std::move(t));
    }
    auto shared_res =
        run_writes(shared_world.sim, *shared_world.fs, shared_tasks);

    // (b) distinct files.
    BsfsWorld distinct_world;
    std::vector<WriteTask> distinct_tasks;
    for (uint32_t i = 0; i < n; ++i) {
      WriteTask t;
      t.node = client_node(distinct_world.options.cluster, i);
      t.path = "/out/file-" + std::to_string(i);
      t.bytes = kBytesPerClient;
      t.seed = 100 + i;
      distinct_tasks.push_back(std::move(t));
    }
    auto distinct_res =
        run_writes(distinct_world.sim, *distinct_world.fs, distinct_tasks);

    const double ratio = shared_res.per_client_mbps.mean() /
                         distinct_res.per_client_mbps.mean();
    table.add_row({std::to_string(n),
                   Table::num(shared_res.per_client_mbps.mean()),
                   Table::num(distinct_res.per_client_mbps.mean()),
                   Table::num(ratio, 2)});
    const std::string k = "clients=" + std::to_string(n);
    report.metric(k + "/shared_append_mbps_per_client",
                  shared_res.per_client_mbps.mean());
    report.metric(k + "/distinct_write_mbps_per_client",
                  distinct_res.per_client_mbps.mean());
    report.metric(k + "/shared_over_distinct", ratio);
    sweep.push_back({n, ratio});
  }
  report.table(table);
  return gate(report, refused, sweep);
}
