// Ablation A2: distributed vs centralized metadata (DESIGN.md §4).
//
// BlobSeer distributes its segment-tree metadata over a DHT of metadata
// providers; the paper contrasts this with HDFS's NameNode, which serves
// every block lookup from one box. We shrink BSFS's metadata DHT from 269
// nodes down to ONE and re-run the shared-file read benchmark (F2's access
// pattern, 200 clients): with one metadata server and an exaggerated
// service time the reads queue behind metadata lookups exactly like an
// overloaded NameNode.
//
// PR 10 adds a second sweep one level up: the DATA-plane DHT above scales
// page-tree lookups, but every open/stat still funnels through the version
// manager. The second table shards the VM itself (WorldOptions
// metadata_shards) under a pure open/stat storm and reports how the VM's
// busiest shard sheds load as the serial point spreads.
//
// Gate: exits nonzero unless per-client read throughput rises at every step
// of the DHT sweep and metadata ops/s rises at every step of the VM sweep;
// reports gate/metadata_nodes=N/over_1 and gate/vm_shards=N/over_1.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "common/assert.h"
#include "common/rng.h"
#include "sim/parallel.h"
#include "sim/sync.h"

using namespace bs;
using namespace bs::bench;

namespace {

constexpr uint32_t kClients = 200;
constexpr uint64_t kSliceBytes = 256 * kMiB;
constexpr uint64_t kFileBytes = kClients * kSliceBytes;

// --- VM-shard sweep (PR 10) ---

constexpr uint32_t kVmClients = 2000;
constexpr uint32_t kVmOps = 8;
constexpr uint32_t kVmFiles = 128;

std::string vm_file(uint32_t i) { return "/vm/f" + std::to_string(i); }

sim::Task<void> vm_stage(BsfsWorld* world) {
  auto blob_client = world->blobs->make_client(0);
  for (uint32_t i = 0; i < kVmFiles; ++i) {
    const auto desc =
        co_await blob_client->create(world->options.page_size, 1);
    co_await blob_client->write(
        desc.id, 0, DataSpec::pattern(500 + i, 0, world->options.page_size));
    bool ok = co_await world->ns->add_file(0, vm_file(i), desc.id,
                                           world->options.block_size);
    BS_CHECK(ok);
    ok = co_await world->ns->finalize(0, vm_file(i));
    BS_CHECK(ok);
  }
}

sim::Task<void> vm_storm_client(BsfsWorld* world, uint32_t index,
                                sim::WaitGroup* wg) {
  const net::NodeId node = client_node(world->options.cluster, index);
  auto fs_client = world->fs->make_client(node);
  Rng rng(splitmix64(0xAB2 + index));
  for (uint32_t op = 0; op < kVmOps; ++op) {
    const uint32_t f = static_cast<uint32_t>(rng.below(kVmFiles));
    if (rng.below(2) == 0) {
      auto st = co_await fs_client->stat(vm_file(f));
      BS_CHECK(st.has_value());
    } else {
      auto reader = co_await fs_client->open(vm_file(f));
      BS_CHECK(reader != nullptr);
    }
  }
  wg->done();
}

// One sweep of the gate: `sweep` holds (nodes, value) from the one-node
// step up, and the value must rise at every step. Returns the failures.
int gate_rises(BenchReport& report, const std::string& key, const char* what,
               const std::vector<std::pair<uint32_t, double>>& sweep) {
  int failures = 0;
  for (size_t i = 1; i < sweep.size(); ++i) {
    const auto [nodes, value] = sweep[i];
    const double ratio = value / sweep[0].second;
    report.metric("gate/" + key + "=" + std::to_string(nodes) + "/over_1",
                  ratio);
    report.say("%s=%u: %s %.2fx the 1-node value (gate: above %s=%u)\n",
               key.c_str(), nodes, what, ratio, key.c_str(),
               sweep[i - 1].first);
    if (value > sweep[i - 1].second) continue;
    std::fprintf(stderr, "GATE FAIL: %s is %.2f at %s=%u, not above %.2f at "
                 "%s=%u\n", what, value, key.c_str(), nodes,
                 sweep[i - 1].second, key.c_str(), sweep[i - 1].first);
    ++failures;
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("abl2_metadata_scaling", argc, argv);
  report.say("A2: metadata scaling — shared-file reads (%u clients) while\n",
             kClients);
  report.say("shrinking the metadata DHT; 1 node = a NameNode-like setup\n\n");

  Table table({"metadata nodes", "MB/s per client", "aggregate MB/s",
               "DHT requests", "busiest node's share"});
  std::vector<std::pair<uint32_t, double>> dht_sweep;
  for (uint32_t meta_nodes : {1u, 4u, 16u, 269u}) {
    WorldOptions opt;
    opt.metadata_nodes = meta_nodes == 269 ? 0 : meta_nodes;
    // Exaggerated per-request cost (a JVM-NameNode-style ~1 ms op) makes
    // the centralization penalty visible at this reduced data scale; the
    // ratio between rows is the result.
    opt.dht_service_time_s = 1e-3;
    BsfsWorld world(opt);
    world.blobs->metadata_dht();  // built
    world.sim.spawn(bsfs_stage_file(world, "/huge", kFileBytes, 7));
    world.sim.run();

    std::vector<ReadTask> tasks;
    for (uint32_t i = 0; i < kClients; ++i) {
      ReadTask t;
      t.node = client_node(world.options.cluster, i);
      t.path = "/huge";
      t.offset = static_cast<uint64_t>(i) * kSliceBytes;
      t.bytes = kSliceBytes;
      tasks.push_back(std::move(t));
    }
    auto res = run_reads(world.sim, *world.fs, tasks);

    auto per_node = world.blobs->metadata_dht().requests_per_node();
    uint64_t total = 0, busiest = 0;
    for (auto& [n, c] : per_node) {
      total += c;
      busiest = std::max(busiest, c);
    }
    table.add_row({std::to_string(meta_nodes),
                   Table::num(res.per_client_mbps.mean()),
                   Table::num(res.aggregate_mbps), std::to_string(total),
                   Table::num(100.0 * static_cast<double>(busiest) /
                                  static_cast<double>(std::max<uint64_t>(1, total)),
                              1) + "%"});
    const std::string k = "metadata_nodes=" + std::to_string(meta_nodes);
    report.metric(k + "/mbps_per_client", res.per_client_mbps.mean());
    report.metric(k + "/aggregate_mbps", res.aggregate_mbps);
    dht_sweep.emplace_back(meta_nodes, res.per_client_mbps.mean());
  }
  report.table(table);

  // Phase 2 (PR 10): shard the version manager itself. The storm is pure
  // open/stat — every op consults the VM, so its serial point dominates.
  report.say("\nVM sharding — open/stat storm (%u clients x %u ops):\n\n",
             kVmClients, kVmOps);
  Table vm_table({"vm shards", "metadata ops/s", "vm requests",
                  "busiest vm shard's share"});
  std::vector<std::pair<uint32_t, double>> vm_sweep;
  for (uint32_t shards : {1u, 4u, 16u}) {
    WorldOptions opt;
    opt.metadata_shards = shards;
    BsfsWorld world(opt);
    world.sim.spawn(vm_stage(&world));
    world.sim.run();

    sim::WaitGroup wg(world.sim);
    wg.add(kVmClients);
    const double t0 = world.sim.now();
    for (uint32_t i = 0; i < kVmClients; ++i) {
      world.sim.spawn(vm_storm_client(&world, i, &wg));
    }
    world.sim.run();
    const double makespan = world.sim.now() - t0;
    const double ops_per_s =
        static_cast<double>(kVmClients) * kVmOps / makespan;

    auto& vm = world.blobs->version_manager();
    const uint64_t total = vm.total_requests();
    uint64_t busiest = 0;
    for (const auto& [node, count] : vm.requests_per_shard()) {
      busiest = std::max(busiest, count);
    }
    const double share = static_cast<double>(busiest) /
                         static_cast<double>(std::max<uint64_t>(1, total));
    vm_table.add_row({std::to_string(shards), Table::num(ops_per_s),
                      std::to_string(total),
                      Table::num(100.0 * share, 1) + "%"});
    const std::string k = "vm_shards=" + std::to_string(shards);
    report.metric(k + "/ops_per_s", ops_per_s);
    report.metric(k + "/busiest_vm_share", share);
    vm_sweep.emplace_back(shards, ops_per_s);
  }
  report.table(vm_table);

  report.say("\nshape: throughput holds as metadata spreads; a single\n"
             "metadata server becomes the bottleneck (HDFS NameNode role).\n"
             "The same holds one level up: sharding the version manager\n"
             "spreads the open/stat serial point (PR 10)\n");
  report.say("\n");
  const int failures =
      gate_rises(report, "metadata_nodes", "MB/s per client", dht_sweep) +
      gate_rises(report, "vm_shards", "metadata ops/s", vm_sweep);
  return failures == 0 ? 0 : 1;
}
