// Extension 10: the sharded metadata plane under a client storm (ROADMAP
// "shard the metadata plane for millions of clients").
//
// The paper's §III.A contrast is BlobSeer's distributed metadata versus
// HDFS's single NameNode. PR 10 extends that contrast to the CONTROL plane:
// the version manager and the BSFS namespace now shard per-blob/per-path
// serial points across a consistent-hash ring, while HDFS keeps its honest
// single master. This bench storms the metadata plane with >= 10k
// concurrent clients doing open/stat/append-offset/publish over many blobs
// and HARD-GATES the result (nonzero exit on failure):
//
//   1. sharded BSFS metadata-ops/s scales >= 3x from 1 -> 16 shards;
//   2. the single-master HDFS stays within 1.3x of its own 1-shard
//      throughput when asked for 16 shards — the knob exists, the
//      architecture can't use it;
//   3. an 8-shard world and a 1-shard (centralized) world running the same
//      concurrent-append storm produce IDENTICAL per-blob version chains —
//      sharding moved each blob's serial point, it must not have changed
//      per-blob ordering semantics.
//
// A final (informative) phase turns on lease-based client caching and
// reports how far read-mostly storms collapse onto the client cache.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "blob/version_manager.h"
#include "common/assert.h"
#include "common/rng.h"
#include "sim/parallel.h"
#include "sim/sync.h"

using namespace bs;
using namespace bs::bench;

namespace {

constexpr uint32_t kClients = 10000;  // the gate requires >= 10k
constexpr uint32_t kOpsPerClient = 12;
constexpr uint32_t kFiles = 256;
constexpr uint64_t kPage = 64 * 1024;
constexpr uint64_t kBlock = 256 * 1024;

std::string file_path(uint32_t i) { return "/meta/f" + std::to_string(i); }

WorldOptions storm_options(uint32_t shards) {
  WorldOptions opt;
  opt.page_size = kPage;
  opt.block_size = kBlock;
  opt.metadata_shards = shards;
  return opt;
}

// Stages kFiles one-page files and records their blob ids (creation order
// is deterministic, but recording them keeps the storm independent of the
// id-assignment scheme).
sim::Task<void> stage_bsfs(BsfsWorld* world, std::vector<blob::BlobId>* ids) {
  auto blob_client = world->blobs->make_client(0);
  for (uint32_t i = 0; i < kFiles; ++i) {
    const auto desc =
        co_await blob_client->create(world->options.page_size, 1);
    co_await blob_client->write(desc.id, 0,
                                DataSpec::pattern(1000 + i, 0, kPage));
    bool ok = co_await world->ns->add_file(0, file_path(i), desc.id,
                                           world->options.block_size);
    BS_CHECK(ok);
    ok = co_await world->ns->finalize(0, file_path(i));
    BS_CHECK(ok);
    ids->push_back(desc.id);
  }
}

// One storming client: a seeded stream of stat / open / append+publish ops
// over random files. Appends go straight at the version manager (assign at
// the append offset, then commit = publish) — the pure control-plane cost,
// no data pages move.
sim::Task<void> bsfs_client_storm(BsfsWorld* world,
                                  const std::vector<blob::BlobId>* ids,
                                  uint32_t index, uint32_t ops, bool mutate,
                                  sim::WaitGroup* wg) {
  const net::NodeId node = client_node(world->options.cluster, index);
  auto fs_client = world->fs->make_client(node);
  auto& vm = world->blobs->version_manager();
  Rng rng(splitmix64(0xE10 + index));
  for (uint32_t op = 0; op < ops; ++op) {
    const uint32_t f = static_cast<uint32_t>(rng.below(kFiles));
    const uint64_t kind = rng.below(10);
    if (!mutate || kind < 4) {
      auto st = co_await fs_client->stat(file_path(f));
      BS_CHECK(st.has_value());
    } else if (kind < 7) {
      auto reader = co_await fs_client->open(file_path(f));
      BS_CHECK(reader != nullptr);
    } else {
      // Append-offset assignment + publish; fixed one-page size per blob
      // keeps chains timing-invariant (the oracle's contract).
      auto ticket = co_await vm.assign_write(
          node, (*ids)[f], blob::VersionManager::kAppendOffset, kPage);
      co_await vm.commit(node, (*ids)[f], ticket.version);
    }
  }
  wg->done();
}

sim::Task<void> hdfs_client_storm(HdfsWorld* world, uint32_t index,
                                  uint32_t ops, sim::WaitGroup* wg) {
  const net::NodeId node = client_node(world->options.cluster, index);
  auto fs_client = world->fs->make_client(node);
  Rng rng(splitmix64(0xE10 + index));
  for (uint32_t op = 0; op < ops; ++op) {
    const uint32_t f = static_cast<uint32_t>(rng.below(kFiles));
    if (rng.below(10) < 5) {
      auto st = co_await fs_client->stat(file_path(f));
      BS_CHECK(st.has_value());
    } else {
      auto reader = co_await fs_client->open(file_path(f));
      BS_CHECK(reader != nullptr);
    }
  }
  wg->done();
}

struct StormStats {
  double ops_per_s = 0;
  uint64_t vm_requests = 0;
  double busiest_vm_share = 0;  // busiest shard's fraction of VM requests
};

StormStats run_bsfs_storm(uint32_t shards, uint32_t clients, bool mutate,
                          double lease_ttl_s, uint64_t* lease_hits,
                          uint64_t* lease_misses) {
  WorldOptions opt = storm_options(shards);
  opt.lease_ttl_s = lease_ttl_s;
  BsfsWorld world(opt);
  std::vector<blob::BlobId> ids;
  world.sim.spawn(stage_bsfs(&world, &ids));
  world.sim.run();

  sim::WaitGroup wg(world.sim);
  wg.add(clients);
  const double t0 = world.sim.now();
  for (uint32_t i = 0; i < clients; ++i) {
    world.sim.spawn(
        bsfs_client_storm(&world, &ids, i, kOpsPerClient, mutate, &wg));
  }
  world.sim.run();
  const double makespan = world.sim.now() - t0;

  StormStats stats;
  stats.ops_per_s =
      static_cast<double>(clients) * kOpsPerClient / makespan;
  auto& vm = world.blobs->version_manager();
  stats.vm_requests = vm.total_requests();
  uint64_t busiest = 0;
  for (const auto& [node, count] : vm.requests_per_shard()) {
    busiest = std::max(busiest, count);
  }
  stats.busiest_vm_share = stats.vm_requests == 0
                               ? 0
                               : static_cast<double>(busiest) /
                                     static_cast<double>(stats.vm_requests);
  if (lease_hits != nullptr) {
    *lease_hits = world.fs->ns_lease_hits() + world.fs->vm_lease_hits();
  }
  if (lease_misses != nullptr) {
    *lease_misses = world.fs->ns_lease_misses() + world.fs->vm_lease_misses();
  }
  return stats;
}

double run_hdfs_storm(uint32_t shards, uint32_t clients) {
  WorldOptions opt = storm_options(shards);
  HdfsWorld world(opt);
  for (uint32_t i = 0; i < kFiles; ++i) {
    world.sim.spawn(put_file(*world.fs, 0, file_path(i), kPage, 1000 + i));
  }
  world.sim.run();

  sim::WaitGroup wg(world.sim);
  wg.add(clients);
  const double t0 = world.sim.now();
  for (uint32_t i = 0; i < clients; ++i) {
    world.sim.spawn(hdfs_client_storm(&world, i, kOpsPerClient, &wg));
  }
  world.sim.run();
  const double makespan = world.sim.now() - t0;
  return static_cast<double>(clients) * kOpsPerClient / makespan;
}

// --- the sharded-vs-centralized chain oracle ---
//
// Same seed, same concurrent-append storm, one 8-shard world and one
// 1-shard (centralized) world. Per-blob append sizes are fixed, so each blob's chain
// is fully determined by HOW MANY appends landed on it — not by the
// arrival interleaving, which sharding legitimately changes. Identical
// chains = sharding preserved per-blob ordering semantics exactly.
struct ChainSet {
  std::vector<blob::WriteHistory> chains;
  std::vector<blob::Version> published;
};

ChainSet run_oracle_world(uint32_t shards) {
  constexpr uint32_t kOracleBlobs = 32;
  constexpr uint32_t kOracleClients = 512;
  constexpr uint32_t kOracleOps = 8;
  WorldOptions opt = storm_options(shards);
  BsfsWorld world(opt);

  std::vector<blob::BlobId> ids;
  auto setup = [](BsfsWorld* w, std::vector<blob::BlobId>* out,
                  uint32_t count) -> sim::Task<void> {
    auto client = w->blobs->make_client(0);
    for (uint32_t i = 0; i < count; ++i) {
      const auto desc = co_await client->create(w->options.page_size, 1);
      out->push_back(desc.id);
    }
  };
  world.sim.spawn(setup(&world, &ids, kOracleBlobs));
  world.sim.run();

  sim::WaitGroup wg(world.sim);
  wg.add(kOracleClients);
  for (uint32_t i = 0; i < kOracleClients; ++i) {
    auto appender = [](BsfsWorld* w, const std::vector<blob::BlobId>* blobs,
                       uint32_t index, uint32_t ops,
                       sim::WaitGroup* done) -> sim::Task<void> {
      auto& mgr = w->blobs->version_manager();
      const net::NodeId node = client_node(w->options.cluster, index);
      Rng rng(splitmix64(0x04AC1E + index));
      for (uint32_t op = 0; op < ops; ++op) {
        const uint32_t b = static_cast<uint32_t>(rng.below(blobs->size()));
        // Fixed per-blob append size: 1..4 pages by blob index.
        const uint64_t bytes = (1 + b % 4) * kPage;
        auto ticket = co_await mgr.assign_write(
            node, (*blobs)[b], blob::VersionManager::kAppendOffset, bytes);
        co_await mgr.commit(node, (*blobs)[b], ticket.version);
      }
      done->done();
    };
    world.sim.spawn(appender(&world, &ids, i, kOracleOps, &wg));
  }
  world.sim.run();

  ChainSet out;
  auto harvest = [](BsfsWorld* w, const std::vector<blob::BlobId>* blobs,
                    ChainSet* sink) -> sim::Task<void> {
    auto& mgr = w->blobs->version_manager();
    for (blob::BlobId id : *blobs) {
      sink->chains.push_back(co_await mgr.full_history(0, id));
      sink->published.push_back(mgr.published_version(id));
    }
  };
  world.sim.spawn(harvest(&world, &ids, &out));
  world.sim.run();
  return out;
}

bool chains_equal(const ChainSet& a, const ChainSet& b) {
  if (a.chains.size() != b.chains.size()) return false;
  if (a.published != b.published) return false;
  for (size_t i = 0; i < a.chains.size(); ++i) {
    const auto& ca = a.chains[i];
    const auto& cb = b.chains[i];
    if (ca.size() != cb.size()) return false;
    for (size_t v = 0; v < ca.size(); ++v) {
      if (ca[v].version != cb[v].version ||
          ca[v].range.first != cb[v].range.first ||
          ca[v].range.count != cb[v].range.count ||
          ca[v].size_after != cb[v].size_after ||
          ca[v].cap_after != cb[v].cap_after) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("ext10_metadata_plane", argc, argv);
  report.say("EXT10: metadata plane storm — %u clients x %u ops over %u "
             "files\n\n",
             kClients, kOpsPerClient, kFiles);
  int failures = 0;

  // Phase A: sharded BSFS scaling sweep.
  Table table({"config", "shards", "metadata ops/s", "vm requests",
               "busiest shard share"});
  double sharded_1 = 0, sharded_16 = 0;
  for (uint32_t shards : {1u, 4u, 16u}) {
    const StormStats s =
        run_bsfs_storm(shards, kClients, true, 0, nullptr, nullptr);
    if (shards == 1) sharded_1 = s.ops_per_s;
    if (shards == 16) sharded_16 = s.ops_per_s;
    table.add_row({"bsfs-sharded", std::to_string(shards),
                   Table::num(s.ops_per_s), std::to_string(s.vm_requests),
                   Table::num(100.0 * s.busiest_vm_share, 1) + "%"});
    const std::string k = "bsfs_sharded/shards=" + std::to_string(shards);
    report.metric(k + "/ops_per_s", s.ops_per_s);
    report.metric(k + "/busiest_vm_share", s.busiest_vm_share);
  }

  // Phase C: HDFS — no sharding lever exists; the knob is a no-op.
  double hdfs_1 = 0, hdfs_16 = 0;
  for (uint32_t shards : {1u, 16u}) {
    const double ops = run_hdfs_storm(shards, kClients);
    (shards == 1 ? hdfs_1 : hdfs_16) = ops;
    table.add_row({"hdfs", std::to_string(shards), Table::num(ops), "-", "-"});
    report.metric("hdfs/shards=" + std::to_string(shards) + "/ops_per_s",
                  ops);
  }
  report.table(table);

  const double scaling = sharded_16 / sharded_1;
  const double hdfs_ratio = std::max(hdfs_16 / hdfs_1, hdfs_1 / hdfs_16);
  report.metric("gate/sharded_scaling_16_over_1", scaling);
  report.metric("gate/hdfs_flatline_ratio", hdfs_ratio);
  report.say("\nsharded 1->16 scaling: %.2fx (gate: >= 3x)\n", scaling);
  report.say("hdfs 16-vs-1 ratio: %.3f (gate: <= 1.3)\n", hdfs_ratio);
  if (scaling < 3.0) {
    std::fprintf(stderr, "GATE FAIL: sharded scaling %.2fx < 3x\n", scaling);
    ++failures;
  }
  if (hdfs_ratio > 1.3) {
    std::fprintf(stderr, "GATE FAIL: hdfs moved %.3fx with shards\n",
                 hdfs_ratio);
    ++failures;
  }

  // Phase D: 8-shard vs 1-shard per-blob chain oracle.
  const ChainSet sharded_chains = run_oracle_world(8);
  const ChainSet central_chains = run_oracle_world(1);
  const bool oracle_ok = chains_equal(sharded_chains, central_chains);
  report.metric("gate/oracle_chains_match", oracle_ok ? 1 : 0);
  report.say("oracle: per-blob version chains 8 shards==1 shard: %s\n",
             oracle_ok ? "yes" : "NO");
  if (!oracle_ok) {
    std::fprintf(stderr, "GATE FAIL: 8-shard and 1-shard version chains "
                         "diverged\n");
    ++failures;
  }

  // Phase E (informative): lease-based client caching on a read-mostly
  // storm — how much metadata traffic never leaves the client node.
  uint64_t hits = 0, misses = 0;
  const StormStats no_lease =
      run_bsfs_storm(16, 2000, false, 0, nullptr, nullptr);
  const StormStats leased =
      run_bsfs_storm(16, 2000, false, 300.0, &hits, &misses);
  const double hit_rate =
      hits + misses == 0
          ? 0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
  report.metric("lease/hit_rate", hit_rate);
  report.metric("lease/vm_requests_without",
                static_cast<double>(no_lease.vm_requests));
  report.metric("lease/vm_requests_with",
                static_cast<double>(leased.vm_requests));
  report.metric("lease/ops_per_s_without", no_lease.ops_per_s);
  report.metric("lease/ops_per_s_with", leased.ops_per_s);
  report.say("leases (read-mostly, 2000 clients): hit rate %.1f%%, VM "
             "requests %llu -> %llu, ops/s %.0f -> %.0f\n",
             100.0 * hit_rate,
             static_cast<unsigned long long>(no_lease.vm_requests),
             static_cast<unsigned long long>(leased.vm_requests),
             no_lease.ops_per_s, leased.ops_per_s);

  if (failures == 0) {
    report.say("\nshape: the sharded control plane scales with shard count; "
               "the single master cannot use the knob; per-blob semantics "
               "are oracle-identical\n");
  }
  return failures;
}
