// Sharded metadata plane (PR 10): the version manager's per-blob serial
// points and the namespace's per-path entry owners are spread over a
// consistent-hash ring. These tests pin the three claims the sharding
// rests on:
//   * routing actually spreads — sequential ids/sibling paths cover every
//     shard (regression for the FNV lattice that once parked half the keys
//     on one shard);
//   * an S-shard world and a 1-shard world running the same concurrent-
//     append storm produce IDENTICAL per-blob version chains — sharding
//     moved the serial point, it did not change per-blob ordering;
//   * cross-shard rename keeps exactly-one-winner semantics, and leases
//     never serve stale metadata (publish/rename invalidation + TTL).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "blob/cluster.h"
#include "bsfs/bsfs.h"
#include "common/rng.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace bs {
namespace {

constexpr uint64_t kBlock = 8192;
constexpr uint64_t kPage = kBlock / 8;

net::ClusterConfig small_net() {
  net::ClusterConfig cfg;
  cfg.num_nodes = 24;
  cfg.nodes_per_rack = 6;
  return cfg;
}

std::vector<net::NodeId> shard_set(uint32_t count) {
  std::vector<net::NodeId> nodes;
  for (uint32_t i = 0; i < count; ++i) {
    nodes.push_back(static_cast<net::NodeId>(2 * i + 1));
  }
  return nodes;
}

// --- routing dispersion -----------------------------------------------------

TEST(VmShard, SequentialBlobIdsCoverEveryShard) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  blob::BlobSeerConfig cfg;
  cfg.version_manager_nodes = shard_set(8);
  blob::BlobSeerCluster cluster(sim, net, cfg);
  auto& vm = cluster.version_manager();
  ASSERT_EQ(vm.shard_count(), 8u);

  // Blob ids are handed out sequentially (1, 2, 3, ...). A weakly mixed
  // hash walks the ring in a lattice and parks most ids on a few shards;
  // 64 consecutive ids must touch all 8.
  std::set<net::NodeId> owners;
  for (blob::BlobId b = 1; b <= 64; ++b) owners.insert(vm.shard_node(b));
  EXPECT_EQ(owners.size(), 8u);
}

TEST(VmShard, SiblingPathsCoverEveryShard) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  bsfs::NamespaceConfig cfg;
  cfg.shard_nodes = shard_set(8);
  bsfs::NamespaceManager ns(sim, net, cfg);
  ASSERT_EQ(ns.shard_count(), 8u);

  std::set<net::NodeId> owners;
  for (int i = 0; i < 64; ++i) {
    owners.insert(ns.shard_node("/data/file" + std::to_string(i)));
  }
  EXPECT_EQ(owners.size(), 8u);
}

// --- the S-shard vs 1-shard chain oracle -----------------------------------
//
// Same seeds, same concurrent append storm, one sharded world and one
// single-shard world. Each blob's append size is fixed (derived from its
// index), so its chain is fully determined by HOW MANY appends landed on
// it — not by the cross-blob interleaving, which sharding legitimately
// changes. Identical chains + published versions = per-blob ordering
// semantics survived the sharding exactly.

struct ChainSet {
  std::vector<blob::WriteHistory> chains;
  std::vector<blob::Version> published;
  std::map<net::NodeId, uint64_t> per_shard;
};

ChainSet run_append_storm(uint32_t shards, uint64_t seed) {
  constexpr uint32_t kBlobs = 16;
  constexpr uint32_t kClients = 64;
  constexpr uint32_t kOps = 6;

  sim::Simulator sim;
  net::Network net(sim, small_net());
  blob::BlobSeerConfig cfg;
  cfg.version_manager_nodes = shard_set(shards);
  blob::BlobSeerCluster cluster(sim, net, cfg);
  auto& vm = cluster.version_manager();

  std::vector<blob::BlobId> ids;
  auto setup = [](blob::BlobSeerCluster* c,
                  std::vector<blob::BlobId>* out) -> sim::Task<void> {
    auto client = c->make_client(0);
    for (uint32_t i = 0; i < kBlobs; ++i) {
      const auto desc = co_await client->create(kPage, 1);
      out->push_back(desc.id);
    }
  };
  sim.spawn(setup(&cluster, &ids));
  sim.run();

  sim::WaitGroup wg(sim);
  wg.add(kClients);
  for (uint32_t i = 0; i < kClients; ++i) {
    auto appender = [](sim::Simulator* s, blob::VersionManager* mgr,
                       const std::vector<blob::BlobId>* blobs, uint64_t cseed,
                       sim::WaitGroup* done) -> sim::Task<void> {
      Rng rng(cseed);
      const net::NodeId node =
          static_cast<net::NodeId>(rng.below(24));
      for (uint32_t op = 0; op < kOps; ++op) {
        // Timing jitter: shifts the cross-blob interleaving without
        // touching per-blob append counts (the oracle's invariant).
        co_await s->delay(rng.uniform() * 0.002);
        const uint32_t b = static_cast<uint32_t>(rng.below(blobs->size()));
        const uint64_t bytes = (1 + b % 4) * kPage;
        auto ticket = co_await mgr->assign_write(
            node, (*blobs)[b], blob::VersionManager::kAppendOffset, bytes);
        co_await mgr->commit(node, (*blobs)[b], ticket.version);
        // Readers ride along: waiting for one's own publish exercises the
        // per-shard wake-up path without perturbing the chain.
        co_await mgr->wait_published(node, (*blobs)[b], ticket.version);
      }
      done->done();
    };
    sim.spawn(appender(&sim, &vm, &ids, splitmix64(seed + i), &wg));
  }
  sim.run();

  ChainSet out;
  auto harvest = [](blob::VersionManager* mgr,
                    const std::vector<blob::BlobId>* blobs,
                    ChainSet* sink) -> sim::Task<void> {
    for (blob::BlobId id : *blobs) {
      sink->chains.push_back(co_await mgr->full_history(0, id));
      sink->published.push_back(mgr->published_version(id));
    }
  };
  sim.spawn(harvest(&vm, &ids, &out));
  sim.run();
  out.per_shard = vm.requests_per_shard();
  return out;
}

TEST(VmShard, ShardedAndSingleShardChainsIdentical) {
  for (uint64_t seed : {11u, 222u, 3333u}) {
    const ChainSet sharded = run_append_storm(8, seed);
    const ChainSet single = run_append_storm(1, seed);

    // The sharded run really sharded; the single-shard run really did not.
    EXPECT_GT(sharded.per_shard.size(), 1u) << "seed " << seed;
    EXPECT_EQ(single.per_shard.size(), 1u) << "seed " << seed;

    ASSERT_EQ(sharded.chains.size(), single.chains.size());
    EXPECT_EQ(sharded.published, single.published) << "seed " << seed;
    for (size_t i = 0; i < sharded.chains.size(); ++i) {
      const auto& a = sharded.chains[i];
      const auto& b = single.chains[i];
      ASSERT_EQ(a.size(), b.size()) << "blob " << i << " seed " << seed;
      for (size_t v = 0; v < a.size(); ++v) {
        EXPECT_EQ(a[v].version, b[v].version);
        EXPECT_EQ(a[v].range.first, b[v].range.first);
        EXPECT_EQ(a[v].range.count, b[v].range.count);
        EXPECT_EQ(a[v].size_after, b[v].size_after);
        EXPECT_EQ(a[v].cap_after, b[v].cap_after);
      }
    }
  }
}

// --- cross-shard rename ------------------------------------------------------

TEST(VmShard, CrossShardRenameHasExactlyOneWinner) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  bsfs::NamespaceConfig cfg;
  cfg.shard_nodes = shard_set(8);
  bsfs::NamespaceManager ns(sim, net, cfg);

  // Pick two source paths owned by DIFFERENT shards, and a target owned by
  // yet another shard when possible — the rename decision then spans
  // owners and must still serialize to one winner.
  std::vector<std::string> sources;
  std::set<net::NodeId> used;
  for (int i = 0; sources.size() < 2 && i < 64; ++i) {
    const std::string p = "/race/src" + std::to_string(i);
    if (used.insert(ns.shard_node(p)).second) sources.push_back(p);
  }
  ASSERT_EQ(sources.size(), 2u);
  const std::string target = "/race/winner";

  auto stage = [](bsfs::NamespaceManager* n,
                  const std::vector<std::string>* paths) -> sim::Task<void> {
    for (size_t i = 0; i < paths->size(); ++i) {
      const bool added = co_await n->add_file(
          0, (*paths)[i], static_cast<blob::BlobId>(i + 1), kBlock);
      EXPECT_TRUE(added);
      EXPECT_TRUE(co_await n->finalize(0, (*paths)[i]));
    }
  };
  sim.spawn(stage(&ns, &sources));
  sim.run();

  bool won[2] = {false, false};
  auto racer = [](bsfs::NamespaceManager* n, std::string from,
                  std::string to, bool* result) -> sim::Task<void> {
    *result = co_await n->rename(1, from, to);
  };
  sim.spawn(racer(&ns, sources[0], target, &won[0]));
  sim.spawn(racer(&ns, sources[1], target, &won[1]));
  sim.run();

  EXPECT_NE(won[0], won[1]) << "exactly one rename must win";
  auto verify = [](bsfs::NamespaceManager* n, std::string t,
                   const std::vector<std::string>* srcs,
                   const bool* winners) -> sim::Task<void> {
    auto entry = co_await n->lookup(0, t);
    EXPECT_TRUE(entry.has_value());
    if (!entry.has_value()) co_return;
    // The target holds the winner's blob; the loser's file is untouched.
    const size_t w = winners[0] ? 0 : 1;
    EXPECT_EQ(entry->blob, static_cast<blob::BlobId>(w + 1));
    EXPECT_FALSE((co_await n->lookup(0, (*srcs)[w])).has_value());
    EXPECT_TRUE((co_await n->lookup(0, (*srcs)[1 - w])).has_value());
  };
  sim.spawn(verify(&ns, target, &sources, won));
  sim.run();
}

// --- lease correctness -------------------------------------------------------

struct LeaseWorld {
  sim::Simulator sim;
  net::Network net;
  blob::BlobSeerCluster blobs;
  bsfs::NamespaceManager ns;
  bsfs::Bsfs fs;

  explicit LeaseWorld(double ttl_s)
      : net(sim, small_net()),
        blobs(sim, net, sharded_cfg()),
        ns(sim, net, ns_cfg()),
        fs(sim, net, blobs, ns,
           bsfs::BsfsConfig{.block_size = kBlock,
                            .page_size = kPage,
                            .replication = 1,
                            .enable_cache = true,
                            .lease_ttl_s = ttl_s}) {}

  static blob::BlobSeerConfig sharded_cfg() {
    blob::BlobSeerConfig cfg;
    cfg.version_manager_nodes = shard_set(4);
    return cfg;
  }
  static bsfs::NamespaceConfig ns_cfg() {
    bsfs::NamespaceConfig cfg;
    cfg.shard_nodes = shard_set(4);
    return cfg;
  }
};

// `path` by value: callers spawn this coroutine with temporaries, which a
// reference parameter would leave dangling in the suspended frame.
sim::Task<void> put_file(bsfs::Bsfs* fs, std::string path, uint64_t bytes) {
  auto client = fs->make_client(1);
  auto writer = co_await client->create(path);
  co_await writer->write(DataSpec::pattern(7, 0, bytes));
  co_await writer->close();
}

// A publish must be visible through a still-live lease immediately: the
// lease checks the published version (the invalidation channel), not just
// its TTL.
TEST(VmShard, LeaseNeverServesStaleSizeAcrossPublish) {
  LeaseWorld w(/*ttl_s=*/1e6);
  w.sim.spawn(put_file(&w.fs, "/lease/f", kBlock));
  w.sim.run();

  auto scenario = [](LeaseWorld* w) -> sim::Task<void> {
    auto reader = w->fs.make_client(2);
    auto st = co_await reader->stat("/lease/f");
    EXPECT_TRUE(st.has_value());
    if (!st.has_value()) co_return;
    EXPECT_EQ(st->size, kBlock);

    // Warm lease: an immediate re-stat is served locally.
    const uint64_t hits_before = w->fs.vm_lease_hits();
    st = co_await reader->stat("/lease/f");
    EXPECT_EQ(st->size, kBlock);
    EXPECT_GT(w->fs.vm_lease_hits(), hits_before);

    // Append + publish from another node...
    auto appender = w->fs.make_client(3);
    auto writer = co_await appender->append("/lease/f");
    EXPECT_NE(writer, nullptr);
    if (writer == nullptr) co_return;
    co_await writer->write(DataSpec::pattern(8, 0, kBlock));
    co_await writer->close();

    // ...and the leased reader sees the new size with NO TTL wait.
    st = co_await reader->stat("/lease/f");
    EXPECT_TRUE(st.has_value());
    if (st.has_value()) {
      EXPECT_EQ(st->size, 2 * kBlock);
    }
  };
  w.sim.spawn(scenario(&w));
  w.sim.run();
}

// A rename must kill leases on the old path immediately (namespace
// mutation epoch), even within the TTL.
TEST(VmShard, LeaseInvalidatedOnRename) {
  LeaseWorld w(/*ttl_s=*/1e6);
  w.sim.spawn(put_file(&w.fs, "/lease/old", kBlock));
  w.sim.run();

  auto scenario = [](LeaseWorld* w) -> sim::Task<void> {
    auto reader = w->fs.make_client(2);
    auto st = co_await reader->stat("/lease/old");
    EXPECT_TRUE(st.has_value());  // lease on "/lease/old" is now warm

    auto mover = w->fs.make_client(3);
    EXPECT_TRUE(co_await mover->rename("/lease/old", "/lease/new"));

    st = co_await reader->stat("/lease/old");
    EXPECT_FALSE(st.has_value()) << "stale lease served a renamed-away path";
    st = co_await reader->stat("/lease/new");
    EXPECT_TRUE(st.has_value());
    if (st.has_value()) {
      EXPECT_EQ(st->size, kBlock);
    }
  };
  w.sim.spawn(scenario(&w));
  w.sim.run();
}

// A remove that lands while a lookup's reply is still on the wire must
// still invalidate the lease that lookup grants: the lease holds the
// stamp the lookup read with the entry, not the one current when the
// reply arrives.
TEST(VmShard, LeaseNeverServesAnEntryRemovedDuringItsLookupReply) {
  LeaseWorld w(/*ttl_s=*/1e6);
  w.sim.spawn(put_file(&w.fs, "/lease/f", kBlock));
  w.sim.run();

  auto stat = [](bsfs::Bsfs* fs, bool* found) -> sim::Task<void> {
    auto reader = fs->make_client(2);
    *found = (co_await reader->stat("/lease/f")).has_value();
  };
  auto unlink = [](bsfs::Bsfs* fs, bool* removed) -> sim::Task<void> {
    auto client = fs->make_client(3);
    *removed = co_await client->remove("/lease/f");
  };
  // The same instant, node 2 first: its lookup is served, then the remove
  // runs while the lookup's reply travels back.
  bool found = false;
  bool removed = false;
  w.sim.spawn(stat(&w.fs, &found));
  w.sim.spawn(unlink(&w.fs, &removed));
  w.sim.run();
  EXPECT_TRUE(found);
  EXPECT_TRUE(removed);

  w.sim.spawn(stat(&w.fs, &found));
  w.sim.run();
  EXPECT_FALSE(found) << "a lease served a removed entry";
}

// TTL expiry forces a re-fetch even when nothing changed.
TEST(VmShard, LeaseTtlExpiryForcesRefetch) {
  LeaseWorld w(/*ttl_s=*/0.5);
  w.sim.spawn(put_file(&w.fs, "/lease/f", kBlock));
  w.sim.run();

  auto scenario = [](LeaseWorld* w) -> sim::Task<void> {
    auto reader = w->fs.make_client(2);
    co_await reader->stat("/lease/f");
    const uint64_t misses_warm = w->fs.vm_lease_misses();
    co_await reader->stat("/lease/f");
    EXPECT_EQ(w->fs.vm_lease_misses(), misses_warm) << "within TTL: a hit";

    co_await w->sim.delay(1.0);  // past the TTL
    co_await reader->stat("/lease/f");
    EXPECT_GT(w->fs.vm_lease_misses(), misses_warm)
        << "expired lease must re-fetch";
  };
  w.sim.spawn(scenario(&w));
  w.sim.run();
}

// Leases default off: zero traffic through the cache counters.
TEST(VmShard, LeasesOffByDefault) {
  LeaseWorld w(/*ttl_s=*/0);
  w.sim.spawn(put_file(&w.fs, "/lease/f", kBlock));
  w.sim.run();

  auto scenario = [](LeaseWorld* w) -> sim::Task<void> {
    auto reader = w->fs.make_client(2);
    co_await reader->stat("/lease/f");
    co_await reader->stat("/lease/f");
  };
  w.sim.spawn(scenario(&w));
  w.sim.run();
  EXPECT_EQ(w.fs.ns_lease_hits(), 0u);
  EXPECT_EQ(w.fs.vm_lease_hits(), 0u);
  EXPECT_EQ(w.fs.ns_lease_misses(), 0u);
  EXPECT_EQ(w.fs.vm_lease_misses(), 0u);
}

}  // namespace
}  // namespace bs
