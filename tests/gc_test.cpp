// Tests for version garbage collection: pruned versions become unreadable,
// kept versions stay byte-exact, and exactly the unreachable page replicas
// are reclaimed (checked against a reference-model computation).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "blob/cluster.h"
#include "blob/gc.h"
#include "common/rng.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace bs::blob {
namespace {

constexpr uint64_t kPage = 64;

net::ClusterConfig test_net() {
  net::ClusterConfig cfg;
  cfg.num_nodes = 16;
  cfg.nodes_per_rack = 4;
  return cfg;
}

struct GcWorld {
  sim::Simulator sim;
  net::Network net;
  BlobSeerCluster cluster;

  GcWorld() : net(sim, test_net()), cluster(sim, net, {}) {}

  uint64_t total_pages_stored() const {
    uint64_t n = 0;
    for (const auto& p : cluster.all_providers()) n += p->page_count();
    return n;
  }
};

DataSpec marked(uint8_t m, uint64_t n) {
  return DataSpec::from_bytes(Bytes(n, m));
}

TEST(Gc, OverwrittenPagesAreReclaimed) {
  GcWorld w;
  auto client = w.cluster.make_client(0);
  BlobId blob = 0;
  auto setup = [](BlobClient& c, BlobId* out) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    *out = desc.id;
    // Five full overwrites of the same page.
    for (int i = 0; i < 5; ++i) {
      co_await c.write(desc.id, 0, marked(static_cast<uint8_t>('a' + i), kPage));
    }
  };
  w.sim.spawn(setup(*client, &blob));
  w.sim.run();
  EXPECT_EQ(w.total_pages_stored(), 5u);

  GcStats stats;
  auto gc = [](GcWorld* world, BlobId b, GcStats* out) -> sim::Task<void> {
    *out = co_await collect_garbage(world->cluster, 0, b, /*keep_from=*/5);
  };
  w.sim.spawn(gc(&w, blob, &stats));
  w.sim.run();

  // Versions 1..4 each owned one page replica, all overwritten by v5.
  EXPECT_EQ(stats.page_replicas_deleted, 4u);
  EXPECT_EQ(stats.bytes_reclaimed, 4 * kPage);
  EXPECT_EQ(w.total_pages_stored(), 1u);

  // v5 still reads exactly; v4 is gone.
  bool v5_ok = false, v4_gone = false;
  auto verify = [](GcWorld* world, BlobClient& c, BlobId b, bool* ok5,
                   bool* gone4) -> sim::Task<void> {
    auto data = co_await c.read(b, 5, 0, kPage);
    *ok5 = data.materialize() == Bytes(kPage, 'e');
    auto info = co_await world->cluster.version_manager().version_info(0, b, 4);
    *gone4 = !info.has_value();
  };
  w.sim.spawn(verify(&w, *client, blob, &v5_ok, &v4_gone));
  w.sim.run();
  EXPECT_TRUE(v5_ok);
  EXPECT_TRUE(v4_gone);
}

TEST(Gc, AppendOnlyHistoryKeepsAllPages) {
  GcWorld w;
  auto client = w.cluster.make_client(0);
  BlobId blob = 0;
  auto setup = [](BlobClient& c, BlobId* out) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    *out = desc.id;
    for (int i = 0; i < 6; ++i) {
      co_await c.append(desc.id, marked(static_cast<uint8_t>('a' + i), kPage));
    }
  };
  w.sim.spawn(setup(*client, &blob));
  w.sim.run();

  GcStats stats;
  auto gc = [](GcWorld* world, BlobId b, GcStats* out) -> sim::Task<void> {
    *out = co_await collect_garbage(world->cluster, 0, b, 6);
  };
  w.sim.spawn(gc(&w, blob, &stats));
  w.sim.run();
  // Appends never overwrite: every page is still owned by its writer.
  EXPECT_EQ(stats.page_replicas_deleted, 0u);
  EXPECT_EQ(w.total_pages_stored(), 6u);
  // But superseded tree roots/inner nodes of old versions were dropped.
  EXPECT_GT(stats.meta_nodes_deleted, 0u);

  // The surviving blob reads back in full.
  bool ok = false;
  auto verify = [](BlobClient& c, BlobId b, bool* out) -> sim::Task<void> {
    auto data = co_await c.read(b, kNoVersion, 0, 6 * kPage);
    Bytes want;
    for (int i = 0; i < 6; ++i) want.insert(want.end(), kPage, 'a' + i);
    *out = data.materialize() == want;
  };
  w.sim.spawn(verify(*client, blob, &ok));
  w.sim.run();
  EXPECT_TRUE(ok);
}

TEST(Gc, IsIdempotent) {
  GcWorld w;
  auto client = w.cluster.make_client(0);
  BlobId blob = 0;
  auto setup = [](BlobClient& c, BlobId* out) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    *out = desc.id;
    for (int i = 0; i < 4; ++i) co_await c.write(desc.id, 0, marked('x', kPage));
  };
  w.sim.spawn(setup(*client, &blob));
  w.sim.run();
  GcStats first{}, second{};
  auto gc = [](GcWorld* world, BlobId b, GcStats* out) -> sim::Task<void> {
    *out = co_await collect_garbage(world->cluster, 0, b, 4);
  };
  w.sim.spawn(gc(&w, blob, &first));
  w.sim.run();
  w.sim.spawn(gc(&w, blob, &second));
  w.sim.run();
  EXPECT_EQ(first.page_replicas_deleted, 3u);
  EXPECT_EQ(second.page_replicas_deleted, 0u);
  EXPECT_EQ(second.meta_nodes_deleted, 0u);
}

TEST(Gc, PinCapLimitsThePruneAtFlipTime) {
  // The pin_cap callback is evaluated by the version manager atomically
  // with the watermark flip: a snapshot pin visible at that instant caps
  // the prune below the requested keep_from, the capped versions stay
  // readable, and the sweep reclaims only below the ACTUAL watermark.
  GcWorld w;
  auto client = w.cluster.make_client(0);
  BlobId blob = 0;
  auto setup = [](BlobClient& c, BlobId* out) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    *out = desc.id;
    for (int i = 0; i < 5; ++i) {
      co_await c.write(desc.id, 0, marked(static_cast<uint8_t>('a' + i), kPage));
    }
  };
  w.sim.spawn(setup(*client, &blob));
  w.sim.run();

  GcStats stats;
  auto gc = [](GcWorld* world, BlobId b, GcStats* out) -> sim::Task<void> {
    *out = co_await collect_garbage(world->cluster, 0, b, /*keep_from=*/5,
                                    /*pin_cap=*/[] { return Version(3); });
  };
  w.sim.spawn(gc(&w, blob, &stats));
  w.sim.run();
  EXPECT_EQ(stats.pruned_below, 3u);
  EXPECT_EQ(stats.page_replicas_deleted, 2u);  // v1, v2 — not v3/v4
  EXPECT_EQ(w.total_pages_stored(), 3u);

  // v3 (the pinned floor) still reads; v2 is gone.
  bool v3_ok = false, v2_gone = false;
  auto verify = [](GcWorld* world, BlobClient& c, BlobId b, bool* ok3,
                   bool* gone2) -> sim::Task<void> {
    auto data = co_await c.read(b, 3, 0, kPage);
    *ok3 = data.materialize() == Bytes(kPage, 'c');
    auto info = co_await world->cluster.version_manager().version_info(0, b, 2);
    *gone2 = !info.has_value();
  };
  w.sim.spawn(verify(&w, *client, blob, &v3_ok, &v2_gone));
  w.sim.run();
  EXPECT_TRUE(v3_ok);
  EXPECT_TRUE(v2_gone);

  // With the pin gone, the same request prunes the rest.
  GcStats rest;
  auto gc2 = [](GcWorld* world, BlobId b, GcStats* out) -> sim::Task<void> {
    *out = co_await collect_garbage(world->cluster, 0, b, 5);
  };
  w.sim.spawn(gc2(&w, blob, &rest));
  w.sim.run();
  EXPECT_EQ(rest.pruned_below, 5u);
  EXPECT_EQ(rest.page_replicas_deleted, 2u);  // v3, v4
  EXPECT_EQ(w.total_pages_stored(), 1u);
}

TEST(Gc, ReclaimsAllReplicasOfReplicatedPages) {
  GcWorld w;
  auto client = w.cluster.make_client(0);
  BlobId blob = 0;
  auto setup = [](BlobClient& c, BlobId* out) -> sim::Task<void> {
    auto desc = co_await c.create(kPage, /*replication=*/3);
    *out = desc.id;
    co_await c.write(desc.id, 0, marked('a', kPage));
    co_await c.write(desc.id, 0, marked('b', kPage));
  };
  w.sim.spawn(setup(*client, &blob));
  w.sim.run();
  EXPECT_EQ(w.total_pages_stored(), 6u);  // 2 versions x 3 replicas
  GcStats stats;
  auto gc = [](GcWorld* world, BlobId b, GcStats* out) -> sim::Task<void> {
    *out = co_await collect_garbage(world->cluster, 0, b, 2);
  };
  w.sim.spawn(gc(&w, blob, &stats));
  w.sim.run();
  EXPECT_EQ(stats.page_replicas_deleted, 3u);
  EXPECT_EQ(w.total_pages_stored(), 3u);
}

// Property test: random write/append workload, GC at a random watermark;
// expected reclaimed page count is computed from the history oracle and
// every kept version must still read back exactly as the reference replay.
class GcOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(GcOracleTest, ReclaimsExactlyTheUnreachablePages) {
  Rng rng(GetParam());
  GcWorld w;
  auto client = w.cluster.make_client(rng.below(16));

  struct Op {
    uint64_t offset;
    uint64_t len;
    uint64_t seed;
  };
  std::vector<Op> ops;
  uint64_t size = 0;
  const int num_ops = 10;
  for (int i = 0; i < num_ops; ++i) {
    Op op;
    op.seed = 500 + i;
    if (size == 0 || rng.chance(0.4)) {
      op.offset = size;
      op.len = kPage * (1 + rng.below(3));
    } else {
      const uint64_t pages = size / kPage;
      const uint64_t first = rng.below(pages);
      op.offset = first * kPage;
      op.len = kPage * (1 + rng.below(pages - first));
    }
    size = std::max(size, op.offset + op.len);
    ops.push_back(op);
  }

  BlobId blob = 0;
  auto run_ops = [](BlobClient& c, const std::vector<Op>& the_ops,
                    BlobId* out) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    *out = desc.id;
    for (const auto& op : the_ops) {
      co_await c.write(desc.id, op.offset, DataSpec::pattern(op.seed, 0, op.len));
    }
  };
  w.sim.spawn(run_ops(*client, ops, &blob));
  w.sim.run();

  const Version keep_from = 1 + static_cast<Version>(rng.below(num_ops));

  // Oracle: a page replica (p, u) with u < keep_from is dead iff some later
  // version w in (u, keep_from] also wrote page p.
  uint64_t expected_dead = 0;
  for (Version u = 1; u < keep_from; ++u) {
    const Op& op = ops[u - 1];
    for (uint64_t p = op.offset / kPage; p < (op.offset + op.len) / kPage +
             ((op.offset + op.len) % kPage ? 1 : 0); ++p) {
      bool overwritten = false;
      for (Version v = u + 1; v <= keep_from; ++v) {
        const Op& later = ops[v - 1];
        const uint64_t lo = later.offset / kPage;
        const uint64_t hi = (later.offset + later.len + kPage - 1) / kPage;
        if (p >= lo && p < hi) {
          overwritten = true;
          break;
        }
      }
      if (overwritten) ++expected_dead;
    }
  }

  const uint64_t before = w.total_pages_stored();
  GcStats stats;
  auto gc = [](GcWorld* world, BlobId b, Version keep,
               GcStats* out) -> sim::Task<void> {
    *out = co_await collect_garbage(world->cluster, 0, b, keep);
  };
  w.sim.spawn(gc(&w, blob, keep_from, &stats));
  w.sim.run();
  EXPECT_EQ(stats.page_replicas_deleted, expected_dead);
  EXPECT_EQ(w.total_pages_stored(), before - expected_dead);

  // Every kept version still matches the reference replay.
  Bytes ref;
  int mismatches = 0;
  auto verify = [](BlobClient& c, BlobId b, Version v, Bytes expect,
                   int* bad) -> sim::Task<void> {
    auto got = co_await c.read(b, v, 0, expect.size());
    if (got.materialize() != expect) ++*bad;
  };
  for (Version v = 1; v <= static_cast<Version>(num_ops); ++v) {
    const Op& op = ops[v - 1];
    if (ref.size() < op.offset + op.len) ref.resize(op.offset + op.len, 0);
    auto bytes = DataSpec::pattern(op.seed, 0, op.len).materialize();
    std::copy(bytes.begin(), bytes.end(),
              ref.begin() + static_cast<ptrdiff_t>(op.offset));
    if (v < keep_from) continue;  // pruned
    w.sim.spawn(verify(*client, blob, v, ref, &mismatches));
    w.sim.run();
  }
  EXPECT_EQ(mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcOracleTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace bs::blob
