// Integration tests for the BlobSeer core: full write/read protocol through
// the simulated cluster, versioning semantics, concurrent writers and
// appends, layout exposure, placement policies, and provider behavior.
// These run with real byte payloads so every read is verified byte-exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "blob/cluster.h"
#include "common/rng.h"
#include "net/network.h"
#include "sim/parallel.h"
#include "sim/simulator.h"

namespace bs::blob {
namespace {

constexpr uint64_t kPage = 64;  // tiny pages keep tests byte-exact and fast

net::ClusterConfig test_net(uint32_t nodes = 16) {
  net::ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.nodes_per_rack = 4;
  return cfg;
}

Bytes make_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

// Fills `n` bytes with a marker so overlapping writes are distinguishable.
DataSpec marked(uint8_t marker, uint64_t n) {
  return DataSpec::from_bytes(Bytes(n, marker));
}

struct TestWorld {
  sim::Simulator sim;
  net::Network net;
  BlobSeerCluster cluster;

  explicit TestWorld(net::ClusterConfig ncfg = test_net(),
                     BlobSeerConfig bcfg = {})
      : net(sim, ncfg), cluster(sim, net, std::move(bcfg)) {}
};

TEST(BlobCore, WriteReadRoundtripSinglePage) {
  TestWorld w;
  auto client = w.cluster.make_client(3);
  bool ok = false;
  auto proc = [](BlobClient& c, bool* out) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    const Version v =
        co_await c.write(desc.id, 0, DataSpec::from_string("hello blobseer"));
    auto back = co_await c.read(desc.id, v, 0, 14);
    *out = back.materialize() == make_bytes("hello blobseer");
  };
  w.sim.spawn(proc(*client, &ok));
  w.sim.run();
  EXPECT_TRUE(ok);
}

TEST(BlobCore, MultiPageRoundtripWithPartialTail) {
  TestWorld w;
  auto client = w.cluster.make_client(0);
  bool ok = false;
  auto proc = [](BlobClient& c, bool* out) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    auto payload = DataSpec::pattern(77, 0, kPage * 3 + 17);
    const Version v = co_await c.write(desc.id, 0, payload);
    const uint64_t size = co_await c.size(desc.id);
    auto back = co_await c.read(desc.id, v, 0, size);
    *out = size == kPage * 3 + 17 && back.content_equals(payload);
  };
  w.sim.spawn(proc(*client, &ok));
  w.sim.run();
  EXPECT_TRUE(ok);
}

TEST(BlobCore, SubrangeReadsAtOddOffsets) {
  TestWorld w;
  auto client = w.cluster.make_client(0);
  int failures = -1;
  auto proc = [](BlobClient& c, int* fails) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    auto payload = DataSpec::pattern(5, 0, kPage * 4);
    const Version v = co_await c.write(desc.id, 0, payload);
    *fails = 0;
    for (uint64_t off : {0ull, 1ull, 63ull, 64ull, 100ull, 255ull}) {
      for (uint64_t len : {1ull, 17ull, 64ull, 130ull}) {
        if (off + len > kPage * 4) continue;
        auto got = co_await c.read(desc.id, v, off, len);
        if (!got.content_equals(payload.slice(off, len))) ++*fails;
      }
    }
  };
  w.sim.spawn(proc(*client, &failures));
  w.sim.run();
  EXPECT_EQ(failures, 0);
}

TEST(BlobCore, ReadPastEndTruncates) {
  TestWorld w;
  auto client = w.cluster.make_client(0);
  uint64_t got_size = 999;
  auto proc = [](BlobClient& c, uint64_t* out) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    co_await c.write(desc.id, 0, marked(1, 100));
    auto back = co_await c.read(desc.id, kNoVersion, 50, 1000);
    *out = back.size();
  };
  w.sim.spawn(proc(*client, &got_size));
  w.sim.run();
  EXPECT_EQ(got_size, 50u);
}

TEST(BlobCore, ReadEmptyBlobYieldsNothing) {
  TestWorld w;
  auto client = w.cluster.make_client(0);
  uint64_t got = 1;
  auto proc = [](BlobClient& c, uint64_t* out) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    auto back = co_await c.read(desc.id, kNoVersion, 0, 100);
    *out = back.size();
  };
  w.sim.spawn(proc(*client, &got));
  w.sim.run();
  EXPECT_EQ(got, 0u);
}

TEST(BlobCore, OldVersionsAreImmutableSnapshots) {
  TestWorld w;
  auto client = w.cluster.make_client(0);
  bool v1_ok = false, v2_ok = false;
  auto proc = [](BlobClient& c, bool* ok1, bool* ok2) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    const Version v1 = co_await c.write(desc.id, 0, marked('A', kPage * 2));
    const Version v2 = co_await c.write(desc.id, kPage, marked('B', kPage));
    auto r1 = co_await c.read(desc.id, v1, 0, kPage * 2);
    auto r2 = co_await c.read(desc.id, v2, 0, kPage * 2);
    Bytes want1(kPage * 2, 'A');
    Bytes want2(kPage, 'A');
    want2.insert(want2.end(), kPage, 'B');
    *ok1 = r1.materialize() == want1;
    *ok2 = r2.materialize() == want2;
  };
  w.sim.spawn(proc(*client, &v1_ok, &v2_ok));
  w.sim.run();
  EXPECT_TRUE(v1_ok);
  EXPECT_TRUE(v2_ok);
}

TEST(BlobCore, AppendsGrowTheBlob) {
  TestWorld w;
  auto client = w.cluster.make_client(0);
  bool ok = false;
  auto proc = [](BlobClient& c, bool* out) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    std::vector<Version> versions;
    for (int i = 0; i < 5; ++i) {
      versions.push_back(
          co_await c.append(desc.id, marked(static_cast<uint8_t>('a' + i), kPage)));
    }
    // Versions are consecutive and sizes grow by one page per append.
    bool good = true;
    for (int i = 0; i < 5; ++i) {
      good = good && versions[i] == static_cast<Version>(i + 1);
      const uint64_t sz = co_await c.size(desc.id, versions[i]);
      good = good && sz == kPage * (i + 1);
    }
    auto all = co_await c.read(desc.id, kNoVersion, 0, kPage * 5);
    Bytes want;
    for (int i = 0; i < 5; ++i) want.insert(want.end(), kPage, 'a' + i);
    *out = good && all.materialize() == want;
  };
  w.sim.spawn(proc(*client, &ok));
  w.sim.run();
  EXPECT_TRUE(ok);
}

TEST(BlobCore, SparseWriteReadsZerosInHole) {
  TestWorld w;
  auto client = w.cluster.make_client(0);
  bool ok = false;
  auto proc = [](BlobClient& c, bool* out) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    co_await c.write(desc.id, 0, marked('x', kPage));
    // Leave pages 1-2 unwritten; write page 3.
    co_await c.write(desc.id, 3 * kPage, marked('y', kPage));
    auto back = co_await c.read(desc.id, kNoVersion, 0, 4 * kPage);
    Bytes want(kPage, 'x');
    want.insert(want.end(), 2 * kPage, 0);
    want.insert(want.end(), kPage, 'y');
    *out = back.materialize() == want;
  };
  w.sim.spawn(proc(*client, &ok));
  w.sim.run();
  EXPECT_TRUE(ok);
}

TEST(BlobCore, ConcurrentWritersSerializeIntoTotalOrder) {
  TestWorld w;
  constexpr int kWriters = 8;
  std::vector<std::unique_ptr<BlobClient>> clients;
  for (int i = 0; i < kWriters; ++i) {
    clients.push_back(w.cluster.make_client(i % w.net.config().num_nodes));
  }
  BlobId blob = 0;
  std::vector<std::pair<Version, uint8_t>> writes;  // (version, marker)

  // One creator, then all writers hammer the same page concurrently.
  auto setup = [](BlobClient& c, BlobId* out) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    *out = desc.id;
  };
  w.sim.spawn(setup(*clients[0], &blob));
  w.sim.run();
  ASSERT_NE(blob, 0u);

  auto writer = [](BlobClient& c, BlobId b, uint8_t marker,
                   std::vector<std::pair<Version, uint8_t>>* log)
      -> sim::Task<void> {
    const Version v = co_await c.write(b, 0, marked(marker, kPage));
    log->emplace_back(v, marker);
  };
  for (int i = 0; i < kWriters; ++i) {
    w.sim.spawn(writer(*clients[i], blob, static_cast<uint8_t>('A' + i), &writes));
  }
  w.sim.run();

  ASSERT_EQ(writes.size(), static_cast<size_t>(kWriters));
  std::set<Version> versions;
  for (auto& [v, m] : writes) versions.insert(v);
  EXPECT_EQ(versions.size(), static_cast<size_t>(kWriters));  // distinct
  EXPECT_EQ(*versions.begin(), 1u);                           // dense from 1
  EXPECT_EQ(*versions.rbegin(), static_cast<Version>(kWriters));

  // Each version reads back exactly its writer's marker (snapshot isolation),
  // and `latest` equals the highest version's content.
  std::map<Version, uint8_t> by_version(writes.begin(), writes.end());
  int bad = 0;
  auto verify = [](BlobClient& c, BlobId b, Version v, uint8_t marker,
                   int* errs) -> sim::Task<void> {
    auto got = co_await c.read(b, v, 0, kPage);
    if (got.materialize() != Bytes(kPage, marker)) ++*errs;
  };
  for (auto& [v, m] : by_version) {
    w.sim.spawn(verify(*clients[0], blob, v, m, &bad));
  }
  w.sim.run();
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(w.cluster.version_manager().published_version(blob),
            static_cast<Version>(kWriters));
}

TEST(BlobCore, ConcurrentAppendsGetDisjointRanges) {
  TestWorld w;
  constexpr int kAppenders = 10;
  std::vector<std::unique_ptr<BlobClient>> clients;
  for (int i = 0; i < kAppenders; ++i) clients.push_back(w.cluster.make_client(i));
  BlobId blob = 0;
  auto setup = [](BlobClient& c, BlobId* out) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    *out = desc.id;
  };
  w.sim.spawn(setup(*clients[0], &blob));
  w.sim.run();

  auto appender = [](BlobClient& c, BlobId b, uint8_t marker) -> sim::Task<void> {
    co_await c.append(b, marked(marker, kPage));
  };
  for (int i = 0; i < kAppenders; ++i) {
    w.sim.spawn(appender(*clients[i], blob, static_cast<uint8_t>('a' + i)));
  }
  w.sim.run();

  // Final blob: every marker appears exactly once across kAppenders pages.
  bool ok = false;
  auto check = [](BlobClient& c, BlobId b, bool* out) -> sim::Task<void> {
    const uint64_t size = co_await c.size(b);
    if (size != kPage * kAppenders) {
      *out = false;
      co_return;
    }
    auto all = co_await c.read(b, kNoVersion, 0, size);
    Bytes bytes = all.materialize();
    std::multiset<uint8_t> markers;
    bool uniform = true;
    for (int p = 0; p < kAppenders; ++p) {
      const uint8_t m = bytes[p * kPage];
      markers.insert(m);
      for (uint64_t i = 0; i < kPage; ++i) {
        uniform = uniform && bytes[p * kPage + i] == m;
      }
    }
    *out = uniform && markers.size() == kAppenders &&
           std::set<uint8_t>(markers.begin(), markers.end()).size() ==
               kAppenders;
  };
  w.sim.spawn(check(*clients[0], blob, &ok));
  w.sim.run();
  EXPECT_TRUE(ok);
}

TEST(BlobCore, ReplicationPlacesDistinctProviders) {
  BlobSeerConfig bcfg;
  TestWorld w(test_net(), std::move(bcfg));
  auto client = w.cluster.make_client(0);
  bool distinct = false;
  auto proc = [](BlobClient& c, bool* out) -> sim::Task<void> {
    auto desc = co_await c.create(kPage, /*replication=*/3);
    const Version v = co_await c.write(desc.id, 0, marked(1, kPage * 2));
    auto locs = co_await c.locate(desc.id, v, 0, kPage * 2);
    bool good = locs.size() == 2;
    for (const auto& loc : locs) {
      good = good && loc.providers.size() == 3;
      std::set<net::NodeId> uniq(loc.providers.begin(), loc.providers.end());
      good = good && uniq.size() == 3;
    }
    *out = good;
  };
  w.sim.spawn(proc(*client, &distinct));
  w.sim.run();
  EXPECT_TRUE(distinct);
}

TEST(BlobCore, LocateMatchesActualPageProviders) {
  TestWorld w;
  auto client = w.cluster.make_client(0);
  bool verified = false;
  auto proc = [](TestWorld& world, BlobClient& c, bool* out) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    auto payload = DataSpec::pattern(3, 0, kPage * 4);
    const Version v = co_await c.write(desc.id, 0, payload);
    auto locs = co_await c.locate(desc.id, v, 0, kPage * 4);
    bool good = locs.size() == 4;
    for (const auto& loc : locs) {
      if (!good) break;
      // The named provider must actually hold the page.
      Provider& p = world.cluster.provider_on(loc.providers.at(0));
      auto page = co_await p.get_page(c.node(), PageKey{desc.id, loc.index,
                                                        loc.version});
      good = page.has_value() &&
             page->content_equals(payload.slice(loc.index * kPage, kPage));
    }
    *out = good;
  };
  w.sim.spawn(proc(w, *client, &verified));
  w.sim.run();
  EXPECT_TRUE(verified);
}

TEST(BlobCore, LeastLoadedPlacementBalances) {
  TestWorld w;
  auto client = w.cluster.make_client(0);
  auto proc = [](BlobClient& c) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    // 160 pages over 16 providers: ~10 pages each under least-loaded.
    co_await c.write(desc.id, 0, DataSpec::pattern(1, 0, kPage * 160));
  };
  w.sim.spawn(proc(*client));
  w.sim.run();
  const auto load = w.cluster.provider_manager().load_sorted();
  uint64_t min_load = UINT64_MAX, max_load = 0;
  for (auto& [node, bytes] : load) {
    min_load = std::min(min_load, bytes);
    max_load = std::max(max_load, bytes);
  }
  EXPECT_EQ(max_load, min_load);  // perfectly balanced at equal page sizes
}

TEST(BlobCore, LocalFirstPolicyPrefersClientNode) {
  BlobSeerConfig bcfg;
  bcfg.manager.policy = PlacementPolicy::kLocalFirst;
  TestWorld w(test_net(), std::move(bcfg));
  auto client = w.cluster.make_client(5);
  auto proc = [](BlobClient& c) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    co_await c.write(desc.id, 0, DataSpec::pattern(1, 0, kPage * 8));
  };
  w.sim.spawn(proc(*client));
  w.sim.run();
  const auto load = w.cluster.provider_manager().load_sorted();
  const auto local = std::find_if(load.begin(), load.end(),
                                  [](const auto& p) { return p.first == 5; });
  ASSERT_NE(local, load.end());
  EXPECT_EQ(local->second, kPage * 8);
}

TEST(BlobCore, VersionsPublishInOrderEvenIfCommitsArriveOutOfOrder) {
  TestWorld w;
  auto c1 = w.cluster.make_client(1);
  auto c2 = w.cluster.make_client(2);
  BlobId blob = 0;
  auto setup = [](BlobClient& c, BlobId* out) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    *out = desc.id;
  };
  w.sim.spawn(setup(*c1, &blob));
  w.sim.run();

  // Writer A grabs version 1 then stalls before writing anything; writer B
  // (version 2) finishes completely. B must stay unpublished until A
  // commits.
  Version check_mid = 99, check_end = 99;
  auto writer_a = [](TestWorld& world, BlobClient& c, BlobId b) -> sim::Task<void> {
    auto& vm = world.cluster.version_manager();
    auto ticket = co_await vm.assign_write(c.node(), b, 0, kPage);
    co_await world.sim.delay(5.0);  // stall with v1 assigned
    // Complete v1 late: no pages/metadata needed for the test — but a real
    // reader would need them, so write a page for cleanliness.
    (void)ticket;
    co_await vm.commit(c.node(), b, 1);
  };
  auto writer_b = [](TestWorld& world, BlobClient& c, BlobId b,
                     Version* mid) -> sim::Task<void> {
    co_await world.sim.delay(0.1);
    auto& vm = world.cluster.version_manager();
    auto ticket = co_await vm.assign_write(c.node(), b, 0, kPage);
    co_await vm.commit(c.node(), b, ticket.version);
    *mid = vm.published_version(b);
  };
  auto checker = [](TestWorld& world, BlobId b, Version* end) -> sim::Task<void> {
    co_await world.sim.delay(10.0);
    *end = world.cluster.version_manager().published_version(b);
  };
  w.sim.spawn(writer_a(w, *c1, blob));
  w.sim.spawn(writer_b(w, *c2, blob, &check_mid));
  w.sim.spawn(checker(w, blob, &check_end));
  w.sim.run();
  EXPECT_EQ(check_mid, kNoVersion);  // v2 committed but v1 outstanding
  EXPECT_EQ(check_end, 2u);          // both published once v1 committed
}

TEST(Provider, BackpressureDegradesToDiskSpeed) {
  // RAM smaller than the written volume: the writer must end up throttled
  // by the disk drain rate, not the network.
  net::ClusterConfig ncfg = test_net(4);
  ncfg.nic_bps = 100e6;
  ncfg.disk_write_bps = 10e6;
  ncfg.disk_seek_s = 0;
  BlobSeerConfig bcfg;
  bcfg.provider.ram_bytes = 4 << 20;  // 4 MB
  bcfg.provider_nodes = {1};          // single provider
  TestWorld w(ncfg, std::move(bcfg));
  auto client = w.cluster.make_client(0);
  auto proc = [](BlobClient& c, TestWorld& world) -> sim::Task<void> {
    auto desc = co_await c.create(1 << 20);  // 1 MB pages
    co_await c.write(desc.id, 0, DataSpec::pattern(1, 0, 40 << 20));
    co_await world.cluster.drain_all();
  };
  w.sim.spawn(proc(*client, w));
  w.sim.run();
  // 40 MB through a 10 MB/s disk: at least 4 seconds.
  EXPECT_GE(w.sim.now(), 4.0);
  EXPECT_LT(w.sim.now(), 5.0);
}

TEST(Provider, RamWritesAreNetworkBound) {
  // RAM larger than the written volume: write completes at network speed,
  // long before the disk could have absorbed it.
  net::ClusterConfig ncfg = test_net(4);
  ncfg.nic_bps = 100e6;
  ncfg.disk_write_bps = 10e6;
  BlobSeerConfig bcfg;
  bcfg.provider.ram_bytes = 1 << 30;
  bcfg.provider_nodes = {1};
  TestWorld w(ncfg, std::move(bcfg));
  auto client = w.cluster.make_client(0);
  double write_done = 0;
  auto proc = [](BlobClient& c, TestWorld& world, double* done) -> sim::Task<void> {
    auto desc = co_await c.create(1 << 20);
    co_await c.write(desc.id, 0, DataSpec::pattern(1, 0, 40 << 20));
    *done = world.sim.now();
  };
  w.sim.spawn(proc(*client, w, &write_done));
  w.sim.run();
  // 40 MB at ~100 MB/s ≈ 0.42 s (plus protocol overheads), way under the
  // 4.2 s the disk would need.
  EXPECT_LT(write_done, 1.0);
}

TEST(Provider, CacheHitsServeRepeatedReads) {
  TestWorld w;
  auto client = w.cluster.make_client(0);
  auto proc = [](BlobClient& c) -> sim::Task<void> {
    auto desc = co_await c.create(kPage);
    const Version v = co_await c.write(desc.id, 0, marked(1, kPage));
    for (int i = 0; i < 5; ++i) co_await c.read(desc.id, v, 0, kPage);
  };
  w.sim.spawn(proc(*client));
  w.sim.run();
  uint64_t hits = 0, misses = 0;
  for (const auto& p : w.cluster.all_providers()) {
    hits += p->cache_hits();
    misses += p->cache_misses();
  }
  EXPECT_EQ(hits, 5u);  // freshly written page stays RAM-resident
  EXPECT_EQ(misses, 0u);
}

// Re-storing a page a provider already holds keeps one resident copy: a
// clean cached copy leaves the LRU before the page is admitted again, and a
// copy still in the unsynced window is not admitted a second time.
constexpr uint64_t kBigPage = 64 * 1024;

sim::Task<bool> store_big_page(Provider& p) {
  return p.put_page(0, PageKey{1, 0, 1}, DataSpec::pattern(7, 0, kBigPage));
}

// Stores one page twice, one store after the other or both at once, and
// returns the provider's RAM use once everything is on disk.
uint64_t ram_after_two_stores(bool read_cache, bool concurrent) {
  sim::Simulator sim;
  net::Network net(sim, test_net(4));
  ProviderConfig cfg;
  cfg.node = 1;
  cfg.read_cache = read_cache;
  Provider p(sim, net, cfg);
  auto one_by_one = [](Provider& prov) -> sim::Task<void> {
    for (int i = 0; i < 2; ++i) {
      co_await store_big_page(prov);
      co_await prov.drain();
    }
  };
  auto together = [](sim::Simulator& s, Provider& prov) -> sim::Task<void> {
    std::vector<sim::Task<bool>> puts;
    for (int i = 0; i < 2; ++i) puts.push_back(store_big_page(prov));
    co_await sim::when_all(s, std::move(puts));
    co_await prov.drain();
  };
  if (concurrent) {
    sim.spawn(together(sim, p));
  } else {
    sim.spawn(one_by_one(p));
  }
  sim.run();
  EXPECT_TRUE(p.has_page(PageKey{1, 0, 1}));
  return p.ram_used();
}

TEST(Provider, ReStoringAHeldPageCountsItsRamOnce) {
  // Put, drain, put the same key, drain: the clean copy is replaced.
  EXPECT_EQ(ram_after_two_stores(/*read_cache=*/true, /*concurrent=*/false),
            kBigPage);
  // Two concurrent puts of one key: one window entry and one page of RAM,
  // kept as the clean cached copy or released once.
  EXPECT_EQ(ram_after_two_stores(/*read_cache=*/true, /*concurrent=*/true),
            kBigPage);
  EXPECT_EQ(ram_after_two_stores(/*read_cache=*/false, /*concurrent=*/true),
            0u);
}

// Property test: a random sequence of writes/appends against one blob,
// mirrored into a flat reference buffer version by version; every published
// version must read back exactly as the reference replay.
class BlobOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(BlobOracleTest, RandomOpsMatchReferenceModel) {
  Rng rng(GetParam());
  TestWorld w;
  auto client = w.cluster.make_client(rng.below(16));

  struct Op {
    uint64_t offset;
    uint64_t seed;
    uint64_t len;
  };
  std::vector<Op> ops;
  uint64_t size = 0;
  const int num_ops = 12;
  for (int i = 0; i < num_ops; ++i) {
    Op op;
    op.seed = 1000 + i;
    if (size == 0 || rng.chance(0.5)) {
      op.offset = size;  // append at page boundary (size stays aligned
                         // because non-final partial pages are disallowed)
      op.offset = (op.offset + kPage - 1) / kPage * kPage;
      op.len = kPage * (1 + rng.below(4));
    } else {
      const uint64_t pages = size / kPage;
      const uint64_t first = rng.below(pages);
      op.offset = first * kPage;
      op.len = kPage * (1 + rng.below(pages - first));
    }
    if (rng.chance(0.2)) op.len += 1 + rng.below(kPage - 1);  // partial tail
    if (op.offset + op.len < size && op.len % kPage != 0) {
      op.len = (op.len / kPage + 1) * kPage;  // keep partial tails at end
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
      co_await c.write(desc.id, op.offset,
                       DataSpec::pattern(op.seed, 0, op.len));
    }
  };
  w.sim.spawn(run_ops(*client, ops, &blob));
  w.sim.run();

  // Reference replay + verification of every version.
  Bytes ref;
  int mismatches = 0;
  auto verify = [](BlobClient& c, BlobId b, Version v, Bytes expect,
                   int* bad) -> sim::Task<void> {
    const uint64_t sz = co_await c.size(b, v);
    if (sz != expect.size()) {
      ++*bad;
      co_return;
    }
    auto got = co_await c.read(b, v, 0, sz);
    if (got.materialize() != expect) ++*bad;
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (ref.size() < op.offset + op.len) ref.resize(op.offset + op.len, 0);
    auto bytes = DataSpec::pattern(op.seed, 0, op.len).materialize();
    std::copy(bytes.begin(), bytes.end(),
              ref.begin() + static_cast<ptrdiff_t>(op.offset));
    w.sim.spawn(verify(*client, blob, static_cast<Version>(i + 1), ref,
                       &mismatches));
    w.sim.run();
  }
  EXPECT_EQ(mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlobOracleTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace bs::blob
