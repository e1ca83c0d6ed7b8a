// Tests for the consistent-hash ring and the metadata DHT service.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "common/hash.h"
#include "common/rng.h"
#include "dht/dht.h"
#include "dht/ring.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "sim/parallel.h"
#include "sim/simulator.h"

namespace bs::dht {
namespace {

std::vector<net::NodeId> nodes_0_to(uint32_t n) {
  std::vector<net::NodeId> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(HashRing, PrimaryIsDeterministic) {
  HashRing ring(nodes_0_to(10));
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(ring.primary(k * 7919), ring.primary(k * 7919));
  }
}

TEST(HashRing, ReplicasAreDistinct) {
  HashRing ring(nodes_0_to(10));
  for (uint64_t k = 0; k < 200; ++k) {
    auto reps = ring.replicas(fnv1a64_u64(k), 3);
    ASSERT_EQ(reps.size(), 3u);
    std::set<net::NodeId> uniq(reps.begin(), reps.end());
    EXPECT_EQ(uniq.size(), 3u);
    EXPECT_EQ(reps[0], ring.primary(fnv1a64_u64(k)));
  }
}

TEST(HashRing, ReplicationClampedToNodeCount) {
  HashRing ring(nodes_0_to(2));
  auto reps = ring.replicas(12345, 5);
  EXPECT_EQ(reps.size(), 2u);
}

TEST(HashRing, LoadSpreadIsReasonable) {
  // With vnodes, the busiest node should hold well under 3x the average.
  HashRing ring(nodes_0_to(16), 128);
  std::vector<int> counts(16, 0);
  Rng rng(5);
  const int keys = 20000;
  for (int k = 0; k < keys; ++k) counts[ring.primary(rng.next())]++;
  const int avg = keys / 16;
  for (int c : counts) {
    EXPECT_GT(c, avg / 3);
    EXPECT_LT(c, avg * 3);
  }
}

TEST(HashRing, SingleNodeTakesEverything) {
  HashRing ring({7});
  EXPECT_EQ(ring.primary(1), 7u);
  EXPECT_EQ(ring.primary(999), 7u);
}

// The ring's routing against a plain reference: every node's 64 points
// sorted by (hash, node), a key's primary the first point at or after it
// (std::lower_bound, wrapping), its replicas the next distinct nodes.
struct ReferenceRing {
  std::vector<std::pair<uint64_t, net::NodeId>> points;

  explicit ReferenceRing(const std::vector<net::NodeId>& nodes) {
    for (net::NodeId n : nodes) {
      for (uint64_t v = 0; v < 64; ++v) {
        points.emplace_back(fnv1a64_u64(v, fnv1a64_u64(n, 0x9e3779b97f4a7c15ULL)),
                            n);
      }
    }
    std::sort(points.begin(), points.end());
  }
  size_t first(uint64_t key) const {
    auto it = std::lower_bound(
        points.begin(), points.end(), key,
        [](const std::pair<uint64_t, net::NodeId>& p, uint64_t k) {
          return p.first < k;
        });
    return it == points.end() ? 0 : static_cast<size_t>(it - points.begin());
  }
  std::vector<net::NodeId> replicas(uint64_t key, size_t k) const {
    std::vector<net::NodeId> out;
    for (size_t i = first(key), steps = 0;
         out.size() < k && steps < points.size(); ++steps) {
      const net::NodeId n = points[i].second;
      if (std::find(out.begin(), out.end(), n) == out.end()) out.push_back(n);
      i = i + 1 == points.size() ? 0 : i + 1;
    }
    return out;
  }
};

TEST(HashRing, RoutesLikeABinarySearchOverThePoints) {
  for (uint32_t count : {1u, 2u, 16u, 270u}) {
    const std::vector<net::NodeId> nodes = nodes_0_to(count);
    const HashRing ring(nodes);
    const ReferenceRing ref(nodes);
    std::vector<uint64_t> keys = {0, UINT64_MAX};
    for (const auto& [hash, node] : ref.points) {
      keys.push_back(hash - 1);  // wraps to UINT64_MAX below a 0 hash
      keys.push_back(hash);
      keys.push_back(hash + 1);
    }
    Rng rng(23 + count);
    for (int i = 0; i < 100000; ++i) keys.push_back(rng.next());
    for (uint64_t key : keys) {
      ASSERT_EQ(ring.primary(key), ref.points[ref.first(key)].second)
          << count << " nodes, key " << key;
      const size_t k = 1 + key % 4;
      ASSERT_EQ(ring.replicas(key, k), ref.replicas(key, k))
          << count << " nodes, key " << key << " k=" << k;
    }
  }
}

net::ClusterConfig small_net() {
  net::ClusterConfig cfg;
  cfg.num_nodes = 16;
  cfg.nodes_per_rack = 8;
  return cfg;
}

sim::Task<void> round_trip(net::Service* s, net::NodeId client) {
  co_await s->request(client);
  co_await s->reply(client);
}

TEST(ServiceRing, OwnerIsTheHashRingPrimary) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  const HashRing ring(nodes_0_to(8));
  ServiceRing services(net, nodes_0_to(8), 1e-3);
  Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    const uint64_t h = rng.next();
    ASSERT_EQ(services.owner(h).node(), ring.primary(h)) << h;
  }
}

TEST(ServiceRing, OneNodeRingOwnsEveryHash) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  ServiceRing services(net, {7}, 1e-3);
  for (uint64_t h : {0ULL, 1ULL, 999ULL, ~0ULL}) {
    EXPECT_EQ(&services.owner(h), &services.at(0));
    EXPECT_EQ(services.owner(h).node(), 7u);
  }
}

TEST(ServiceRing, ReplicasMatchTheHashRing) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  const HashRing ring(nodes_0_to(8));
  ServiceRing services(net, nodes_0_to(8), 1e-3);
  for (uint64_t k = 0; k < 500; ++k) {
    const uint64_t h = fnv1a64_u64(k);
    for (size_t n : {1u, 3u, 8u, 10u}) {
      std::vector<net::NodeId> got;
      for (net::Service* s : services.replicas(h, n)) got.push_back(s->node());
      ASSERT_EQ(got, ring.replicas(h, n)) << h << " k=" << n;
    }
  }
}

TEST(ServiceRing, PositionIsThePrimarysPlaceInTheNodeList) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  const std::vector<net::NodeId> nodes = {9, 3, 15, 0, 7, 12, 1, 4};
  const HashRing ring(nodes);
  ServiceRing services(net, nodes, 1e-3);
  Rng rng(31);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t h = rng.next();
    const size_t want = static_cast<size_t>(
        std::find(nodes.begin(), nodes.end(), ring.primary(h)) -
        nodes.begin());
    ASSERT_EQ(services.position(h), want) << h;
    ASSERT_EQ(&services.owner(h), &services.at(want)) << h;
  }
}

TEST(ServiceRing, RejectsADuplicateNode) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  EXPECT_DEATH(ServiceRing(net, {4, 9, 4}, 1e-3),
               "duplicate service ring node");
}

TEST(ServiceRing, RequestsPerNodeIsSortedByNode) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  ServiceRing services(net, {9, 3, 5}, 1e-3);
  // Positions 0, 1, 2 (nodes 9, 3, 5) take 1, 2 and 3 requests.
  for (size_t i = 0; i < services.size(); ++i) {
    for (size_t r = 0; r <= i; ++r) sim.spawn(round_trip(&services.at(i), 0));
  }
  sim.run();
  const std::map<net::NodeId, uint64_t> per_node = services.requests_per_node();
  const std::vector<std::pair<const net::NodeId, uint64_t>> in_order(
      per_node.begin(), per_node.end());
  const std::vector<std::pair<const net::NodeId, uint64_t>> want = {
      {3, 2}, {5, 3}, {9, 1}};
  EXPECT_EQ(in_order, want);
  EXPECT_EQ(services.total_requests(), 6u);
  EXPECT_EQ(services.queue_depth(), 0u);
}

TEST(ServiceRing, NamedRingCountsEachShardByConstructorPosition) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  obs::MetricsRegistry& m = sim.metrics();
  const size_t before = m.size();
  ServiceRing unnamed(net, {9, 3, 5}, 1e-3);
  EXPECT_EQ(m.size(), before);
  ServiceRing named(net, {9, 3, 5}, 1e-3, "test/requests");
  EXPECT_EQ(m.size(), before + 3);
  sim.spawn(round_trip(&named.at(0), 0));
  sim.spawn(round_trip(&named.at(2), 0));
  sim.spawn(round_trip(&named.at(2), 0));
  sim.spawn(round_trip(&unnamed.at(1), 0));
  sim.run();
  EXPECT_EQ(m.counter("test/requests", {{"shard", "0"}}).value(), 1.0);
  EXPECT_EQ(m.counter("test/requests", {{"shard", "1"}}).value(), 0.0);
  EXPECT_EQ(m.counter("test/requests", {{"shard", "2"}}).value(), 2.0);
  EXPECT_EQ(m.size(), before + 3);
}

TEST(Dht, PutThenGetRoundtrips) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  Dht dht(sim, net, nodes_0_to(8));
  bool checked = false;
  auto proc = [](Dht& d, bool* ok) -> sim::Task<void> {
    Bytes v123(3); v123[0]=1; v123[1]=2; v123[2]=3;
    co_await d.put(9, "key1", v123);
    auto got = co_await d.get(9, "key1");
    auto missing = co_await d.get(9, "nope");
    *ok = got.has_value() && *got == v123 && !missing.has_value();
  };
  sim.spawn(proc(dht, &checked));
  sim.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(dht.puts(), 1u);
  EXPECT_EQ(dht.gets(), 2u);
  EXPECT_EQ(dht.total_entries(), 1u);
}

TEST(Dht, ReplicationStoresCopies) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  DhtConfig cfg;
  cfg.replication = 3;
  Dht dht(sim, net, nodes_0_to(8), cfg);
  auto proc = [](Dht& d) -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await d.put(9, "k" + std::to_string(i), Bytes(1, static_cast<uint8_t>(i)));
    }
  };
  sim.spawn(proc(dht));
  sim.run();
  EXPECT_EQ(dht.total_entries(), 30u);  // 10 keys × 3 replicas
}

TEST(Dht, RequestCostIncludesLatencyAndService) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  DhtConfig cfg;
  cfg.service_time_s = 1e-3;
  Dht dht(sim, net, nodes_0_to(8), cfg);
  auto proc = [](Dht& d) -> sim::Task<void> {
    co_await d.put(9, "k", Bytes(1, 1));
  };
  sim.spawn(proc(dht));
  sim.run();
  // 2 × control latency (200us) + 1ms service.
  EXPECT_NEAR(sim.now(), 2 * 200e-6 + 1e-3, 1e-9);
}

TEST(Dht, ConcurrentClientsSpreadOverServers) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  DhtConfig cfg;
  cfg.service_time_s = 1e-3;
  Dht dht(sim, net, nodes_0_to(8), cfg);
  auto proc = [](Dht& d, int id) -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      co_await d.put(15, "client" + std::to_string(id) + "/" + std::to_string(i),
                     Bytes(1, 1));
    }
  };
  for (int c = 0; c < 8; ++c) sim.spawn(proc(dht, c));
  sim.run();
  // 160 requests over 8 servers at 1ms each: if they were serialized at one
  // server it would take 160ms+; spread, the span should be far less.
  EXPECT_LT(sim.now(), 0.1);
  auto per_node = dht.requests_per_node();
  uint64_t total = 0, busiest = 0;
  for (auto& [n, c] : per_node) {
    total += c;
    busiest = std::max(busiest, c);
  }
  EXPECT_EQ(total, 160u);
  EXPECT_LT(busiest, 70u);  // no single hotspot
}

// With no replicas a put would store nothing and still return normally.
TEST(DhtDeathTest, ZeroReplicationIsRejected) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  DhtConfig cfg;
  cfg.replication = 0;
  EXPECT_DEATH(Dht(sim, net, nodes_0_to(8), cfg),
               "DHT replication must be at least 1");
}

TEST(Dht, OverwriteReplacesValue) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  Dht dht(sim, net, nodes_0_to(4));
  bool ok = false;
  auto proc = [](Dht& d, bool* out) -> sim::Task<void> {
    co_await d.put(0, "k", Bytes(1, 1));
    co_await d.put(0, "k", Bytes(1, 2));
    auto got = co_await d.get(0, "k");
    *out = got.has_value() && *got == Bytes(1, 2);
  };
  sim.spawn(proc(dht, &ok));
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(dht.total_entries(), 1u);
}

}  // namespace
}  // namespace bs::dht
