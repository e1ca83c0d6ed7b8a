// Tests for the flow-level network: exact single-flow timing, fair sharing,
// bottleneck behavior, per-flow caps, disks, and solver invariants under
// randomized load (property-style sweep).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/cluster.h"
#include "net/network.h"
#include "net/reference_solver.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "sim/parallel.h"
#include "sim/simulator.h"

namespace bs::net {
namespace {

ClusterConfig small_config() {
  ClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.nodes_per_rack = 4;
  cfg.nic_bps = 100e6;          // round numbers for exact timing checks
  cfg.rack_uplink_bps = 400e6;
  cfg.control_latency_s = 1e-3;
  cfg.disk_read_bps = 50e6;
  cfg.disk_write_bps = 40e6;
  cfg.disk_seek_s = 0.01;
  return cfg;
}

TEST(Cluster, RackMath) {
  ClusterConfig cfg;
  cfg.num_nodes = 270;
  cfg.nodes_per_rack = 30;
  EXPECT_EQ(cfg.num_racks(), 9u);
  EXPECT_EQ(cfg.rack_of(0), 0u);
  EXPECT_EQ(cfg.rack_of(29), 0u);
  EXPECT_EQ(cfg.rack_of(30), 1u);
  EXPECT_TRUE(cfg.same_rack(0, 29));
  EXPECT_FALSE(cfg.same_rack(29, 30));
}

TEST(Network, SingleFlowUsesFullNic) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n) -> sim::Task<void> {
    co_await n.transfer(0, 4, 100e6);  // cross-rack, 100 MB at 100 MB/s
  };
  sim.spawn(proc(net));
  sim.run();
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

TEST(Network, TwoFlowsShareSourceNic) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n, NodeId dst) -> sim::Task<void> {
    co_await n.transfer(0, dst, 50e6);
  };
  sim.spawn(proc(net, 4));
  sim.spawn(proc(net, 5));
  sim.run();
  // Both flows share node 0's 100e6 uplink: 50 MB each at 50 MB/s.
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

TEST(Network, TwoFlowsShareDestinationNic) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n, NodeId src) -> sim::Task<void> {
    co_await n.transfer(src, 7, 50e6);
  };
  sim.spawn(proc(net, 0));
  sim.spawn(proc(net, 1));
  sim.run();
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

TEST(Network, IndependentFlowsDoNotInterfere) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n, NodeId src, NodeId dst) -> sim::Task<void> {
    co_await n.transfer(src, dst, 100e6);
  };
  sim.spawn(proc(net, 0, 4));
  sim.spawn(proc(net, 1, 5));
  sim.spawn(proc(net, 2, 6));
  sim.run();
  // Disjoint node pairs, uplink has room for 4 NIC-rate flows.
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

TEST(Network, RackUplinkBecomesBottleneck) {
  sim::Simulator sim;
  auto cfg = small_config();
  cfg.rack_uplink_bps = 150e6;  // < 2 NICs' worth
  Network net(sim, cfg);
  auto proc = [](Network& n, NodeId src, NodeId dst) -> sim::Task<void> {
    co_await n.transfer(src, dst, 75e6);
  };
  sim.spawn(proc(net, 0, 4));
  sim.spawn(proc(net, 1, 5));
  sim.run();
  // Two flows share the 150e6 uplink: 75 MB at 75 MB/s each.
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

TEST(Network, SameRackAvoidsUplink) {
  sim::Simulator sim;
  auto cfg = small_config();
  cfg.rack_uplink_bps = 1;  // effectively dead uplink
  Network net(sim, cfg);
  auto proc = [](Network& n) -> sim::Task<void> {
    co_await n.transfer(0, 1, 100e6);  // same rack
  };
  sim.spawn(proc(net));
  sim.run();
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

TEST(Network, MaxMinBeatsEqualSplitForUnevenDemand) {
  // Flow A (0→4) is capped elsewhere; flow B (1→4) should get the rest of
  // the destination NIC, not a naive 50%.
  sim::Simulator sim;
  Network net(sim, small_config());
  double b_done = -1;
  auto flow_a = [](Network& n) -> sim::Task<void> {
    co_await n.transfer(0, 4, 20e6, /*rate_cap=*/20e6);
  };
  auto flow_b = [](Network& n, double* done) -> sim::Task<void> {
    co_await n.transfer(1, 4, 80e6);
    *done = n.simulator().now();
  };
  sim.spawn(flow_a(net));
  sim.spawn(flow_b(net, &b_done));
  sim.run();
  // B gets 80 MB/s while A is active (and would finish exactly at 1.0 s).
  EXPECT_NEAR(b_done, 1.0, 1e-6);
}

TEST(Network, RateCapHoldsWithNoContention) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n) -> sim::Task<void> {
    co_await n.transfer(0, 4, 50e6, /*rate_cap=*/25e6);
  };
  sim.spawn(proc(net));
  sim.run();
  EXPECT_NEAR(sim.now(), 2.0, 1e-9);
}

TEST(Network, LoopbackBypassesNic) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n) -> sim::Task<void> {
    co_await n.transfer(3, 3, 100e6);
  };
  sim.spawn(proc(net));
  sim.run();
  EXPECT_NEAR(sim.now(), 100e6 / small_config().loopback_bps, 1e-9);
}

TEST(Network, SequentialFlowsAccumulateTime) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) co_await n.transfer(0, 4, 100e6);
  };
  sim.spawn(proc(net));
  sim.run();
  EXPECT_NEAR(sim.now(), 3.0, 1e-9);
  EXPECT_EQ(net.flows_started(), 3u);
  EXPECT_NEAR(net.bytes_moved(), 300e6, 1);
}

TEST(Network, LateArrivalSlowsExistingFlow) {
  sim::Simulator sim;
  Network net(sim, small_config());
  double first_done = -1;
  auto first = [](Network& n, double* done) -> sim::Task<void> {
    co_await n.transfer(0, 4, 100e6);
    *done = n.simulator().now();
  };
  auto second = [](Network& n) -> sim::Task<void> {
    co_await n.simulator().delay(0.5);
    co_await n.transfer(1, 4, 100e6);
  };
  sim.spawn(first(net, &first_done));
  sim.spawn(second(net));
  sim.run();
  // First: 50 MB in [0,0.5) at full rate, remaining 50 MB at half rate
  // (shared destination NIC) → done at 1.5 s.
  EXPECT_NEAR(first_done, 1.5, 1e-6);
  // Second: 50 MB at half rate until 1.5, then 50 MB at full → 2.0 s.
  EXPECT_NEAR(sim.now(), 2.0, 1e-6);
}

TEST(Network, ControlLatencyIsConstant) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n) -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) co_await n.control(0, 7);
  };
  sim.spawn(proc(net));
  sim.run();
  EXPECT_NEAR(sim.now(), 4e-3, 1e-12);
}

TEST(Disk, SequentialServiceTime) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n) -> sim::Task<void> {
    co_await n.disk(0).write(40e6);  // 1 s at 40 MB/s + 0.01 seek
  };
  sim.spawn(proc(net));
  sim.run();
  EXPECT_NEAR(sim.now(), 1.01, 1e-9);
}

TEST(Disk, ConcurrentRequestsQueueFifo) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n) -> sim::Task<void> {
    co_await n.disk(0).read(50e6);  // 1 s + seek each
  };
  for (int i = 0; i < 3; ++i) sim.spawn(proc(net));
  sim.run();
  EXPECT_NEAR(sim.now(), 3.03, 1e-9);
  EXPECT_NEAR(net.disk(0).bytes_read(), 150e6, 1);
}

TEST(Network, TryTransferMatchesTransferWhenHealthy) {
  sim::Simulator sim;
  Network net(sim, small_config());
  bool ok = false;
  auto proc = [](Network& n, bool* out) -> sim::Task<void> {
    *out = co_await n.try_transfer(0, 4, 100e6);
  };
  sim.spawn(proc(net, &ok));
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

TEST(Network, TryTransferFailsAgainstPoweredOffNode) {
  // The node-down RPC semantics (PR 1) apply to bulk data too: a stream
  // to or from a dead node must fail after the connection timeout, not
  // complete as if healthy — this is what feeds the MapReduce engine's
  // shuffle fetch-failure detection.
  for (const bool kill_src : {false, true}) {
    sim::Simulator sim;
    Network net(sim, small_config());
    net.set_node_up(kill_src ? 0 : 4, false);
    bool ok = true;
    auto proc = [](Network& n, bool* out) -> sim::Task<void> {
      *out = co_await n.try_transfer(0, 4, 100e6);
    };
    sim.spawn(proc(net, &ok));
    sim.run();
    EXPECT_FALSE(ok);
    // No bytes flowed; the caller only paid the connection timeout.
    EXPECT_NEAR(sim.now(), small_config().rpc_timeout_s, 1e-9);
    EXPECT_EQ(net.flows_started(), 0u);
  }
}

TEST(Network, TryTransferFailsWhenEndpointDiesMidStream) {
  sim::Simulator sim;
  Network net(sim, small_config());
  bool ok = true;
  auto proc = [](Network& n, bool* out) -> sim::Task<void> {
    *out = co_await n.try_transfer(0, 4, 100e6);  // 1 s at NIC rate
  };
  auto killer = [](Network& n) -> sim::Task<void> {
    co_await n.simulator().delay(0.5);
    n.set_node_up(4, false);  // receiver dies halfway
  };
  sim.spawn(proc(net, &ok));
  sim.spawn(killer(net));
  sim.run();
  EXPECT_FALSE(ok);  // the bytes landed on a dead node: fetch failed
}

TEST(Network, TryTransferFailsWhenEndpointPowerCyclesMidStream) {
  // Crash AND recovery inside the stream's lifetime: both endpoints look
  // up at completion, but the receiver rebooted — whatever it was
  // accumulating is gone, so the transfer must still report failure
  // (incarnation comparison, not just the up flag).
  sim::Simulator sim;
  Network net(sim, small_config());
  bool ok = true;
  auto proc = [](Network& n, bool* out) -> sim::Task<void> {
    *out = co_await n.try_transfer(0, 4, 100e6);  // 1 s at NIC rate
  };
  auto cycler = [](Network& n) -> sim::Task<void> {
    co_await n.simulator().delay(0.4);
    n.set_node_up(4, false);
    co_await n.simulator().delay(0.2);
    n.set_node_up(4, true);  // back before the stream ends
  };
  sim.spawn(proc(net, &ok));
  sim.spawn(cycler(net));
  sim.run();
  EXPECT_FALSE(ok);
}

TEST(Disk, TryOpsFailOnPoweredOffNode) {
  sim::Simulator sim;
  Network net(sim, small_config());
  net.set_node_up(0, false);
  bool read_ok = true;
  bool write_ok = true;
  auto proc = [](Network& n, bool* r, bool* w) -> sim::Task<void> {
    *r = co_await n.try_disk_read(0, 50e6);
    *w = co_await n.try_disk_write(0, 40e6);
  };
  sim.spawn(proc(net, &read_ok, &write_ok));
  sim.run();
  EXPECT_FALSE(read_ok);
  EXPECT_FALSE(write_ok);
  // A dead node issues no I/O at all (and pays no disk service time).
  EXPECT_NEAR(net.disk(0).bytes_read(), 0, 1e-9);
  EXPECT_NEAR(net.disk(0).bytes_written(), 0, 1e-9);
  EXPECT_NEAR(sim.now(), 0.0, 1e-9);
}

TEST(Network, PowerLossBumpsIncarnation) {
  sim::Simulator sim;
  Network net(sim, small_config());
  EXPECT_EQ(net.incarnation(3), 0u);
  net.set_node_up(3, false);
  EXPECT_EQ(net.incarnation(3), 1u);
  net.set_node_up(3, false);  // already down: not a new power loss
  EXPECT_EQ(net.incarnation(3), 1u);
  net.set_node_up(3, true);   // recovery alone does not bump
  EXPECT_EQ(net.incarnation(3), 1u);
  net.set_node_up(3, false);
  EXPECT_EQ(net.incarnation(3), 2u);
}

TEST(Rpc, RoundTripCostsTwoLatencies) {
  sim::Simulator sim;
  Network net(sim, small_config());
  int result = 0;
  auto proc = [](Network& n, int* out) -> sim::Task<void> {
    *out = co_await rpc(n, 0, 7, [&n]() -> sim::Task<int> {
      co_await n.simulator().delay(0.1);  // server-side work
      co_return 99;
    });
  };
  sim.spawn(proc(net, &result));
  sim.run();
  EXPECT_EQ(result, 99);
  EXPECT_NEAR(sim.now(), 0.1 + 2e-3, 1e-9);
}

TEST(ServiceQueue, SerializesAndQueues) {
  sim::Simulator sim;
  Network net(sim, small_config());
  ServiceQueue svc(sim, 0.1);
  auto proc = [](ServiceQueue& s) -> sim::Task<void> { co_await s.process(); };
  for (int i = 0; i < 5; ++i) sim.spawn(proc(svc));
  sim.run();
  EXPECT_NEAR(sim.now(), 0.5, 1e-9);
  EXPECT_EQ(svc.requests(), 5u);
}

// Property sweep: under randomized concurrent transfers, conservation holds:
// simulated completion time must be bounded below by every aggregate
// capacity constraint, and all bytes must arrive.
class NetworkLoadTest : public ::testing::TestWithParam<int> {};

TEST_P(NetworkLoadTest, ConservationAndCompletion) {
  const int seed = GetParam();
  Rng rng(seed);
  sim::Simulator sim;
  auto cfg = small_config();
  Network net(sim, cfg);

  const int num_flows = 20 + static_cast<int>(rng.below(30));
  double total_bytes = 0;
  std::vector<double> node_rx(cfg.num_nodes, 0), node_tx(cfg.num_nodes, 0);
  auto proc = [](Network& n, NodeId s, NodeId d, double bytes,
                 double start) -> sim::Task<void> {
    co_await n.simulator().delay(start);
    co_await n.transfer(s, d, bytes);
  };
  for (int i = 0; i < num_flows; ++i) {
    const NodeId s = static_cast<NodeId>(rng.below(cfg.num_nodes));
    NodeId d = static_cast<NodeId>(rng.below(cfg.num_nodes));
    if (d == s) d = (d + 1) % cfg.num_nodes;
    const double bytes = 1e6 + rng.uniform() * 50e6;
    const double start = rng.uniform() * 0.2;
    total_bytes += bytes;
    node_rx[d] += bytes;
    node_tx[s] += bytes;
    sim.spawn(proc(net, s, d, bytes, start));
  }
  sim.run();

  EXPECT_NEAR(net.bytes_moved(), total_bytes, 1.0);
  // Lower bound: the busiest NIC must move its bytes at NIC rate.
  double lower_bound = 0;
  for (uint32_t n = 0; n < cfg.num_nodes; ++n) {
    lower_bound = std::max(lower_bound, node_rx[n] / cfg.nic_bps);
    lower_bound = std::max(lower_bound, node_tx[n] / cfg.nic_bps);
  }
  EXPECT_GE(sim.now(), lower_bound - 1e-6);
  // Upper bound sanity: serializing everything through one NIC.
  EXPECT_LE(sim.now(), 0.2 + total_bytes / cfg.nic_bps + 1.0);
  EXPECT_EQ(net.active_flows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkLoadTest, ::testing::Range(1, 9));

// --- the pure reference solver ----------------------------------------------

TEST(ReferenceMaxMin, TwoFlowsSplitOneLink) {
  const std::vector<double> rates =
      reference_max_min({{0}, {0}}, {0, 0}, {100});
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 50);
  EXPECT_DOUBLE_EQ(rates[1], 50);
}

TEST(ReferenceMaxMin, BindingCapFreesShareForTheOther) {
  // Flow 0's cap (20) binds below the fair share (50); flow 1 takes the
  // rest of the link.
  const std::vector<double> rates =
      reference_max_min({{0}, {0}}, {20, 0}, {100});
  EXPECT_DOUBLE_EQ(rates[0], 20);
  EXPECT_DOUBLE_EQ(rates[1], 80);
}

TEST(ReferenceMaxMin, TwoBottleneckLevels) {
  // Link 0 (100) carries flows 0 and 1; link 1 (300) carries 1, 2 and 3.
  // Link 0 is the first bottleneck (50 each). Link 1 then has 250 left for
  // flows 2 and 3: 125 each.
  const std::vector<double> rates = reference_max_min(
      {{0}, {0, 1}, {1}, {1}}, {0, 0, 0, 0}, {100, 300});
  EXPECT_DOUBLE_EQ(rates[0], 50);
  EXPECT_DOUBLE_EQ(rates[1], 50);
  EXPECT_DOUBLE_EQ(rates[2], 125);
  EXPECT_DOUBLE_EQ(rates[3], 125);
}

// --- the path-class solver vs. the reference -------------------------------

// Randomized flow churn: staggered arrivals and departures, repeated paths
// (same-path classes with several members), per-flow caps.
void spawn_churn(sim::Simulator& sim, Network& net, uint64_t seed) {
  Rng rng(seed);
  const uint32_t nodes = net.config().num_nodes;
  auto xfer = [](Network& n, NodeId s, NodeId d, double bytes, double cap,
                 double start) -> sim::Task<void> {
    co_await n.simulator().delay(start);
    co_await n.transfer(s, d, bytes, cap);
  };
  for (int i = 0; i < 60; ++i) {
    // Half the flows reuse one of 6 fixed pairs; the rest are random pairs.
    NodeId s, d;
    if (i % 2 == 0) {
      s = static_cast<NodeId>(i % 6);
      d = static_cast<NodeId>((i % 6 + 4) % nodes);
    } else {
      s = static_cast<NodeId>(rng.below(nodes));
      d = static_cast<NodeId>(rng.below(nodes));
      if (d == s) d = (d + 1) % nodes;
    }
    const double bytes = 1e6 + rng.uniform() * 40e6;
    const double cap = (i % 5 == 0) ? 10e6 + rng.uniform() * 40e6 : 0;
    const double start = rng.uniform() * 1.5;
    sim.spawn(xfer(net, s, d, bytes, cap, start));
  }
}

sim::Task<void> oracle_probe(Network& n, double* worst) {
  for (int k = 0; k < 80; ++k) {
    co_await n.simulator().delay(0.05);
    if (n.active_flows() == 0) continue;
    *worst = std::max(*worst, n.solver_oracle_max_rel_diff());
  }
}

ClusterConfig churn_config() {
  auto cfg = small_config();
  cfg.per_stream_cap_bps = 30e6;  // caps bind on some rounds, not all
  return cfg;
}

// The standing proof that the path-class solver computes the same max-min
// allocation as plain per-flow progressive filling: a probe repeatedly
// checks the LIVE rates against reference_max_min under churn.
class SolverOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverOracleTest, IncrementalRatesMatchFullSolveUnderChurn) {
  sim::Simulator sim;
  Network net(sim, churn_config());
  spawn_churn(sim, net, GetParam());
  double max_rel_diff = 0;
  sim.spawn(oracle_probe(net, &max_rel_diff));
  sim.run();

  EXPECT_LT(max_rel_diff, 1e-9);
  EXPECT_EQ(net.active_flows(), 0u);
  const SolverStats stats = net.solver_stats();
  EXPECT_GT(stats.class_solves, 0u);
  EXPECT_GT(stats.path_classes_created, 0u);
  // Aggregation actually happened: fewer classes than flows.
  EXPECT_LT(stats.path_classes_created, net.flows_started());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverOracleTest, ::testing::Range(1, 6));

TEST(Network, OracleProbeDoesNotPerturbCounters) {
  // The probe only reads: the same churn with and without it must leave
  // identical solver counters and a byte-identical metrics snapshot.
  auto run = [](bool probe) {
    sim::Simulator sim;
    Network net(sim, churn_config());
    spawn_churn(sim, net, 3);
    double worst = 0;
    if (probe) sim.spawn(oracle_probe(net, &worst));
    sim.run();
    return std::make_pair(net.solver_stats(), sim.metrics().text_snapshot());
  };
  const auto [plain_stats, plain_snapshot] = run(false);
  const auto [probed_stats, probed_snapshot] = run(true);
  EXPECT_EQ(plain_stats.class_solves, probed_stats.class_solves);
  EXPECT_EQ(plain_stats.retimes_scheduled, probed_stats.retimes_scheduled);
  EXPECT_EQ(plain_stats.retimes_damped, probed_stats.retimes_damped);
  EXPECT_EQ(plain_stats.path_classes_created,
            probed_stats.path_classes_created);
  EXPECT_EQ(plain_stats.active_path_classes, probed_stats.active_path_classes);
  EXPECT_EQ(plain_snapshot, probed_snapshot);
}

// A fluid stepper over reference_max_min: between events (an arrival or a
// completion) every active flow moves at its reference rate. A flow
// finishes once under half a byte remains, as in Network.
struct FluidFlow {
  NodeId src, dst;
  double bytes;
  double start;
};

std::vector<double> reference_completions(const ClusterConfig& cfg,
                                          const std::vector<FluidFlow>& flows) {
  const uint32_t n = cfg.num_nodes;
  const uint32_t r = cfg.num_racks();
  // Network's link layout: node up, node down, rack up, rack down.
  std::vector<double> capacity(2 * n + 2 * r, cfg.nic_bps);
  for (uint32_t i = 2 * n; i < capacity.size(); ++i) {
    capacity[i] = cfg.rack_uplink_bps;
  }
  auto path_of = [&](const FluidFlow& f) {
    std::vector<uint32_t> path = {f.src};
    if (!cfg.same_rack(f.src, f.dst)) {
      path.push_back(2 * n + cfg.rack_of(f.src));
      path.push_back(2 * n + r + cfg.rack_of(f.dst));
    }
    path.push_back(n + f.dst);
    return path;
  };
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> remaining(flows.size());
  std::vector<double> done(flows.size(), -1);
  std::vector<char> started(flows.size(), 0);
  double now = 0;
  for (size_t completed = 0; completed < flows.size();) {
    for (size_t i = 0; i < flows.size(); ++i) {
      if (!started[i] && flows[i].start <= now) {
        started[i] = 1;
        remaining[i] = flows[i].bytes;
      }
    }
    std::vector<size_t> active;
    std::vector<std::vector<uint32_t>> paths;
    for (size_t i = 0; i < flows.size(); ++i) {
      if (!started[i] || done[i] >= 0) continue;
      active.push_back(i);
      paths.push_back(path_of(flows[i]));
    }
    const std::vector<double> rates = reference_max_min(
        paths, std::vector<double>(active.size(), 0), capacity);
    double next = inf;
    for (size_t i = 0; i < flows.size(); ++i) {
      if (!started[i]) next = std::min(next, flows[i].start);
    }
    for (size_t k = 0; k < active.size(); ++k) {
      next = std::min(next, now + remaining[active[k]] / rates[k]);
    }
    for (size_t k = 0; k < active.size(); ++k) {
      const size_t i = active[k];
      remaining[i] -= rates[k] * (next - now);
      if (remaining[i] <= 0.5) {
        done[i] = next;
        ++completed;
      }
    }
    now = next;
  }
  return done;
}

TEST(Network, CompletionTimesMatchReferenceFluidModel) {
  // Every flow of a randomized workload must finish when a fluid model
  // driven by the reference allocation says it does.
  const ClusterConfig cfg = small_config();
  Rng rng(1234);
  std::vector<FluidFlow> flows;
  for (int i = 0; i < 40; ++i) {
    const NodeId s = static_cast<NodeId>(rng.below(8));
    NodeId d = static_cast<NodeId>(rng.below(8));
    if (d == s) d = (d + 1) % 8;
    flows.push_back({s, d, 1e6 + rng.uniform() * 30e6, rng.uniform() * 0.5});
  }
  sim::Simulator sim;
  Network net(sim, cfg);
  std::vector<double> finished(flows.size(), -1);
  auto xfer = [](Network& n, FluidFlow f, double* at) -> sim::Task<void> {
    co_await n.simulator().delay(f.start);
    co_await n.transfer(f.src, f.dst, f.bytes);
    *at = n.simulator().now();
  };
  for (size_t i = 0; i < flows.size(); ++i) {
    sim.spawn(xfer(net, flows[i], &finished[i]));
  }
  sim.run();

  const std::vector<double> want = reference_completions(cfg, flows);
  for (size_t i = 0; i < flows.size(); ++i) {
    EXPECT_NEAR(finished[i], want[i], 1e-9 * std::max(1.0, want[i]))
        << "flow " << i;
  }
}

TEST(Network, RetimeDampingSkipsUnchangedDeadlines) {
  // A batch of same-instant arrivals between independent pairs: each flush
  // re-solve leaves the earliest completion unchanged once it is set, so
  // damping must absorb retimes a per-change reschedule would pay.
  sim::Simulator sim;
  Network net(sim, small_config());
  auto xfer = [](Network& n, NodeId s, NodeId d, double start,
                 double bytes) -> sim::Task<void> {
    co_await n.simulator().delay(start);
    co_await n.transfer(s, d, bytes);
  };
  // t=0: flow A (0→4, 100 MB at a 100 MB/s NIC) completes at exactly 1.0.
  // At t=0.25 and t=0.5 (binary-exact instants, so the recomputed deadline
  // is bit-identical), larger flows arrive on independent NIC pairs; the
  // shared 400 MB/s uplink still leaves everyone at NIC rate, so each
  // arrival's re-solve leaves the earliest completion pinned at 1.0 and
  // the retime must be damped instead of rescheduled.
  sim.spawn(xfer(net, 0, 4, 0, 100e6));
  sim.spawn(xfer(net, 1, 5, 0.25, 150e6));
  sim.spawn(xfer(net, 2, 6, 0.5, 150e6));
  sim.run();
  const SolverStats stats = net.solver_stats();
  EXPECT_GT(stats.retimes_damped, 0u);
}

}  // namespace
}  // namespace bs::net
