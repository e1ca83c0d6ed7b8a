// Tests for the flow-level network: exact single-flow timing, fair sharing,
// bottleneck behavior, per-flow caps, disks, and solver invariants under
// randomized load (property-style sweep).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
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
  // Loopback copies run at 2e9 B/s, far above the NIC.
  EXPECT_NEAR(sim.now(), 100e6 / 2e9, 1e-9);
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
  // One RPC and one event per hop (plus the spawn's).
  EXPECT_EQ(sim.metrics().counter("net/rpcs").value(), 4.0);
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(Network, TryControlToDownNodeTimesOut) {
  sim::Simulator sim;
  const ClusterConfig cfg = small_config();
  Network net(sim, cfg);
  net.set_node_up(7, false);
  bool to_up = false;
  bool to_down = true;
  double waited = -1;
  auto proc = [](sim::Simulator& s, Network& n, bool* up, bool* down,
                 double* w) -> sim::Task<void> {
    *up = co_await n.try_control(0, 6);
    const double t0 = s.now();
    *down = co_await n.try_control(0, 7);
    *w = s.now() - t0;
  };
  sim.spawn(proc(sim, net, &to_up, &to_down, &waited));
  sim.run();
  EXPECT_TRUE(to_up);
  EXPECT_FALSE(to_down);
  EXPECT_DOUBLE_EQ(waited, cfg.rpc_timeout_s);
  EXPECT_NEAR(sim.now(), cfg.control_latency_s + cfg.rpc_timeout_s, 1e-12);
  EXPECT_EQ(sim.metrics().counter("net/rpcs").value(), 2.0);
  EXPECT_EQ(sim.metrics().counter("net/rpc_timeouts").value(), 1.0);
  EXPECT_EQ(sim.events_processed(), 3u);  // the spawn and one per hop
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

sim::Task<void> service_call(Service* s, NodeId client, double cost = 1.0) {
  co_await s->request(client, cost);
  co_await s->reply(client);
}

TEST(Service, RoundTripPaysBothHopsAndTheSlot) {
  sim::Simulator sim;
  Network net(sim, small_config());  // 1 ms control latency
  Service svc(net, 3, 0.1);
  sim.spawn(service_call(&svc, 0));
  sim.run();
  EXPECT_NEAR(sim.now(), 2 * 1e-3 + 0.1, 1e-12);
  // cost = 3 holds the slot for three service times.
  const double t0 = sim.now();
  sim.spawn(service_call(&svc, 0, 3.0));
  sim.run();
  EXPECT_NEAR(sim.now() - t0, 2 * 1e-3 + 0.3, 1e-12);
  EXPECT_EQ(svc.requests(), 2u);
  EXPECT_EQ(svc.node(), 3u);
}

TEST(Service, SerializesAndQueues) {
  sim::Simulator sim;
  Network net(sim, small_config());
  obs::Counter counter;
  Service svc(net, 3, 0.1, &counter);
  for (int i = 0; i < 5; ++i) sim.spawn(service_call(&svc, 0));
  // Five requests arrive together after 1 ms. Probe 50 ms into the first
  // slot and 50 ms into the third.
  struct Probe {
    size_t depth;
    uint64_t requests;
    double counted;
  };
  std::vector<Probe> probes;
  auto probe = [](sim::Simulator* s, Service* svc, obs::Counter* c,
                  std::vector<Probe>* out) -> sim::Task<void> {
    co_await s->delay(1e-3 + 0.05);
    out->push_back({svc->queue_depth(), svc->requests(), c->value()});
    co_await s->delay(0.2);
    out->push_back({svc->queue_depth(), svc->requests(), c->value()});
  };
  sim.spawn(probe(&sim, &svc, &counter, &probes));
  sim.run();
  ASSERT_EQ(probes.size(), 2u);
  EXPECT_EQ(probes[0].depth, 4u);  // one holds the slot, four wait
  EXPECT_EQ(probes[0].requests, 0u);
  EXPECT_EQ(probes[0].counted, 0.0);
  EXPECT_EQ(probes[1].depth, 2u);
  EXPECT_EQ(probes[1].requests, 2u);
  EXPECT_EQ(probes[1].counted, 2.0);
  // The last leaves its slot 0.5 s after arriving and is back 1 ms later.
  EXPECT_NEAR(sim.now(), 2 * 1e-3 + 0.5, 1e-9);
  EXPECT_EQ(svc.requests(), 5u);
  EXPECT_EQ(counter.value(), 5.0);
  EXPECT_EQ(svc.queue_depth(), 0u);
}

// Events a request makes: the hop and the slot, plus a hand-off when it
// waited. Each spawn adds one start event.
TEST(Service, IdleRoundTripMakesThreeEvents) {
  sim::Simulator sim;
  Network net(sim, small_config());
  Service svc(net, 3, 0.1);
  sim.spawn(service_call(&svc, 0));
  sim.run();
  EXPECT_EQ(sim.events_processed(), 1u + 3u);  // hop, slot, reply
}

TEST(Service, QueuedRoundTripAddsTheHandOff) {
  sim::Simulator sim;
  Network net(sim, small_config());
  Service svc(net, 3, 0.1);
  sim.spawn(service_call(&svc, 0));
  sim.spawn(service_call(&svc, 1));
  sim.run();
  // The first is served at once (3 events); the second waits and is handed
  // the slot at the first's slot end (4).
  EXPECT_EQ(sim.events_processed(), 2u + 3u + 4u);
  EXPECT_NEAR(sim.now(), 2 * 1e-3 + 0.2, 1e-12);
  EXPECT_EQ(svc.requests(), 2u);
}

TEST(Service, CountedWhenTheCallerResumes) {
  sim::Simulator sim;
  Network net(sim, small_config());
  obs::Counter counter;
  Service svc(net, 3, 0.1, &counter);
  struct Seen {
    uint64_t requests;
    double counted;
    double at;
  };
  std::vector<Seen> seen;
  auto caller = [](Service* s, obs::Counter* c, sim::Simulator* sm,
                   std::vector<Seen>* out) -> sim::Task<void> {
    co_await s->request(0);
    out->push_back({s->requests(), c->value(), sm->now()});
  };
  sim.spawn(caller(&svc, &counter, &sim, &seen));
  sim.spawn(caller(&svc, &counter, &sim, &seen));
  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].requests, 1u);
  EXPECT_EQ(seen[0].counted, 1.0);
  EXPECT_NEAR(seen[0].at, 1e-3 + 0.1, 1e-12);
  EXPECT_EQ(seen[1].requests, 2u);
  EXPECT_EQ(seen[1].counted, 2.0);
  EXPECT_NEAR(seen[1].at, 1e-3 + 0.2, 1e-12);
}

TEST(Service, ZeroServiceTimeMakesNoSlotEvent) {
  sim::Simulator sim;
  Network net(sim, small_config());
  Service svc(net, 3, 0.0);
  // Arriving together, neither waits: the first frees the slot at once.
  sim.spawn(service_call(&svc, 0));
  sim.spawn(service_call(&svc, 1));
  sim.run();
  EXPECT_EQ(sim.events_processed(), 2u + 2u * 2u);  // hop and reply each
  EXPECT_NEAR(sim.now(), 2 * 1e-3, 1e-12);
  EXPECT_EQ(svc.requests(), 2u);
  // A cost of 0 on a timed service holds the slot for no time either.
  Service timed(net, 3, 0.1);
  const uint64_t before = sim.events_processed();
  sim.spawn(service_call(&timed, 0, 0.0));
  sim.run();
  EXPECT_EQ(sim.events_processed() - before, 1u + 2u);
}

TEST(Service, RequestWithoutDelaysDoesNotSuspend) {
  sim::Simulator sim;
  auto cfg = small_config();
  cfg.control_latency_s = 0;
  Network net(sim, cfg);
  obs::Counter counter;
  Service svc(net, 3, 0.0, &counter);
  struct Seen {
    uint64_t events;
    double now;
    uint64_t requests;
    double counted;
  };
  std::vector<Seen> seen;
  auto caller = [](sim::Simulator* s, Service* svc, obs::Counter* c,
                   std::vector<Seen>* out) -> sim::Task<void> {
    co_await s->delay(0.5);
    out->push_back({s->events_processed(), s->now(), svc->requests(),
                    c->value()});
    co_await svc->request(0);
    out->push_back({s->events_processed(), s->now(), svc->requests(),
                    c->value()});
  };
  sim.spawn(caller(&sim, &svc, &counter, &seen));
  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].events, seen[0].events);
  EXPECT_EQ(seen[1].now, seen[0].now);
  EXPECT_EQ(seen[1].requests, 1u);
  EXPECT_EQ(seen[1].counted, 1.0);
  EXPECT_EQ(sim.events_processed(), 2u);  // the start and the delay
}

// Requests take the slot in arrival order: a waiter is never passed, not by
// a later waiter and not by a request that arrives in the instant between
// a slot's end and its hand-off event.
TEST(Service, ServesInArrivalOrder) {
  sim::Simulator sim;
  Network net(sim, small_config());
  Service svc(net, 3, 0.1);
  std::vector<int> done;
  auto caller = [](sim::Simulator* s, Service* svc, double start, int id,
                   std::vector<int>* out) -> sim::Task<void> {
    co_await s->delay(start);
    co_await svc->request(0);
    out->push_back(id);
  };
  // 0 takes the slot at 1 ms; 1, 2 and 3 queue behind it in that order.
  // 4's hop lands at 0.1 + 1 ms, the instant 0's slot ends: 0's slot
  // event comes first (it was scheduled earlier) and hands the slot to 1,
  // so 4 queues behind 3.
  const double starts[] = {0.0, 0.01, 0.02, 0.03, 0.1};
  for (int id = 0; id < 5; ++id) {
    sim.spawn(caller(&sim, &svc, starts[id], id, &done));
  }
  sim.run();
  EXPECT_EQ(done, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_NEAR(sim.now(), 1e-3 + 0.5, 1e-12);
  EXPECT_EQ(svc.queue_depth(), 0u);
}

// A call is a request whose slot end runs a body and sends the reply: the
// same events as a request()/reply() round trip, the body's result handed
// to the caller when the reply lands.
sim::Task<void> call_value(Service* s, NodeId client, int value,
                           std::vector<int>* out) {
  out->push_back(co_await s->call(client, [value] { return value; }));
}

TEST(Service, IdleCallMakesThreeEvents) {
  sim::Simulator sim;
  Network net(sim, small_config());
  Service svc(net, 3, 0.1);
  std::vector<int> got;
  sim.spawn(call_value(&svc, 0, 7, &got));
  sim.run();
  EXPECT_EQ(sim.events_processed(), 1u + 3u);  // hop, slot, reply
  EXPECT_EQ(got, std::vector<int>{7});
  EXPECT_NEAR(sim.now(), 2 * 1e-3 + 0.1, 1e-12);
  EXPECT_EQ(svc.requests(), 1u);
}

TEST(Service, QueuedCallAddsTheHandOff) {
  sim::Simulator sim;
  Network net(sim, small_config());
  Service svc(net, 3, 0.1);
  std::vector<int> got;
  sim.spawn(call_value(&svc, 0, 1, &got));
  sim.spawn(call_value(&svc, 1, 2, &got));
  sim.run();
  EXPECT_EQ(sim.events_processed(), 2u + 3u + 4u);
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
  EXPECT_NEAR(sim.now(), 2 * 1e-3 + 0.2, 1e-12);
  EXPECT_EQ(svc.requests(), 2u);
}

// request() and call() waiters share one FIFO: each is served in arrival
// order, and a call's body runs at its own slot's end, where it sees what
// every request served before it left, and before its reply is sent.
TEST(Service, CallBodyRunsAtItsSlotEndInArrivalOrder) {
  sim::Simulator sim;
  Network net(sim, small_config());
  Service svc(net, 3, 0.1);
  const obs::Counter& rpcs = sim.metrics().counter("net/rpcs");
  struct Served {
    int id;
    size_t seen;     // entries already in the log
    double at;       // simulated time it was served
    double rpcs;     // control messages sent so far
  };
  std::vector<Served> log;
  auto by_request = [](sim::Simulator* s, Service* svc, double start, int id,
                       std::vector<Served>* out) -> sim::Task<void> {
    co_await s->delay(start);
    co_await svc->request(0);
    out->push_back({id, out->size(), s->now(), -1});
    co_await svc->reply(0);
  };
  auto by_call = [](sim::Simulator* s, Service* svc, const obs::Counter* c,
                    double start, int id,
                    std::vector<Served>* out) -> sim::Task<void> {
    co_await s->delay(start);
    const size_t seen = co_await svc->call(0, [s, c, id, out] {
      out->push_back({id, out->size(), s->now(), c->value()});
      return out->size() - 1;
    });
    EXPECT_EQ(seen, static_cast<size_t>(id));
    // The reply lands one hop after the slot's end.
    EXPECT_NEAR(s->now(), (*out)[seen].at + 1e-3, 1e-12);
  };
  // Even ids call, odd ones request; all but 0 queue behind 0's slot.
  for (int id = 0; id < 6; ++id) {
    const double start = 0.01 * id;
    if (id % 2 == 0) {
      sim.spawn(by_call(&sim, &svc, &rpcs, start, id, &log));
    } else {
      sim.spawn(by_request(&sim, &svc, start, id, &log));
    }
  }
  sim.run();
  ASSERT_EQ(log.size(), 6u);
  for (int id = 0; id < 6; ++id) {
    EXPECT_EQ(log[id].id, id);
    EXPECT_EQ(log[id].seen, static_cast<size_t>(id));
    EXPECT_NEAR(log[id].at, 1e-3 + 0.1 * (id + 1), 1e-12) << id;
  }
  // Every request hop (6) and the replies of the requests served earlier
  // (id of them) were sent before a body ran; its own reply was not.
  for (int id = 0; id < 6; id += 2) EXPECT_EQ(log[id].rpcs, 6.0 + id) << id;
  EXPECT_EQ(svc.queue_depth(), 0u);
}

TEST(Service, CallIsCountedBeforeItsBodyRuns) {
  sim::Simulator sim;
  Network net(sim, small_config());
  obs::Counter counter;
  Service svc(net, 3, 0.1, &counter);
  std::vector<std::pair<uint64_t, double>> seen;
  auto caller = [](Service* s, const obs::Counter* c,
                   std::vector<std::pair<uint64_t, double>>* out)
      -> sim::Task<void> {
    co_await s->call(0, [s, c, out] {
      out->emplace_back(s->requests(), c->value());
    });
  };
  sim.spawn(caller(&svc, &counter, &seen));
  sim.spawn(caller(&svc, &counter, &seen));
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::pair<uint64_t, double>>{{1, 1.0},
                                                            {2, 2.0}}));
}

TEST(Service, CallWithoutDelaysRunsInline) {
  sim::Simulator sim;
  auto cfg = small_config();
  cfg.control_latency_s = 0;
  Network net(sim, cfg);
  Service svc(net, 3, 0.0);
  struct Seen {
    uint64_t events;
    double now;
  };
  std::vector<Seen> seen;
  int runs = 0;
  auto caller = [](sim::Simulator* s, Service* svc, int* runs,
                   std::vector<Seen>* out) -> sim::Task<void> {
    co_await s->delay(0.5);
    out->push_back({s->events_processed(), s->now()});
    const int got = co_await svc->call(0, [s, runs, out] {
      out->push_back({s->events_processed(), s->now()});
      return ++*runs;
    });
    out->push_back({s->events_processed(), s->now()});
    EXPECT_EQ(got, 1);
  };
  sim.spawn(caller(&sim, &svc, &runs, &seen));
  sim.run();
  ASSERT_EQ(seen.size(), 3u);
  for (const Seen& x : seen) {
    EXPECT_EQ(x.events, seen[0].events);
    EXPECT_EQ(x.now, seen[0].now);
  }
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(svc.requests(), 1u);
  EXPECT_EQ(sim.events_processed(), 2u);  // the start and the delay
}

TEST(Service, CallDeliversVoidAndValueBodiesOnce) {
  sim::Simulator sim;
  Network net(sim, small_config());
  Service svc(net, 3, 0.1);
  int void_runs = 0;
  int value_runs = 0;
  std::vector<std::string> got;
  auto caller = [](Service* s, int* void_runs, int* value_runs,
                   std::vector<std::string>* out) -> sim::Task<void> {
    co_await s->call(0, [void_runs] { ++*void_runs; });
    std::optional<std::string> name = co_await s->call(
        1, 2.0, [value_runs]() -> std::optional<std::string> {
          ++*value_runs;
          return std::string(40, 'x');  // heap-held, so it must move intact
        });
    out->push_back(*name);
  };
  sim.spawn(caller(&svc, &void_runs, &value_runs, &got));
  sim.spawn(caller(&svc, &void_runs, &value_runs, &got));
  sim.run();
  EXPECT_EQ(void_runs, 2);
  EXPECT_EQ(value_runs, 2);
  EXPECT_EQ(got, (std::vector<std::string>{std::string(40, 'x'),
                                           std::string(40, 'x')}));
  // Two unit slots and two double slots, back to back after the first hop.
  EXPECT_NEAR(sim.now(), 1e-3 + 0.1 * 6 + 1e-3, 1e-12);
  EXPECT_EQ(svc.requests(), 4u);
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

// Two churn shapes. kSmall: 60 flows on the 8-node cluster, half of them
// on 6 repeated pairs, a fifth under a random per-flow cap. kWide: 600
// flows on 64 nodes in 8 racks with narrow uplinks, half on 16 repeated
// cross-rack pairs, and two fixed cap levels below the per-stream cap, so
// fills run many rounds with capped and bottleneck freezes interleaved.
enum class Churn { kSmall, kWide };

ClusterConfig churn_config(Churn shape = Churn::kSmall) {
  auto cfg = small_config();
  cfg.per_stream_cap_bps = 30e6;  // caps bind on some rounds, not all
  if (shape == Churn::kWide) {
    cfg.num_nodes = 64;
    cfg.nodes_per_rack = 8;
    cfg.rack_uplink_bps = 300e6;
    cfg.per_stream_cap_bps = 60e6;
  }
  return cfg;
}

// Randomized flow churn: staggered arrivals and departures, repeated paths
// (same-path classes with several members), per-flow caps.
void spawn_churn(sim::Simulator& sim, Network& net, uint64_t seed,
                 Churn shape = Churn::kSmall) {
  Rng rng(seed);
  const uint32_t nodes = net.config().num_nodes;
  auto xfer = [](Network& n, NodeId s, NodeId d, double bytes, double cap,
                 double start) -> sim::Task<void> {
    co_await n.simulator().delay(start);
    co_await n.transfer(s, d, bytes, cap);
  };
  const bool wide = shape == Churn::kWide;
  for (int i = 0; i < (wide ? 600 : 60); ++i) {
    NodeId s, d;
    if (i % 2 == 0) {
      // Small: one of 6 fixed pairs. Wide: one of 16 pairs from racks 0-1
      // to racks 4-5.
      s = static_cast<NodeId>(wide ? i / 2 % 16 : i % 6);
      d = static_cast<NodeId>(wide ? 32 + i / 2 % 16 : (i % 6 + 4) % nodes);
    } else {
      s = static_cast<NodeId>(rng.below(nodes));
      d = static_cast<NodeId>(rng.below(nodes));
      if (d == s) d = (d + 1) % nodes;
    }
    const double bytes = 1e6 + rng.uniform() * 40e6;
    double cap = 0;
    if (wide) {
      cap = i % 5 == 0 ? 15e6 : i % 5 == 1 ? 35e6 : 0;
    } else if (i % 5 == 0) {
      cap = 10e6 + rng.uniform() * 40e6;
    }
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

// The standing proof that the path-class solver computes the same max-min
// allocation as plain per-flow progressive filling: a probe repeatedly
// checks the LIVE rates against reference_max_min under churn.
class SolverOracleTest
    : public ::testing::TestWithParam<std::tuple<Churn, int>> {};

TEST_P(SolverOracleTest, IncrementalRatesMatchFullSolveUnderChurn) {
  const auto [shape, seed] = GetParam();
  sim::Simulator sim;
  Network net(sim, churn_config(shape));
  spawn_churn(sim, net, seed, shape);
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

INSTANTIATE_TEST_SUITE_P(Seeds, SolverOracleTest,
                         ::testing::Combine(::testing::Values(Churn::kSmall,
                                                              Churn::kWide),
                                            ::testing::Range(1, 6)));

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
  EXPECT_EQ(plain_stats.fill_rounds, probed_stats.fill_rounds);
  EXPECT_EQ(plain_stats.class_tests, probed_stats.class_tests);
  EXPECT_EQ(plain_snapshot, probed_snapshot);
}

// A fluid stepper over reference_max_min: between events (an arrival, a
// completion or a NIC rescale) every active flow moves at its reference
// rate. A flow finishes once under half a byte remains, as in Network.
struct FluidFlow {
  NodeId src, dst;
  double bytes;
  double start;
  double cap = 0;  // per-flow rate cap, 0 = none
};

// A set_node_perf NIC factor taking effect at `at`.
struct NicChange {
  double at;
  NodeId node;
  double nic;
};

std::vector<double> reference_completions(
    const ClusterConfig& cfg, const std::vector<FluidFlow>& flows,
    const std::vector<NicChange>& nic_changes = {}) {
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
  size_t changes_applied = 0;
  double now = 0;
  for (size_t completed = 0; completed < flows.size();) {
    for (size_t i = 0; i < flows.size(); ++i) {
      if (!started[i] && flows[i].start <= now) {
        started[i] = 1;
        remaining[i] = flows[i].bytes;
      }
    }
    for (; changes_applied < nic_changes.size() &&
           nic_changes[changes_applied].at <= now;
         ++changes_applied) {
      const NicChange& c = nic_changes[changes_applied];
      capacity[c.node] = capacity[n + c.node] = cfg.nic_bps * c.nic;
    }
    std::vector<size_t> active;
    std::vector<std::vector<uint32_t>> paths;
    std::vector<double> caps;
    for (size_t i = 0; i < flows.size(); ++i) {
      if (!started[i] || done[i] >= 0) continue;
      active.push_back(i);
      paths.push_back(path_of(flows[i]));
      caps.push_back(flows[i].cap);
    }
    const std::vector<double> rates = reference_max_min(paths, caps, capacity);
    double next = inf;
    for (size_t i = 0; i < flows.size(); ++i) {
      if (!started[i]) next = std::min(next, flows[i].start);
    }
    if (changes_applied < nic_changes.size()) {
      next = std::min(next, nic_changes[changes_applied].at);
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

TEST(Network, DeadClassesCompactWithoutDisturbingRates) {
  // Distinct-pair classes, created with short and long flows interleaved.
  // The eight short ones finish together at t = 1, leaving 8 dead classes
  // among 14, so that instant's solve compacts the class table and moves
  // the six survivors. At t = 1.5 new classes arrive behind them and one
  // flow joins a survivor's class. At every probe the live rates must
  // equal the reference allocation and the live class count must match
  // the pairs in flight; every completion must match the fluid model.
  ClusterConfig cfg = small_config();
  cfg.num_nodes = 32;
  cfg.nodes_per_rack = 32;  // one rack: NIC links only
  // Survivors: destination 24 alone, 25 shared by two, 26 by three.
  const std::pair<NodeId, NodeId> longs[] = {{16, 24}, {17, 25}, {18, 25},
                                             {19, 26}, {20, 26}, {21, 26}};
  std::vector<FluidFlow> flows;
  for (NodeId i = 0; i < 8; ++i) {
    flows.push_back({i, 8 + i, 100e6, 0});  // at NIC rate: done at t = 1
    if (i < std::size(longs)) {
      flows.push_back({longs[i].first, longs[i].second, 400e6, 0});
    }
  }
  flows.push_back({22, 24, 200e6, 1.5});
  flows.push_back({23, 27, 100e6, 1.5});
  flows.push_back({17, 25, 50e6, 1.5});  // joins a survivor's class

  sim::Simulator sim;
  Network net(sim, cfg);
  std::map<std::pair<NodeId, NodeId>, int> in_flight;
  std::vector<double> finished(flows.size(), -1);
  auto xfer = [](Network& n, FluidFlow f, double* at,
                 std::map<std::pair<NodeId, NodeId>, int>* live)
      -> sim::Task<void> {
    co_await n.simulator().delay(f.start);
    ++(*live)[{f.src, f.dst}];
    co_await n.transfer(f.src, f.dst, f.bytes);
    if (--(*live)[{f.src, f.dst}] == 0) live->erase({f.src, f.dst});
    *at = n.simulator().now();
  };
  for (size_t i = 0; i < flows.size(); ++i) {
    sim.spawn(xfer(net, flows[i], &finished[i], &in_flight));
  }
  int probes = 0;
  auto probe = [](Network& n, const std::map<std::pair<NodeId, NodeId>, int>*
                                  live,
                  int* count) -> sim::Task<void> {
    // Off every arrival and completion instant, so no change is pending.
    for (double t = 0.1; t < 20; t += 0.5) {
      co_await n.simulator().delay(t - n.simulator().now());
      size_t flows_in_flight = 0;
      for (const auto& [pair, members] : *live) flows_in_flight += members;
      EXPECT_EQ(n.active_flows(), flows_in_flight) << "t=" << t;
      EXPECT_EQ(n.solver_stats().active_path_classes, live->size())
          << "t=" << t;
      EXPECT_EQ(n.solver_oracle_max_rel_diff(), 0.0) << "t=" << t;
      ++*count;
    }
  };
  sim.spawn(probe(net, &in_flight, &probes));
  sim.run();

  EXPECT_EQ(probes, 40);
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_EQ(net.solver_stats().path_classes_created, flows.size() - 1);
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

TEST(Network, WakeUpReArmedAtAStaleDeadlineActsAtTheFreshEvent) {
  // Flow A (0→4, 100 MB) arms the wake-up at 1.0. Flow B (1→5, 25 MB from
  // t = 0.25, on its own NICs) moves it to 0.5, leaving the event at 1.0
  // stale. B's completion re-arms it at 0.5 + 50 MB / 100 MB/s = 1.0: the
  // stale event's deadline, queued behind it. A probe queued between the
  // two events must find A still active, so the stale event must not act
  // although its deadline is now the live one.
  sim::Simulator sim;
  Network net(sim, small_config());
  auto xfer = [](Network& n, NodeId s, NodeId d, double start,
                 double bytes) -> sim::Task<void> {
    co_await n.simulator().delay(start);
    co_await n.transfer(s, d, bytes);
  };
  size_t active_at_probe = 0;
  auto probe = [](Network& n, size_t* active) -> sim::Task<void> {
    co_await n.simulator().delay(0.25);
    co_await n.simulator().delay(0.75);  // queued at 0.25: between the two
    *active = n.active_flows();
  };
  sim.spawn(xfer(net, 0, 4, 0, 100e6));
  sim.spawn(xfer(net, 1, 5, 0.25, 25e6));
  sim.spawn(probe(net, &active_at_probe));
  sim.run();
  EXPECT_EQ(active_at_probe, 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_EQ(net.solver_stats().retimes_scheduled, 3u);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(Network, FillTestsEachClassAboutOncePerSolve) {
  // One uncapped fill with kLevels distinct shares: destination k receives
  // from k + 1 sources of its own, so its NIC's share is nic / (k + 1) and
  // progressive filling takes exactly kLevels rounds. A sweep of every
  // unfrozen class per round would run about kLevels * classes / 2 tests;
  // each round tests only the classes on a bottleneck link, so every class
  // is tested exactly once: in the round that freezes it.
  constexpr uint32_t kLevels = 8;
  ClusterConfig cfg = small_config();
  cfg.num_nodes = 64;
  cfg.nodes_per_rack = 64;  // one rack: NIC links only
  sim::Simulator sim;
  Network net(sim, cfg);
  auto xfer = [](Network& n, NodeId s, NodeId d) -> sim::Task<void> {
    co_await n.transfer(s, d, 100e6);
  };
  NodeId src = kLevels;
  uint64_t classes = 0;
  for (NodeId dst = 0; dst < kLevels; ++dst) {
    for (uint32_t i = 0; i <= dst; ++i, ++classes) {
      sim.spawn(xfer(net, src++, dst));
    }
  }
  // Counters after the one solve at t=0, before any flow completes.
  SolverStats first;
  double diff = 1;
  auto probe = [](Network& n, SolverStats* out,
                  double* oracle) -> sim::Task<void> {
    co_await n.simulator().delay(1e-6);
    *out = n.solver_stats();
    *oracle = n.solver_oracle_max_rel_diff();
  };
  sim.spawn(probe(net, &first, &diff));
  sim.run();
  EXPECT_EQ(first.class_solves, 1u);
  EXPECT_EQ(first.active_path_classes, classes);
  EXPECT_EQ(first.fill_rounds, kLevels);
  EXPECT_EQ(first.class_tests, classes);
  EXPECT_EQ(diff, 0.0);
}

// --- solve replay ------------------------------------------------------------

// Seeded churn for the replay tests on 32 nodes in 4 racks with narrow
// uplinks. A quarter of the flows arrive together on a 0.125 s grid with
// equal sizes, so some also finish together; the rest arrive at distinct
// instants. A third are capped. kDistinct gives every flow its own
// (src, dst) pair, so every class has one member and the solver's
// arithmetic is the per-flow reference's to the bit; kShared draws pairs
// from a pool of 24 and caps from two levels, so classes gain and lose
// members. kLevels is level_churn's.
enum class Keys { kDistinct, kShared, kLevels };

// Standing levels and arrivals that land between them: destination k of 8
// (two per rack) keeps 2k + 1 flows of one size from t = 0, so a solve
// fills one level per destination, at nic / (2k + 1) where the uplinks
// allow. Then short flows arrive at distinct instants, each joining one
// destination, whose share moves to a level between two logged ones: the
// arrival inserts a round mid-fill, after which the logged rounds resume.
// Every fifth arrival is capped at 20 MB/s, which binds on the few widest
// levels.
std::vector<FluidFlow> level_churn(const ClusterConfig& cfg, uint64_t seed) {
  Rng rng(seed);
  const auto other = [&](NodeId d) {
    NodeId s = d;
    while (s == d) s = static_cast<NodeId>(rng.below(cfg.num_nodes));
    return s;
  };
  std::vector<FluidFlow> flows;
  for (uint32_t k = 0; k < 8; ++k) {
    const NodeId d = 4 * k + 1;
    const double bytes = 20e6 + 5e6 * k;
    for (uint32_t i = 0; i <= 2 * k; ++i) {
      flows.push_back({other(d), d, bytes, 0});
    }
  }
  for (uint32_t i = 0; i < 80; ++i) {
    const auto d = static_cast<NodeId>(4 * rng.below(8) + 1);
    const NodeId s = other(d);
    flows.push_back({s, d, 1e6 + rng.uniform() * 3e6, rng.uniform() * 3.0,
                     i % 5 == 0 ? 20e6 : 0});
  }
  return flows;
}

ClusterConfig replay_config() {
  ClusterConfig cfg = small_config();
  cfg.num_nodes = 32;
  cfg.nodes_per_rack = 8;
  cfg.rack_uplink_bps = 250e6;
  return cfg;
}

std::vector<FluidFlow> replay_churn(const ClusterConfig& cfg, uint64_t seed,
                                    Keys keys) {
  if (keys == Keys::kLevels) return level_churn(cfg, seed);
  Rng rng(seed);
  const uint32_t nodes = cfg.num_nodes;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId s = 0; s < nodes; ++s) {
    for (NodeId d = 0; d < nodes; ++d) {
      if (s != d) pairs.emplace_back(s, d);
    }
  }
  // Seeded Fisher-Yates: the first flows take the first pairs.
  for (size_t i = pairs.size() - 1; i > 0; --i) {
    std::swap(pairs[i], pairs[rng.below(i + 1)]);
  }
  std::vector<FluidFlow> flows;
  for (size_t i = 0; i < 300; ++i) {
    const auto [s, d] = pairs[keys == Keys::kDistinct ? i : i % 24];
    const bool batch = i % 4 == 0;
    const double start = batch ? 0.125 * static_cast<double>(rng.below(24))
                               : rng.uniform() * 3.0;
    const double bytes = batch ? 8e6 : 1e6 + rng.uniform() * 30e6;
    double cap = 0;
    if (i % 3 == 0) {
      cap = keys == Keys::kDistinct ? 8e6 + rng.uniform() * 40e6
                                    : (i % 2 == 0 ? 15e6 : 35e6);
    }
    flows.push_back({s, d, bytes, start, cap});
  }
  return flows;
}

// Node 5's NIC drops to half at 0.7 s and recovers at 1.9 s.
const std::vector<NicChange> kReplayNicChanges = {{0.7, 5, 0.5},
                                                  {1.9, 5, 1.0}};

struct ChurnRun {
  std::vector<double> finished;
  SolverStats stats;
  double worst_oracle = 0;  // over the rates after every solve
  uint64_t oracle_checks = 0;
};

// Checks the live rates against the per-flow reference after every solve.
// Built after the network, so its flush hook runs after the network's, at
// the end of each instant that solved.
struct OracleProbe {
  OracleProbe(sim::Simulator& sim, Network& net, ChurnRun& out)
      : net(&net), out(&out) {
    sim.add_flush_hook(
        [](void* ctx) {
          auto* p = static_cast<OracleProbe*>(ctx);
          const uint64_t solves = p->net->solver_stats().class_solves;
          if (solves == p->solves) return;
          p->solves = solves;
          p->out->worst_oracle = std::max(
              p->out->worst_oracle, p->net->solver_oracle_max_rel_diff());
          ++p->out->oracle_checks;
        },
        this);
  }
  Network* net;
  ChurnRun* out;
  uint64_t solves = 0;
};

// Runs `flows` and the NIC changes. With `full_solves`, every start and
// completion also calls set_node_perf with the node's unchanged perf, which
// drops the solve log, so every solve fills from round 0: the reference
// the replaying run must match bit for bit. (Both calls happen at instants
// that re-solve anyway, and bill no time of their own.)
ChurnRun run_churn(const ClusterConfig& cfg,
                   const std::vector<FluidFlow>& flows,
                   const std::vector<NicChange>& nic_changes,
                   bool full_solves) {
  sim::Simulator sim;
  Network net(sim, cfg);
  ChurnRun out;
  out.finished.assign(flows.size(), -1);
  OracleProbe probe(sim, net, out);
  auto xfer = [](Network& n, FluidFlow f, bool full_solves,
                 double* at) -> sim::Task<void> {
    co_await n.simulator().delay(f.start);
    if (full_solves) n.set_node_perf(0, n.node_perf(0));
    co_await n.transfer(f.src, f.dst, f.bytes, f.cap);
    if (full_solves) n.set_node_perf(0, n.node_perf(0));
    *at = n.simulator().now();
  };
  for (size_t i = 0; i < flows.size(); ++i) {
    sim.spawn(xfer(net, flows[i], full_solves, &out.finished[i]));
  }
  auto rescale = [](Network& n, NicChange c) -> sim::Task<void> {
    co_await n.simulator().delay(c.at);
    n.set_node_perf(c.node, NodePerf{.nic = c.nic});
  };
  for (const NicChange& c : nic_changes) sim.spawn(rescale(net, c));
  sim.run();
  EXPECT_EQ(net.active_flows(), 0u);
  out.stats = net.solver_stats();
  return out;
}

class SolverReplayTest
    : public ::testing::TestWithParam<std::tuple<Keys, int>> {};

TEST_P(SolverReplayTest, ReplayedSolvesMatchFullSolvesBitForBit) {
  const auto [keys, seed] = GetParam();
  const ClusterConfig cfg = replay_config();
  const std::vector<FluidFlow> flows = replay_churn(cfg, seed, keys);
  const ChurnRun replayed =
      run_churn(cfg, flows, kReplayNicChanges, /*full_solves=*/false);
  const ChurnRun full =
      run_churn(cfg, flows, kReplayNicChanges, /*full_solves=*/true);

  // Some instants batch several departures.
  EXPECT_LT(std::set<double>(replayed.finished.begin(), replayed.finished.end())
                .size(),
            flows.size());
  // Same solves, and every completion at the same instant to the bit.
  EXPECT_EQ(replayed.stats.class_solves, full.stats.class_solves);
  EXPECT_EQ(full.stats.rounds_replayed, 0u);
  for (size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(replayed.finished[i], full.finished[i]) << "flow " << i;
  }
  // The replay takes over 2/5 of the full solves' rounds (47-80% on seeds
  // 1-5), and over 3/4 where arrivals insert rounds mid-fill (80-82%).
  // Stopping for good at the first round that cannot replay reaches 24-57%
  // here, and at most 57% on kLevels.
  EXPECT_EQ(replayed.stats.fill_rounds + replayed.stats.rounds_replayed,
            full.stats.fill_rounds);
  EXPECT_GT(replayed.stats.rounds_replayed * 5, full.stats.fill_rounds * 2);
  if (keys == Keys::kLevels) {
    EXPECT_GT(replayed.stats.rounds_replayed * 4, full.stats.fill_rounds * 3);
  }
  // The live rates after every solve against the per-flow reference: exact
  // when every class has one member, within rounding otherwise.
  EXPECT_EQ(replayed.oracle_checks, replayed.stats.class_solves);
  if (keys == Keys::kDistinct) {
    EXPECT_EQ(replayed.worst_oracle, 0.0);
  } else {
    EXPECT_LT(replayed.worst_oracle, 1e-9);
  }
  // And the completions against the fluid model driven by the reference.
  const std::vector<double> want =
      reference_completions(cfg, flows, kReplayNicChanges);
  for (size_t i = 0; i < flows.size(); ++i) {
    EXPECT_NEAR(replayed.finished[i], want[i],
                1e-9 * std::max(1.0, want[i]))
        << "flow " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverReplayTest,
                         ::testing::Combine(::testing::Values(Keys::kDistinct,
                                                              Keys::kShared,
                                                              Keys::kLevels),
                                            ::testing::Range(1, 6)));

// The shape of the suite's write_append: each of the 16 nodes of racks 0
// and 1 keeps kStreams capped streams busy, every stream writing a run of
// flows of varied size to the 48 nodes of the other racks, the next
// starting the instant the last ends. Uplinks are wide and destinations
// rarely take more than kStreams flows, so most classes freeze in one
// round at a share of nic / kStreams tied across the sources, and nearly
// every departure reaches that round. Completions are in stream order.
constexpr uint32_t kSources = 16;
constexpr uint32_t kStreams = 4;
constexpr uint32_t kFlowsPerStream = 6;

ClusterConfig tied_config() {
  ClusterConfig cfg = small_config();
  cfg.num_nodes = 64;
  cfg.nodes_per_rack = 8;
  cfg.rack_uplink_bps = 2e9;
  return cfg;
}

ChurnRun run_tied(const ClusterConfig& cfg, uint64_t seed, bool full_solves) {
  sim::Simulator sim;
  Network net(sim, cfg);
  ChurnRun out;
  out.finished.assign(size_t{kSources} * kStreams * kFlowsPerStream, -1);
  OracleProbe probe(sim, net, out);
  auto stream = [](Network& n, NodeId src, uint64_t seed, double cap,
                   bool full_solves, double* at) -> sim::Task<void> {
    const uint32_t nodes = n.config().num_nodes;
    Rng rng(seed);
    for (uint32_t i = 0; i < kFlowsPerStream; ++i) {
      const auto dst =
          static_cast<NodeId>(kSources + rng.below(nodes - kSources));
      if (full_solves) n.set_node_perf(0, n.node_perf(0));
      co_await n.transfer(src, dst, 4e6 + rng.uniform() * 12e6, cap);
      at[i] = n.simulator().now();
    }
    if (full_solves) n.set_node_perf(0, n.node_perf(0));
  };
  for (NodeId src = 0; src < kSources; ++src) {
    for (uint32_t j = 0; j < kStreams; ++j) {
      const size_t first = (size_t{src} * kStreams + j) * kFlowsPerStream;
      // Caps above the tied share; the lower one binds once one of a
      // node's streams is held back at its destination.
      const double cap = j % 2 == 0 ? 26e6 : 40e6;
      sim.spawn(stream(net, src, seed * 1000 + first, cap, full_solves,
                       &out.finished[first]));
    }
  }
  sim.run();
  EXPECT_EQ(net.active_flows(), 0u);
  out.stats = net.solver_stats();
  return out;
}

class SolverTiedReplayTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverTiedReplayTest, TiedShareChurnReplaysBitForBit) {
  const ClusterConfig cfg = tied_config();
  const ChurnRun replayed = run_tied(cfg, GetParam(), /*full_solves=*/false);
  const ChurnRun full = run_tied(cfg, GetParam(), /*full_solves=*/true);
  EXPECT_EQ(replayed.stats.class_solves, full.stats.class_solves);
  EXPECT_EQ(full.stats.rounds_replayed, 0u);
  for (size_t i = 0; i < replayed.finished.size(); ++i) {
    EXPECT_EQ(replayed.finished[i], full.finished[i]) << "flow " << i;
  }
  // Same rounds as the full solves, most of them replayed, with a small
  // fraction of the full solves' bottleneck tests.
  EXPECT_EQ(replayed.stats.fill_rounds + replayed.stats.rounds_replayed,
            full.stats.fill_rounds);
  EXPECT_GT(replayed.stats.rounds_replayed * 5, full.stats.fill_rounds * 2);
  EXPECT_LT(replayed.stats.class_tests * 3, full.stats.class_tests);
  EXPECT_EQ(replayed.oracle_checks, replayed.stats.class_solves);
  EXPECT_LT(replayed.worst_oracle, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverTiedReplayTest, ::testing::Range(1, 6));

// The 8-level fill of FillTestsEachClassAboutOncePerSolve, started at
// t = 0, plus `extra` flows. Round k freezes destination 7 - k's classes at
// nic / (8 - k). Returns the solver stats and the oracle difference at each
// probe time.
constexpr uint32_t kLevels = 8;

// An extra flow of `bytes` from src to dst at `start`. With a relay, a
// flow of the same size from node `relay` to dst starts the instant this
// one ends.
struct LevelFlow {
  NodeId src;
  NodeId dst;
  double start;
  double bytes = 100e6;
  std::optional<NodeId> relay = std::nullopt;
};

struct LevelProbes {
  std::vector<SolverStats> at;
  std::vector<double> oracle;
};

LevelProbes run_levels(const std::vector<LevelFlow>& extra,
                       const std::vector<double>& probes) {
  ClusterConfig cfg = small_config();
  cfg.num_nodes = 64;
  cfg.nodes_per_rack = 64;
  sim::Simulator sim;
  Network net(sim, cfg);
  auto xfer = [](Network& n, LevelFlow f) -> sim::Task<void> {
    co_await n.simulator().delay(f.start);
    co_await n.transfer(f.src, f.dst, f.bytes);
    if (f.relay) co_await n.transfer(*f.relay, f.dst, f.bytes);
  };
  NodeId src = kLevels;
  for (NodeId dst = 0; dst < kLevels; ++dst) {
    for (uint32_t i = 0; i <= dst; ++i) {
      sim.spawn(xfer(net, LevelFlow{.src = src++, .dst = dst, .start = 0}));
    }
  }
  for (const LevelFlow& f : extra) sim.spawn(xfer(net, f));
  LevelProbes out;
  auto probe = [](Network& n, const std::vector<double>& times,
                  LevelProbes* out) -> sim::Task<void> {
    for (double t : times) {
      co_await n.simulator().delay(t - n.simulator().now());
      out->at.push_back(n.solver_stats());
      out->oracle.push_back(n.solver_oracle_max_rel_diff());
    }
  };
  sim.spawn(probe(net, probes, &out));
  sim.run();
  return out;
}

TEST(Network, ReplayResumesAfterARoundWhoseShareMoves) {
  // A flow between two idle nodes, 60 to 61, leaves every share where it
  // was: all 8 rounds replay, and its links, dirty but out of reach until
  // the last round, make it the one class tested, as a candidate when they
  // pass in round 7. Two more flows from node 60 tie its NIC with round
  // 5's share of nic / 3: all 8 rounds replay again, and its three classes
  // are tested as candidates there (60 to 61 two rounds before the log
  // froze it). A flow into destination 7 moves round 0's share down to
  // nic / 9: that round runs and freezes all of destination 7's classes,
  // so logged round 0 has nothing left and the other 7 rounds replay.
  const LevelProbes p = run_levels({{60, 61, 0.25},          // idle pair
                                    {60, 50, 0.5},           // node 60's NIC
                                    {60, 51, 0.5},           //   at nic / 3
                                    {62, kLevels - 1, 0.75}},  // lowest share
                                   {0.125, 0.375, 0.625, 0.875});
  ASSERT_EQ(p.at.size(), 4u);
  EXPECT_EQ(p.at[0].class_solves, 1u);
  EXPECT_EQ(p.at[0].fill_rounds, kLevels);
  EXPECT_EQ(p.at[0].rounds_replayed, 0u);
  EXPECT_EQ(p.at[1].class_solves, 2u);
  EXPECT_EQ(p.at[1].rounds_replayed, kLevels);
  EXPECT_EQ(p.at[1].fill_rounds, kLevels);
  EXPECT_EQ(p.at[1].class_tests, p.at[0].class_tests + 1);
  EXPECT_EQ(p.at[2].class_solves, 3u);
  EXPECT_EQ(p.at[2].rounds_replayed, 2 * kLevels);
  EXPECT_EQ(p.at[2].fill_rounds, kLevels);
  EXPECT_EQ(p.at[2].class_tests, p.at[1].class_tests + 3);
  EXPECT_EQ(p.at[3].class_solves, 4u);
  EXPECT_EQ(p.at[3].fill_rounds, kLevels + 1);
  EXPECT_EQ(p.at[3].rounds_replayed, 3 * kLevels - 1);
  EXPECT_EQ(p.at[3].class_tests, p.at[2].class_tests + kLevels + 1);
  for (double d : p.oracle) EXPECT_EQ(d, 0.0);
}

TEST(Network, RunRoundAtALoggedShareRejoinsTheLog) {
  // A short flow from node 62 joins destination 7 (round 0 runs at nic / 9,
  // and the other 7 rounds replay). The instant it ends, node 63 takes its
  // place: destination 7's NIC keeps 9 members and the share nic / 9, but
  // it is dirty, and it was round 0's one marked link, so round 0 cannot
  // replay. It runs at the logged share, freezing the logged classes but
  // 62 to 7 and the new 63 to 7: the round that ran consumes logged round
  // 0, and the other 7 rounds replay. (Each short flow takes 0.09 s at
  // nic / 9.)
  const LevelProbes p = run_levels(
      {{.src = 62, .dst = kLevels - 1, .start = 0.25, .bytes = 1e6,
        .relay = 63}},
      {0.125, 0.3, 0.4});
  ASSERT_EQ(p.at.size(), 3u);
  EXPECT_EQ(p.at[0].fill_rounds, kLevels);
  EXPECT_EQ(p.at[1].class_solves, 2u);
  EXPECT_EQ(p.at[1].fill_rounds, kLevels + 1);
  EXPECT_EQ(p.at[1].rounds_replayed, kLevels - 1);
  EXPECT_EQ(p.at[2].class_solves, 3u);
  EXPECT_EQ(p.at[2].fill_rounds, kLevels + 2);
  EXPECT_EQ(p.at[2].rounds_replayed, 2 * (kLevels - 1));
  EXPECT_EQ(p.at[2].class_tests, p.at[1].class_tests + kLevels + 1);
  for (double d : p.oracle) EXPECT_EQ(d, 0.0);
}

TEST(Network, LastRoundDivergenceLeavesTheNextSolveClean) {
  // Node 8 is destination 0's one source, frozen at nic in round 7. A
  // second flow from node 8 ties its NIC with round 6's share of nic / 2,
  // so both of its classes freeze there as candidates and the solve ends a
  // round early: 8 to 0 froze where the log did not, and dirtied
  // destination 0's NIC in the solve's last round. That dirt must not
  // carry over: when a flow from idle node 59 joins destination 0, its NIC
  // (now at nic / 2) must be checked and marked like any changed link, so
  // 59 to 0 freezes in round 6 too and no round is added.
  const LevelProbes p = run_levels({{kLevels, 61, 0.25}, {59, 0, 0.5}},
                                   {0.125, 0.375, 0.625});
  ASSERT_EQ(p.at.size(), 3u);
  EXPECT_EQ(p.at[0].fill_rounds, kLevels);
  EXPECT_EQ(p.at[1].class_solves, 2u);
  EXPECT_EQ(p.at[1].rounds_replayed, kLevels - 1);
  EXPECT_EQ(p.at[1].fill_rounds, kLevels);
  EXPECT_EQ(p.at[1].class_tests, p.at[0].class_tests + 2);
  EXPECT_EQ(p.at[2].class_solves, 3u);
  EXPECT_EQ(p.at[2].rounds_replayed, 2 * (kLevels - 1));
  EXPECT_EQ(p.at[2].fill_rounds, kLevels);
  EXPECT_EQ(p.at[2].class_tests, p.at[1].class_tests + 2);
  for (double d : p.oracle) EXPECT_EQ(d, 0.0);
}

TEST(Network, ReplayRetestsLinksThatRoundingCanMakePass) {
  // A replayed round in which a subtraction makes a link pass by rounding
  // alone (the construction of determinism_test's rounding-flipped
  // bottleneck). Rack uplinks have capacity s; every NIC has nic, the
  // smallest double above limit * (kB + kF + 1) for limit = s (1 + 1e-12),
  // with s searched for until fl(nic - s) <= fl(limit * (kB + kF)). In
  // creation order: c (0 to 4, one flow), B (5 to 4, kB flows), c2 (5 to
  // 1, one flow), B2 (5 to 6, kF flows) and F (7 to 4, kF - 1 flows, one
  // more at 0.25 s). c and c2 are alone on their rack uplinks, so round 0's
  // share is s. Node 4's NIC down (D) carries c, B and F; node 5's NIC up
  // (E) carries B, c2 and B2.
  //
  // First solve: c2's subtraction makes E pass, so B2 freezes in round 0
  // too; D, one member short, stays far above the share. Second solve:
  // round 0 replays. F's arrival has made D dirty and within reach of the
  // share, so c is re-tested, and its subtraction makes D pass: B freezes
  // as a candidate, where the log did not. That turns E dirty mid-round,
  // kB members lighter than in the log when c2 subtracts, so it no longer
  // passes and B2 must not freeze in round 0. Skipping the re-test of c (a
  // dirty link within reach at the round's start) misses B's freeze;
  // skipping that of c2 and B2 (a link turned dirty mid-round) keeps B2's.
  // B2's rate then differs by about 1e-12 relative, too little to move a
  // flow that ends in one event with others, so B2's flows are half the
  // size: they finish first, at an instant their rate sets to the bit.
  constexpr uint32_t kB = 100;
  constexpr uint32_t kF = 12000;
  constexpr double k = kB + kF;
  double s = 1.5e6;
  double nic = 0;
  bool flips = false;
  for (int i = 0; i < 1000 && !flips; ++i) {
    s += 0.37;
    const double limit = s * (1 + 1e-12);
    nic = std::nextafter(limit * (k + 1),
                         std::numeric_limits<double>::infinity());
    flips = nic - s <= limit * k && nic / (k + 1) >= s;
  }
  ASSERT_TRUE(flips);
  ClusterConfig cfg = small_config();
  cfg.nic_bps = nic;
  cfg.rack_uplink_bps = s;
  std::vector<FluidFlow> flows;
  flows.push_back({0, 4, 1e6, 0});                    // c
  flows.insert(flows.end(), kB, {5, 4, 1e6, 0});      // B
  flows.push_back({5, 1, 1e6, 0});                    // c2
  flows.insert(flows.end(), kF, {5, 6, 0.5e6, 0});    // B2
  flows.insert(flows.end(), kF - 1, {7, 4, 1e6, 0});  // F
  flows.push_back({7, 4, 1e6, 0.25});                 //   and its arrival
  const ChurnRun replayed = run_churn(cfg, flows, {}, /*full_solves=*/false);
  const ChurnRun full = run_churn(cfg, flows, {}, /*full_solves=*/true);
  EXPECT_EQ(replayed.stats.class_solves, full.stats.class_solves);
  size_t differ = 0;
  for (size_t i = 0; i < flows.size(); ++i) {
    differ += replayed.finished[i] != full.finished[i] ? 1 : 0;
  }
  EXPECT_EQ(differ, 0u);
  EXPECT_GT(replayed.stats.rounds_replayed, 0u);
  EXPECT_EQ(replayed.stats.fill_rounds + replayed.stats.rounds_replayed,
            full.stats.fill_rounds);
  EXPECT_EQ(replayed.oracle_checks, replayed.stats.class_solves);
  EXPECT_LT(replayed.worst_oracle, 1e-9);
}

TEST(Network, RoundBelowACappedLoggedRoundFreezesEveryLinkThatPasses) {
  // Five flows into node 1 hold its NIC at nic / 5 = 20 MB/s, a flow from
  // node 8 to 9 is capped at exactly that, and two flows into node 12 hold
  // its NIC at nic / 2. The first solve logs a capped round at 20 MB/s,
  // which marks no link, then the round that freezes node 1's classes and
  // the one for node 12's. At 0.25 s a flow from node 7 to 10 arrives
  // whose rack uplinks hold it 1e-13 below 20 MB/s: the next solve runs a
  // round at that share while the log's cursor is on the capped round. No
  // cap binds there, but node 1's NIC, clean, passes the round's test
  // (which admits 1e-12), so its five classes freeze at the lower share,
  // as in a full solve. Node 12's round still replays.
  ClusterConfig cfg = small_config();
  cfg.num_nodes = 16;
  cfg.nodes_per_rack = 8;
  cfg.rack_uplink_bps = 20e6 * (1 - 1e-13);
  std::vector<FluidFlow> flows;
  for (NodeId src = 2; src <= 6; ++src) flows.push_back({src, 1, 10e6, 0});
  flows.push_back({8, 9, 20e6, 0, 20e6});
  flows.push_back({13, 12, 50e6, 0});
  flows.push_back({14, 12, 50e6, 0});
  flows.push_back({7, 10, 1e6, 0.25});
  const ChurnRun replayed = run_churn(cfg, flows, {}, /*full_solves=*/false);
  const ChurnRun full = run_churn(cfg, flows, {}, /*full_solves=*/true);
  EXPECT_EQ(replayed.stats.class_solves, full.stats.class_solves);
  for (size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(replayed.finished[i], full.finished[i]) << "flow " << i;
  }
  // Node 1's flows ran below 20 MB/s while node 7's did.
  EXPECT_GT(full.finished[0], 0.5);
  EXPECT_GT(replayed.stats.rounds_replayed, 0u);
  EXPECT_EQ(replayed.stats.fill_rounds + replayed.stats.rounds_replayed,
            full.stats.fill_rounds);
  EXPECT_EQ(replayed.oracle_checks, replayed.stats.class_solves);
  EXPECT_LT(replayed.worst_oracle, 1e-9);
}

}  // namespace
}  // namespace bs::net
