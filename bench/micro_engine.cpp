// M1: google-benchmark microbenchmarks of the substrate data structures —
// the event loop, the max-min solver, the versioned segment tree, CRC32C,
// and pattern generation. These bound the simulator's own
// costs (the "instrument error" of every other bench).
#include <benchmark/benchmark.h>

#include <deque>
#include <memory>
#include <vector>

#include "blob/metadata.h"
#include "blob/version_manager.h"
#include "common/dataspec.h"
#include "common/hash.h"
#include "common/rng.h"
#include "net/network.h"
#include "net/rpc.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace bs {
namespace {

void BM_EventLoopDelay(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    auto proc = [](sim::Simulator& s) -> sim::Task<void> {
      for (int i = 0; i < 1000; ++i) co_await s.delay(0.001);
    };
    sim.spawn(proc(sim));
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopDelay);

// The shape of the suite's metadata storm: N clients loop over request
// hops to one of 16 shards, a FIFO hand-off through the shard's gate, a
// service time that depends on the op, and a reply hop. Three fixed delays
// plus schedule_now hand-offs, with N events pending, so this measures the
// event queue at depth (BM_EventLoopDelay keeps one entry queued).
constexpr double kStormHop = 200e-6;
constexpr double kStormService[2] = {60e-6, 80e-6};

sim::Task<void> storm_client(sim::Simulator& s, sim::Semaphore& gate, int id) {
  for (int op = 0; op < 20; ++op) {
    co_await s.delay(kStormHop);
    co_await gate.acquire();
    co_await s.delay(kStormService[(id + op) & 1]);
    gate.release();
    co_await s.delay(kStormHop);
  }
}

void BM_EventLoopStorm(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  constexpr int kShards = 16;
  uint64_t events = 0;
  uint64_t heap = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<std::unique_ptr<sim::Semaphore>> gates;
    for (int g = 0; g < kShards; ++g) {
      gates.push_back(std::make_unique<sim::Semaphore>(sim, 1));
    }
    for (int i = 0; i < clients; ++i) {
      sim.spawn(storm_client(sim, *gates[i % kShards], i));
    }
    sim.run();
    benchmark::DoNotOptimize(sim.now());
    events += sim.events_processed();
    heap += sim.heap_events();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["heap_share"] =
      static_cast<double>(heap) / static_cast<double>(events);
}
BENCHMARK(BM_EventLoopStorm)->Arg(1000)->Arg(10000);

// The same storm through net::Service, as the metadata plane runs it: the
// request hop, the slot (with a FIFO hand-off when it is taken) and the
// reply hop, so this times the request path itself and not only the queue.
sim::Task<void> service_client(net::Service& svc, net::NodeId node) {
  for (int op = 0; op < 20; ++op) {
    co_await svc.request(node);
    co_await svc.reply(node);
  }
}

// The storm again with each op a call, as the metadata handlers run: the
// slot's end runs the body (here a count) and sends the reply.
sim::Task<void> call_client(net::Service& svc, net::NodeId node,
                            uint64_t* served) {
  for (int op = 0; op < 20; ++op) {
    *served = co_await svc.call(node, [served] { return *served + 1; });
  }
}

// Runs `clients` storm clients over 16 shards; `client(shard, node)`
// makes one client's task.
template <typename Client>
void run_service_storm(benchmark::State& state, Client client) {
  const int clients = static_cast<int>(state.range(0));
  constexpr uint32_t kShards = 16;
  net::ClusterConfig cfg;
  cfg.num_nodes = 64;
  cfg.control_latency_s = kStormHop;
  uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network net(sim, cfg);
    std::deque<net::Service> shards;
    for (uint32_t g = 0; g < kShards; ++g) {
      shards.emplace_back(net, g, kStormService[g & 1]);
    }
    for (int i = 0; i < clients; ++i) {
      const auto node =
          static_cast<net::NodeId>(kShards + i % (cfg.num_nodes - kShards));
      sim.spawn(client(shards[i % kShards], node));
    }
    sim.run();
    benchmark::DoNotOptimize(sim.now());
    events += sim.events_processed();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}

void BM_ServiceStorm(benchmark::State& state) {
  run_service_storm(state, [](net::Service& svc, net::NodeId node) {
    return service_client(svc, node);
  });
}
BENCHMARK(BM_ServiceStorm)->Arg(1000)->Arg(10000);

void BM_ServiceCallStorm(benchmark::State& state) {
  uint64_t served = 0;
  run_service_storm(state, [&served](net::Service& svc, net::NodeId node) {
    return call_client(svc, node, &served);
  });
  benchmark::DoNotOptimize(served);
}
BENCHMARK(BM_ServiceCallStorm)->Arg(1000)->Arg(10000);

// The share of one run's filling rounds taken from the solve log.
double replayed_share(const net::SolverStats& s) {
  const auto total = static_cast<double>(s.fill_rounds + s.rounds_replayed);
  return total > 0 ? static_cast<double>(s.rounds_replayed) / total : 0;
}

void BM_FlowSolver(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    net::ClusterConfig cfg;
    cfg.num_nodes = 270;
    cfg.nodes_per_rack = 30;
    net::Network net(sim, cfg);
    Rng rng(1);
    auto proc = [](net::Network& n, uint32_t src, uint32_t dst) -> sim::Task<void> {
      co_await n.transfer(src, dst, 1e6);
    };
    for (int i = 0; i < flows; ++i) {
      const auto src = static_cast<net::NodeId>(rng.below(cfg.num_nodes));
      auto dst = static_cast<net::NodeId>(rng.below(cfg.num_nodes));
      if (dst == src) dst = (dst + 1) % cfg.num_nodes;
      sim.spawn(proc(net, src, dst));
    }
    sim.run();
    benchmark::DoNotOptimize(net.bytes_moved());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FlowSolver)->Arg(64)->Arg(256)->Arg(1024);

// Arrival/departure churn over a handful of repeated paths — the shuffle-
// storm shape the path-class solver aggregates. Staggered starts keep
// arrivals and departures interleaving for the whole run, so every change
// exercises the instant-batched re-solve path.
void BM_FlowSolverChurn(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    net::ClusterConfig cfg;
    cfg.num_nodes = 32;
    cfg.nodes_per_rack = 8;
    net::Network net(sim, cfg);
    auto proc = [](sim::Simulator& s, net::Network& n, net::NodeId src,
                   net::NodeId dst, double start) -> sim::Task<void> {
      co_await s.delay(start);
      co_await n.transfer(src, dst, 4e6);
    };
    for (int i = 0; i < flows; ++i) {
      const auto pair = static_cast<net::NodeId>(i % 8);
      sim.spawn(proc(sim, net, pair, 8 + pair, 0.001 * (i % 97)));
    }
    sim.run();
    benchmark::DoNotOptimize(net.bytes_moved());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FlowSolverChurn)->Arg(256)->Arg(1024)->Arg(4096);

// The capped, many-level fill of read_shared's shape: 250 clients on a
// 270-node cluster with a per-stream cap each start 4 staggered fetches
// from seeded sources, so most solves run many filling rounds with capped
// and bottleneck freezes interleaved (BM_FlowSolver's flows start together
// and are uncapped; BM_FlowSolverChurn repeats 8 paths).
void BM_FlowSolverLevels(benchmark::State& state) {
  const auto clients = static_cast<uint32_t>(state.range(0));
  net::SolverStats work;
  for (auto _ : state) {
    sim::Simulator sim;
    net::ClusterConfig cfg;
    cfg.num_nodes = 270;
    cfg.nodes_per_rack = 30;
    cfg.rack_uplink_bps = 4.0e9;
    cfg.per_stream_cap_bps = 0.65 * cfg.nic_bps;
    net::Network net(sim, cfg);
    Rng rng(2);
    auto proc = [](sim::Simulator& s, net::Network& n, net::NodeId src,
                   net::NodeId dst, double bytes,
                   double start) -> sim::Task<void> {
      co_await s.delay(start);
      co_await n.transfer(src, dst, bytes);
    };
    for (net::NodeId client = 1; client <= clients; ++client) {
      const double t0 = rng.uniform() * 0.2;
      for (int k = 0; k < 4; ++k) {
        auto src = static_cast<net::NodeId>(rng.below(cfg.num_nodes - 1));
        if (src >= client) ++src;
        const auto bytes = static_cast<double>((1 + rng.below(16)) << 20);
        sim.spawn(proc(sim, net, src, client, bytes, t0 + 0.01 * k));
      }
    }
    sim.run();
    benchmark::DoNotOptimize(net.bytes_moved());
    work = net.solver_stats();
  }
  state.SetItemsProcessed(state.iterations() * clients * 4);
  state.counters["replayed_share"] = replayed_share(work);
}
BENCHMARK(BM_FlowSolverLevels)->Arg(64)->Arg(250);

// Standing load: node i keeps long transfers open to i+1..i+S (270 * S
// classes of equal load, so each fill takes few rounds) while 256 short
// transfers arrive one per instant. Every arrival and departure re-solves
// all the standing classes, so the time tracks the solver's per-class cost
// rather than its round count. The run stops before any long one ends.
void BM_FlowSolverStanding(benchmark::State& state) {
  const auto fanout = static_cast<uint32_t>(state.range(0));
  net::SolverStats work;
  for (auto _ : state) {
    sim::Simulator sim;
    net::ClusterConfig cfg;
    cfg.num_nodes = 270;
    cfg.nodes_per_rack = 30;
    cfg.rack_uplink_bps = 4.0e9;
    net::Network net(sim, cfg);
    auto proc = [](sim::Simulator& s, net::Network& n, net::NodeId src,
                   net::NodeId dst, double bytes,
                   double start) -> sim::Task<void> {
      co_await s.delay(start);
      co_await n.transfer(src, dst, bytes);
    };
    for (net::NodeId i = 0; i < cfg.num_nodes; ++i) {
      for (uint32_t k = 1; k <= fanout; ++k) {
        sim.spawn(proc(sim, net, i, (i + k) % cfg.num_nodes, 1e9, 0));
      }
    }
    Rng rng(3);
    for (int j = 0; j < 256; ++j) {
      const auto src = static_cast<net::NodeId>(rng.below(cfg.num_nodes));
      auto dst = static_cast<net::NodeId>(rng.below(cfg.num_nodes - 1));
      if (dst >= src) ++dst;
      sim.spawn(proc(sim, net, src, dst, 1e5, 0.001 * (j + 1)));
    }
    sim.run_until(0.5);
    work = net.solver_stats();
    benchmark::DoNotOptimize(work.class_solves);
  }
  state.SetItemsProcessed(state.iterations() * 256);
  state.counters["replayed_share"] = replayed_share(work);
}
BENCHMARK(BM_FlowSolverStanding)->Arg(1)->Arg(4)->Arg(8);

// Steady-state call_at: one self-rescheduling callback, so the pooled slot
// is recycled every tick — the loop should not allocate after warm-up.
void BM_CallAt(benchmark::State& state) {
  struct Ticker {
    sim::Simulator* sim;
    int left;
    void operator()() {
      if (--left > 0) sim->call_at(sim->now() + 0.001, *this);
    }
  };
  for (auto _ : state) {
    sim::Simulator sim;
    sim.call_at(0, Ticker{&sim, 1000});
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CallAt);

void BM_SegmentTreeBuild(benchmark::State& state) {
  const uint64_t cap = static_cast<uint64_t>(state.range(0));
  std::vector<blob::WriteRecord> history;
  // A long append history to search through.
  for (blob::Version v = 1; v <= 512; ++v) {
    history.push_back({v, {(v - 1) % cap, 1}, 0, cap});
  }
  for (auto _ : state) {
    auto nodes = blob::build_write_nodes({cap / 2, 8}, cap, 513, history);
    benchmark::DoNotOptimize(nodes.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegmentTreeBuild)->Arg(256)->Arg(4096)->Arg(32768);

// One blob with `prior` one-page appends already assigned and published.
struct VmFixture {
  explicit VmFixture(uint64_t prior)
      : net(sim, net::ClusterConfig{.num_nodes = 8, .nodes_per_rack = 4}),
        vm(sim, net, {0}) {
    auto fill = [](VmFixture* fx, uint64_t n) -> sim::Task<void> {
      fx->blob = (co_await fx->vm.create_blob(1, 4096, 1)).id;
      for (uint64_t i = 0; i < n; ++i) {
        const blob::WriteTicket t = co_await fx->vm.assign_write(
            1, fx->blob, blob::VersionManager::kAppendOffset, 4096);
        co_await fx->vm.commit(1, fx->blob, t.version);
      }
    };
    sim.spawn(fill(this, prior));
    sim.run();
  }

  sim::Simulator sim;
  net::Network net;
  blob::VersionManager vm;
  blob::BlobId blob = 0;
};

// Version assignment behind a long write history: each iteration assigns
// and commits one append (meta_storm's append-offset op) on a blob that
// already holds between L and 1.25 L versions (L = state.range(0); the
// blob is rebuilt, untimed, every L/4 appends). Tickets share the blob's
// log instead of copying it, so the per-append cost should not grow
// with L.
void BM_VmAssignWrite(benchmark::State& state) {
  const auto prior = static_cast<uint64_t>(state.range(0));
  auto assign = [](blob::VersionManager& vm,
                   blob::BlobId b) -> sim::Task<void> {
    const blob::WriteTicket t = co_await vm.assign_write(
        1, b, blob::VersionManager::kAppendOffset, 4096);
    benchmark::DoNotOptimize(t.history().data());
    co_await vm.commit(1, b, t.version);
  };
  std::unique_ptr<VmFixture> fx;
  uint64_t left = 0;
  for (auto _ : state) {
    if (left == 0) {
      state.PauseTiming();
      fx = std::make_unique<VmFixture>(prior);
      left = prior / 4;
      state.ResumeTiming();
    }
    fx->sim.spawn(assign(fx->vm, fx->blob));
    fx->sim.run();
    --left;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VmAssignWrite)->Arg(1 << 10)->Arg(1 << 14);

void BM_Crc32c(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)));
  Rng rng(3);
  for (auto& b : data) b = static_cast<uint8_t>(rng.below(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(1 << 20);

void BM_PatternFill(benchmark::State& state) {
  Bytes out(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    fill_pattern(42, 12345, out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PatternFill)->Arg(4096)->Arg(1 << 20);

}  // namespace
}  // namespace bs

BENCHMARK_MAIN();
