// M1: google-benchmark microbenchmarks of the substrate data structures —
// the event loop, the max-min solver, the versioned segment tree, CRC32C,
// pattern generation, and the KV store. These bound the simulator's own
// costs (the "instrument error" of every other bench).
#include <benchmark/benchmark.h>

#include <string>

#include "blob/metadata.h"
#include "common/dataspec.h"
#include "common/hash.h"
#include "common/rng.h"
#include "kv/kvstore.h"
#include "net/network.h"
#include "sim/simulator.h"

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

void BM_KvStorePut(benchmark::State& state) {
  kv::KvStore kv;
  Rng rng(5);
  uint64_t i = 0;
  for (auto _ : state) {
    kv.put("key/" + std::to_string(i++ % 10000), Bytes(64));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvStorePut);

void BM_KvStoreGet(benchmark::State& state) {
  kv::KvStore kv;
  for (int i = 0; i < 10000; ++i) {
    kv.put("key/" + std::to_string(i), Bytes(64));
  }
  Rng rng(7);
  for (auto _ : state) {
    auto v = kv.get("key/" + std::to_string(rng.below(10000)));
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvStoreGet);

}  // namespace
}  // namespace bs

BENCHMARK_MAIN();
