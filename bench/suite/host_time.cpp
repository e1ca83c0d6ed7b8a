#include "host_time.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <queue>
#include <utility>
#include <vector>

namespace bs::suite {
namespace {

// Fixed work in two halves that stand for the simulator's two kinds of
// load: six min-share sweeps over a 512 KiB pair of arrays (the flow
// solver's progressive filling, cache-resident), then 3,500 pop/push
// rounds on a 4096-entry heap of (time, id) pairs, each touching one
// random slot of an 8 MiB table (the event queue and its scattered
// state). State persists across runs so every run does the same work on
// warm structures. A heap-and-table kernel alone tracked the event-loop
// workloads but left read_shared, which the solver dominates, at 12%
// same-seed spread; with the sweeps it is 3%.
double run_kernel() {
  static std::vector<double> capacity(32768, 1.0);
  static std::vector<double> used(32768, 0.5);
  static std::vector<uint64_t> table(1 << 20);
  static std::priority_queue<std::pair<double, uint64_t>> heap = [] {
    std::priority_queue<std::pair<double, uint64_t>> h;
    for (uint64_t i = 0; i < 4096; ++i) h.push({-static_cast<double>(i), i});
    return h;
  }();
  static uint64_t x = 0x9e3779b97f4a7c15ULL;
  const double t0 = host_seconds();
  double least = 1e300;
  for (int sweep = 0; sweep < 6; ++sweep) {
    for (size_t k = 0; k < capacity.size(); ++k) {
      const double share = (capacity[k] - used[k]) / static_cast<double>(k + 1);
      least = std::min(least, share);
      used[k] = used[k] * 0.999 + share * 1e-3;
    }
  }
  x += least > 1e299 ? 1 : 0;  // keeps the sweeps observable
  for (int i = 0; i < 3500; ++i) {
    const auto top = heap.top();
    heap.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t& slot = table[x & (table.size() - 1)];
    slot += top.second ^ x;
    heap.push({top.first - static_cast<double>(x % 1000) * 1e-3, slot});
  }
  return host_seconds() - t0;
}

// Median of the last five kernel runs, after one more run.
double kernel_seconds() {
  static std::array<double, 5> recent{};
  static size_t runs = 0;
  recent[runs % recent.size()] = run_kernel();
  ++runs;
  std::array<double, 5> sorted = recent;
  const size_t n = std::min(runs, sorted.size());
  std::sort(sorted.begin(), sorted.begin() + static_cast<long>(n));
  return sorted[n / 2];
}

}  // namespace

double host_seconds() {
  using Clock = std::chrono::steady_clock;  // bslint: allow(wall-clock)
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

void HostTimer::add(double wall_s) {
  wall_s_ += wall_s;
  reference_s_ += wall_s * kReferenceKernelS / kernel_seconds();
}

}  // namespace bs::suite
