// Structured-concurrency helpers: run a batch of tasks and join them.
//
// Implemented on top of spawn, Semaphore and WaitGroup; results land in a
// vector indexed by task order, so output order is deterministic regardless
// of completion order.
#pragma once

#include <optional>
#include <vector>

#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace bs::sim {

// Runs tasks with at most `limit` in flight at once (e.g. a client fetching
// pages with bounded parallelism). Results in input order.
template <typename T>
Task<std::vector<T>> when_all_limited(Simulator& sim, std::vector<Task<T>> tasks,
                                      size_t limit) {
  std::vector<std::optional<T>> slots(tasks.size());
  WaitGroup wg(sim);
  wg.add(tasks.size());
  Semaphore gate(sim, limit);
  for (size_t i = 0; i < tasks.size(); ++i) {
    auto gated = [](Semaphore& g, Task<T> task,
                    std::vector<std::optional<T>>* out, size_t idx,
                    WaitGroup* w) -> Task<void> {
      co_await g.acquire();
      (*out)[idx] = co_await std::move(task);
      g.release();
      w->done();
    };
    sim.spawn(gated(gate, std::move(tasks[i]), &slots, i, &wg));
  }
  co_await wg.wait();
  std::vector<T> out;
  out.reserve(slots.size());
  for (auto& s : slots) out.push_back(std::move(*s));
  co_return out;
}

inline Task<void> when_all_limited(Simulator& sim, std::vector<Task<void>> tasks,
                                   size_t limit) {
  WaitGroup wg(sim);
  wg.add(tasks.size());
  Semaphore gate(sim, limit);
  for (auto& t : tasks) {
    auto gated = [](Semaphore& g, Task<void> task, WaitGroup* w) -> Task<void> {
      co_await g.acquire();
      co_await std::move(task);
      g.release();
      w->done();
    };
    sim.spawn(gated(gate, std::move(t), &wg));
  }
  co_await wg.wait();
}

// Runs all tasks concurrently; results (for Task<T>) in input order. With a
// permit per task no acquire waits, and one that does not wait makes no
// event.
template <typename T>
auto when_all(Simulator& sim, std::vector<Task<T>> tasks) {
  const size_t n = tasks.size();
  return when_all_limited(sim, std::move(tasks), n);
}

}  // namespace bs::sim
