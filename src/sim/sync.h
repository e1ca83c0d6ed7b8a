// Synchronization primitives for simulated coroutines.
//
// All primitives wake waiters through the simulator's event queue (never by
// direct resumption), which keeps scheduling FIFO-fair and deterministic
// and bounds native stack depth. Mesa-style semantics: a woken waiter
// re-checks its predicate (CondVar::wait is always used inside a loop).
#pragma once

#include <coroutine>
#include <deque>

#include "common/assert.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace bs::sim {

// Condition variable. wait() suspends unconditionally; callers loop:
//   while (!pred()) co_await cv.wait();
class CondVar {
 public:
  explicit CondVar(Simulator& sim) : sim_(sim) {}
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  auto wait() {
    struct Awaiter {
      CondVar& cv;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { cv.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void notify_one() {
    if (!waiters_.empty()) {
      sim_.schedule_now(waiters_.front());
      waiters_.pop_front();
    }
  }

  void notify_all() {
    for (auto h : waiters_) sim_.schedule_now(h);
    waiters_.clear();
  }

 private:
  Simulator& sim_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// One-shot broadcast event (a latch): set() wakes all current and future
// waiters.
class Event {
 public:
  explicit Event(Simulator& sim) : cv_(sim) {}

  void set() {
    if (set_) return;
    set_ = true;
    cv_.notify_all();
  }

  Task<void> wait() {
    while (!set_) co_await cv_.wait();
  }

 private:
  CondVar cv_;
  bool set_ = false;
};

// Counting semaphore with FIFO handoff: release() transfers a permit
// directly to the oldest waiter, so no barging.
class Semaphore {
 public:
  Semaphore(Simulator& sim, size_t permits) : sim_(sim), permits_(permits) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  auto acquire() {
    struct Awaiter {
      Semaphore& s;
      bool await_ready() {
        if (s.permits_ > 0 && s.waiters_.empty()) {
          --s.permits_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { s.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void release(size_t n = 1) {
    while (n > 0 && !waiters_.empty()) {
      sim_.schedule_now(waiters_.front());
      waiters_.pop_front();
      --n;
    }
    permits_ += n;
  }

  size_t waiting() const { return waiters_.size(); }

 private:
  Simulator& sim_;
  size_t permits_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Completion counter: add(n) before spawning, done() in each task,
// co_await wait() to join.
class WaitGroup {
 public:
  explicit WaitGroup(Simulator& sim) : cv_(sim) {}

  void add(size_t n = 1) { count_ += n; }

  void done() {
    BS_CHECK(count_ > 0);
    if (--count_ == 0) cv_.notify_all();
  }

  Task<void> wait() {
    while (count_ > 0) co_await cv_.wait();
  }

 private:
  CondVar cv_;
  size_t count_ = 0;
};

}  // namespace bs::sim
