// Synchronization primitives for simulated coroutines.
//
// All primitives wake waiters through the simulator's event queue (never by
// direct resumption), which keeps scheduling FIFO-fair and deterministic
// and bounds native stack depth. Mesa-style semantics: a woken waiter
// re-checks its predicate (CondVar::wait is always used inside a loop).
#pragma once

#include <coroutine>
#include <cstddef>

#include "common/assert.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace bs::sim {

// FIFO of suspended coroutines, linked through their awaiters. An awaiter
// lives in its suspended coroutine's frame until it resumes, so the queue
// owns no memory: an idle gate costs three words, and push and pop are
// O(1) however many wait (a saturated NameNode gate holds thousands).
class WaitQueue {
 public:
  struct Node {
    std::coroutine_handle<> h;
    Node* next = nullptr;
  };

  bool empty() const { return head_ == nullptr; }
  size_t size() const { return size_; }

  void push(Node* n, std::coroutine_handle<> h) {
    n->h = h;
    n->next = nullptr;
    (tail_ != nullptr ? tail_->next : head_) = n;
    tail_ = n;
    ++size_;
  }

  // Schedules the oldest waiter's resumption at the current time.
  void wake_one(Simulator& sim) {
    BS_DCHECK(head_ != nullptr);
    Node* n = head_;
    head_ = n->next;
    if (head_ == nullptr) tail_ = nullptr;
    --size_;
    sim.schedule_now(n->h);
  }

  void wake_all(Simulator& sim) {
    while (!empty()) wake_one(sim);
  }

 private:
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  size_t size_ = 0;
};

// Condition variable. wait() suspends unconditionally; callers loop:
//   while (!pred()) co_await cv.wait();
class CondVar {
 public:
  explicit CondVar(Simulator& sim) : sim_(sim) {}
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  auto wait() {
    struct Awaiter : WaitQueue::Node {
      CondVar& cv;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { cv.waiters_.push(this, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{{}, *this};
  }

  void notify_one() {
    if (!waiters_.empty()) waiters_.wake_one(sim_);
  }

  void notify_all() { waiters_.wake_all(sim_); }

 private:
  Simulator& sim_;
  WaitQueue waiters_;
};

// One-shot broadcast event (a latch): set() wakes all current and future
// waiters.
class Event {
 public:
  explicit Event(Simulator& sim) : sim_(sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  void set() {
    if (set_) return;
    set_ = true;
    waiters_.wake_all(sim_);
  }

  // Ready at once when set; otherwise one suspension, since a latch never
  // unsets.
  auto wait() {
    struct Awaiter : WaitQueue::Node {
      Event& ev;
      bool await_ready() const noexcept { return ev.set_; }
      void await_suspend(std::coroutine_handle<> h) { ev.waiters_.push(this, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{{}, *this};
  }

 private:
  Simulator& sim_;
  WaitQueue waiters_;
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
    struct Awaiter : WaitQueue::Node {
      Semaphore& s;
      bool await_ready() {
        if (s.permits_ > 0 && s.waiters_.empty()) {
          --s.permits_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { s.waiters_.push(this, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{{}, *this};
  }

  void release(size_t n = 1) {
    while (n > 0 && !waiters_.empty()) {
      waiters_.wake_one(sim_);
      --n;
    }
    permits_ += n;
  }

  size_t waiting() const { return waiters_.size(); }

 private:
  Simulator& sim_;
  size_t permits_;
  WaitQueue waiters_;
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
