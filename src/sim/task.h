// Task<T> — the lazy coroutine type every simulated activity is written in.
//
// A Task starts when first awaited (function-call semantics: it runs inline
// at the current simulated instant until its first real suspension) and
// resumes its awaiter by symmetric transfer on completion, so arbitrarily
// deep call chains complete without growing the native stack.
//
// Ownership: the Task object owns the coroutine frame. `co_await task`
// keeps the temporary alive until the await completes, which is exactly the
// frame's lifetime. Detached top-level tasks are owned by the Simulator
// (see Simulator::spawn) and reaped when done.
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "common/assert.h"

namespace bs::sim {

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;
  // Detached-task hook (set by Simulator::spawn): at final suspend the task
  // links itself onto its owner's intrusive finished list, so the owner
  // never has to scan live processes to discover completions. Unset (and
  // free) for awaited tasks, whose continuation resumes instead.
  void (*on_detached_final)(void* owner, uint32_t slot) = nullptr;
  void* detached_owner = nullptr;
  uint32_t detached_slot = 0;

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      // Resume whoever awaited us; a detached task notifies its owner and
      // stays suspended at its final point until the owner destroys it
      // (the frame must not be destroyed here — it is still suspending).
      PromiseBase& p = h.promise();
      if (p.continuation) return p.continuation;
      if (p.on_detached_final != nullptr) {
        p.on_detached_final(p.detached_owner, p.detached_slot);
      }
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
};

// The one part of a promise that depends on T: where the result waits
// for the awaiter.
template <typename T>
struct ResultSlot {
  std::optional<T> value;
  void return_value(T v) { value.emplace(std::move(v)); }
  T take() {
    BS_CHECK_MSG(value.has_value(), "task completed without a value");
    return std::move(*value);
  }
};

template <>
struct ResultSlot<void> {
  void return_void() {}
  void take() {}
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase, detail::ResultSlot<T> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void unhandled_exception() { this->exception = std::current_exception(); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return h_ != nullptr; }
  bool done() const { return h_ && h_.done(); }
  std::coroutine_handle<> handle() const { return h_; }

  // Rethrows an exception captured by a completed task (detached use).
  void rethrow_if_failed() const {
    if (h_ && h_.promise().exception) {
      std::rethrow_exception(h_.promise().exception);
    }
  }

  // Arms the detached-final hook (Simulator::spawn): `fn(owner, slot)` runs
  // inside this task's final suspend, after the body completed but before
  // the frame may be destroyed.
  void set_detached_hook(void (*fn)(void*, uint32_t), void* owner,
                         uint32_t slot) {
    BS_CHECK(h_ != nullptr);
    auto& p = h_.promise();
    p.on_detached_final = fn;
    p.detached_owner = owner;
    p.detached_slot = slot;
  }

  // Awaiting starts the task and suspends the awaiter until completion.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        h.promise().continuation = awaiting;
        return h;  // start (or resume into) the child
      }
      T await_resume() {
        if (h.promise().exception) std::rethrow_exception(h.promise().exception);
        return h.promise().take();
      }
    };
    return Awaiter{h_};
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> h_;
};

}  // namespace bs::sim
