// Simulator — deterministic discrete-event loop driving all coroutines.
//
// Events are ordered by (time, sequence) pairs; ties are broken by
// insertion order, so runs are bit-reproducible. The simulated world is
// single-threaded by construction (C++ Core Guidelines CP.3: parallelism is
// *modeled*, not executed, so there is no shared mutable state to race on).
//
// Pending events sit in FIFO lanes and one binary heap. Almost every event
// is a coroutine resumed at `now` plus one of a few fixed delays (a control
// latency, a service time, 0 for a hand-off), and events sharing one delay
// are pushed in (time, seq) order: `now` never decreases, `now + dt` is
// monotone in `now`, and seq only grows. So a lane — a ring buffer holding
// the pending events of one delay value — is sorted by construction, and
// push and pop are O(1) (the calendar-queue idea, Brown, CACM 1988,
// narrowed to fixed delays). One lane is kept for delay 0; a new delay
// value takes a free lane only when the lane is empty. call_at and delays
// that find no lane go to the heap. The next event is the (time, seq)
// minimum over the heap top and the lane heads, the order one heap of
// every event would give.
//
// The loop is allocation-free in steady state: an Event is a 24-byte POD
// whose payload is one of three kinds, told apart by its two low bits
// (coroutine frames come from operator new and Steps are pointer-aligned,
// so both bits of their addresses are free):
//   * a coroutine handle (bits clear), resumed;
//   * an index into a pooled callback-slot table (bit 0), called;
//   * a Step (bit 1): an awaiter that lives in its caller's frame and acts
//     at several events before it resumes the caller, so one co_await can
//     span a chain of events without a coroutine frame of its own
//     (net::Service::Request).
// Detached tasks link themselves onto an intrusive finished list at final
// suspend instead of being discovered by a periodic scan of every live
// process. An escaped exception in a detached task rethrows out of run()
// at the dispatch that finished the task, not at some later reap boundary.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/assert.h"
#include "sim/task.h"

namespace bs::obs {
class MetricsRegistry;
class Tracer;
}  // namespace bs::obs

namespace bs::sim {

class OrderAuditor;

// Simulated time in seconds.
using Time = double;

class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  // FIFO lanes for pending events (see the header comment). Lane 0 holds
  // delay 0 (schedule_now); the others take delay values on demand. More
  // lanes catch more distinct delays but lengthen the scan for the next
  // event.
  static constexpr int kLanes = 8;

  // Schedules a coroutine resumption at the current time, after every
  // event already queued for it.
  void schedule_now(std::coroutine_handle<> h) {
    lane_push(0, 0, payload_of(h));
  }

  // The third event payload: its event calls `fn(*this)`. An awaiter that
  // derives from Step re-points `fn` before it schedules each of its
  // events, and must stay at one address until the last has dispatched.
  struct Step {
    void (*fn)(Step& self);
  };
  static_assert(alignof(Step) >= 4, "bits 0 and 1 of a payload are tags");

  // Schedules `s` at the current time, after every event already queued
  // for it, or `dt` > 0 simulated seconds from now: the same lanes, heap
  // and seq as a coroutine resumed after the same delay.
  void schedule_now(Step& s) { lane_push(0, 0, payload_of(s)); }
  void schedule_after(Time dt, Step& s) { push_after(dt, payload_of(s)); }

  // Schedules a plain callback (used by the flow solver's retimeable wake).
  // Callback storage is pooled: the std::function lives in a reusable slot,
  // so steady-state call_at traffic performs no allocation (captures beyond
  // the function's inline buffer still allocate inside std::function).
  void call_at(Time t, std::function<void()> fn);

  // Awaitable: suspends the current coroutine for `dt` simulated seconds
  // (not at all when dt <= 0). One event, no coroutine frame.
  struct [[nodiscard]] Delay {
    Simulator& sim;
    Time dt;
    bool await_ready() const noexcept { return dt <= 0; }
    void await_suspend(std::coroutine_handle<> h) {
      sim.push_after(dt, payload_of(h));
    }
    void await_resume() const noexcept {}
  };
  Delay delay(Time dt) { return Delay{*this, dt}; }

  // Detaches a task: it starts at the current time and is owned by the
  // simulator until completion. An escaped exception in a detached task
  // aborts the simulation (it is a bug, not a modeled failure): it is
  // rethrown out of run() at the dispatch that finished the task.
  void spawn(Task<void> task);

  // Runs until the event queue empties. Returns final time.
  Time run();
  // Runs until simulated time `t`; events after `t` stay queued.
  Time run_until(Time t);

  // Number of events processed so far (for tests and perf reporting).
  uint64_t events_processed() const { return events_processed_; }
  // Events that went through the binary heap: every call_at, and each delay
  // that found no lane. The rest took a FIFO lane.
  uint64_t heap_events() const { return heap_events_; }
  size_t live_processes() const { return live_; }

  // --- instant-end hooks -----------------------------------------------
  //
  // A component can defer work to the end of the current simulated instant
  // (after every already-queued event at `now` has dispatched, before time
  // advances): register a hook once, then call request_flush() whenever
  // there is pending work. The flow solver uses this to coalesce a burst
  // of same-instant flow arrivals into ONE re-solve — intermediate rates
  // within an instant are unobservable (no simulated time passes), so only
  // the final flow set of the instant needs solving. Hooks run outside any
  // event dispatch and consume no (time, seq) pairs; they may enqueue new
  // events (at `now` or later), which are processed before time advances.
  using FlushHook = void (*)(void* ctx);
  void add_flush_hook(FlushHook fn, void* ctx);
  void request_flush() { flush_requested_ = true; }

  // Observability plane shared by every component of this world: a metrics
  // registry (always on; counters are cheap) and a span tracer (off until
  // enabled). Both are lazily constructed on first access so an
  // uninstrumented Simulator costs nothing extra.
  obs::MetricsRegistry& metrics();
  obs::Tracer& tracer();

  // Event-stream audit (sim/order_audit.h): once enabled, every dispatched
  // (time, seq) pair is folded into a running digest and exported via
  // the metrics registry, so tests and benches can assert the *schedule*
  // (not just the outputs) is identical across runs. Opt-in; events
  // dispatched before the call are not part of the digest.
  OrderAuditor& enable_order_audit();
  // Null until enable_order_audit() is called.
  OrderAuditor* order_auditor() const { return auditor_.get(); }

 private:
  // POD event: 24 bytes, trivially copyable, so priority-queue sifts are
  // memcpys. `payload` is a coroutine handle address (bits 0 and 1 clear),
  // (callback_slot << 1) | 1, or a Step's address | 2.
  struct Event {
    Time t;
    uint64_t seq;
    uintptr_t payload;
  };
  // Dispatch order: by time, ties by seq.
  static bool before(const Event& a, const Event& b) {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  }
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return before(b, a);
    }
  };

  // Pending events of one delay value, in (time, seq) order: a ring
  // buffer whose capacity is 0 or a power of two.
  struct Lane {
    const Event& front() const { return ring[head]; }
    void push(const Event& ev) {
      if (size == ring.size()) grow();
      ring[(head + size++) & mask] = ev;
    }
    void pop() {
      head = (head + 1) & mask;
      --size;
    }
    void grow();

    std::vector<Event> ring;
    uint32_t mask = 0;  // ring.size() - 1 once allocated
    uint32_t head = 0;
    uint32_t size = 0;
    Time dt = 0;  // 0 on an unassigned lane other than lane 0
  };
  // earliest() result when the heap top is next, or nothing is pending.
  static constexpr int kHeap = kLanes;
  static constexpr int kNone = kLanes + 1;

  // Frames come from operator new, so both tag bits are clear.
  static uintptr_t payload_of(std::coroutine_handle<> h) {
    const auto addr = reinterpret_cast<uintptr_t>(h.address());
    BS_DCHECK(h != nullptr && (addr & 3) == 0);
    return addr;
  }
  static uintptr_t payload_of(Step& s) {
    return reinterpret_cast<uintptr_t>(&s) | 2;
  }
  // Pushes `payload` to run `dt` > 0 from now: onto its delay's lane, a
  // free lane, or the heap.
  void push_after(Time dt, uintptr_t payload);
  void lane_push(int lane, Time dt, uintptr_t payload) {
    Lane& l = lanes_[lane];
    l.dt = dt;
    l.push(Event{now_ + dt, seq_++, payload});
    busy_lanes_ |= 1u << lane;
  }
  // Where the (time, seq)-earliest pending event sits: a lane, kHeap or
  // kNone. head() reads it, take() pops it.
  int earliest() const;
  const Event& head(int src) const {
    return src == kHeap ? heap_.top() : lanes_[src].front();
  }
  Event take(int src);
  void dispatch(const Event& ev);
  // Destroys tasks that linked themselves onto the finished list during the
  // last dispatch; rethrows the first escaped exception it finds.
  void drain_finished();
  void run_flush_hooks();
  // Called from a detached task's final suspend (via the promise hook).
  static void on_task_finished(void* sim, uint32_t slot);

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::array<Lane, kLanes> lanes_;
  uint32_t busy_lanes_ = 0;  // bit i set: lane i is non-empty
  // Detached tasks live in slab slots (stable under growth via index
  // addressing); finished tasks push their slot here at final suspend.
  std::vector<Task<void>> spawned_;
  std::vector<uint32_t> spawned_free_;
  std::vector<uint32_t> finished_;
  // Pooled call_at storage: slot functions are moved out at dispatch and
  // the slot recycled, so the vector stops growing once the high-water
  // mark of concurrently pending callbacks is reached.
  std::vector<std::function<void()>> callback_slots_;
  std::vector<uint32_t> callback_free_;
  struct Hook {
    FlushHook fn;
    void* ctx;
  };
  std::vector<Hook> flush_hooks_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<OrderAuditor> auditor_;
  Time now_ = 0;
  uint64_t seq_ = 0;
  uint64_t events_processed_ = 0;
  uint64_t heap_events_ = 0;
  size_t live_ = 0;
  bool flush_requested_ = false;
};

}  // namespace bs::sim
