#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/assert.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/order_audit.h"

namespace bs::sim {

Simulator::Simulator() = default;

Simulator::~Simulator() {
  // Drop queued events (PODs, non-owning) first, then destroy still-live
  // process frames; destruction runs their locals' destructors, which may
  // only touch primitives that outlive them (standard teardown order:
  // services own primitives, harness owns services and the simulator).
  heap_ = {};
  lanes_ = {};
  spawned_.clear();
}

void Simulator::Lane::grow() {
  std::vector<Event> bigger(ring.empty() ? 16 : 2 * ring.size());
  for (uint32_t k = 0; k < size; ++k) bigger[k] = ring[(head + k) & mask];
  ring = std::move(bigger);
  mask = static_cast<uint32_t>(ring.size() - 1);
  head = 0;
}

void Simulator::push_after(Time dt, uintptr_t payload) {
  BS_DCHECK(dt > 0);
  // The lane that holds dt, else the first empty lane; lane 0 is delay 0's.
  int free_lane = kNone;
  for (int i = 1; i < kLanes; ++i) {
    if (lanes_[i].dt == dt) return lane_push(i, dt, payload);
    if (free_lane == kNone && lanes_[i].size == 0) free_lane = i;
  }
  if (free_lane != kNone) return lane_push(free_lane, dt, payload);
  heap_.push(Event{now_ + dt, seq_++, payload});
  ++heap_events_;
}

uint64_t Simulator::schedule_at(Time t, Step& s) {
  heap_.push(Event{std::max(t, now_), seq_, payload_of(s)});
  ++heap_events_;
  return seq_++;
}

int Simulator::earliest(Time* t) const {
  int best = heap_.empty() ? kNone : kHeap;
  const Event* b = best == kHeap ? &heap_.top() : nullptr;
  for (uint32_t m = busy_lanes_; m != 0; m &= m - 1) {
    const int i = std::countr_zero(m);
    const Event& e = lanes_[i].front();
    if (b == nullptr || before(e, *b)) {
      best = i;
      b = &e;
    }
  }
  if (b != nullptr) *t = b->t;
  return best;
}

Simulator::Event Simulator::take(int src) {
  if (src == kHeap) {
    const Event ev = heap_.top();
    heap_.pop();
    return ev;
  }
  Lane& l = lanes_[src];
  const Event ev = l.front();
  l.pop();
  if (l.size == 0) busy_lanes_ &= ~(1u << src);
  return ev;
}

void Simulator::spawn(Task<void> task) {
  BS_CHECK(task.valid());
  uint32_t slot;
  if (!spawned_free_.empty()) {
    slot = spawned_free_.back();
    spawned_free_.pop_back();
  } else {
    slot = static_cast<uint32_t>(spawned_.size());
    spawned_.emplace_back();
  }
  task.set_detached_hook(&Simulator::on_task_finished, this, slot);
  schedule_now(task.handle());
  spawned_[slot] = std::move(task);
  ++live_;
}

void Simulator::on_task_finished(void* sim, uint32_t slot) {
  static_cast<Simulator*>(sim)->finished_.push_back(slot);
}

void Simulator::dispatch(const Event& ev) {
  now_ = ev.t;
  dispatching_seq_ = ev.seq;
  ++events_processed_;
  if (auditor_) auditor_->record(ev.t, ev.seq);
  if ((ev.payload & 1) == 0) {
    std::coroutine_handle<>::from_address(
        reinterpret_cast<void*>(ev.payload))
        .resume();
  } else {
    Step& s = *reinterpret_cast<Step*>(ev.payload & ~uintptr_t{1});
    s.fn(s);
  }
}

void Simulator::drain_finished() {
  // The finishing frames are fully suspended by now (dispatch has
  // returned), so destroying them is safe. LIFO keeps this exception-safe:
  // a slot is consumed before its task can rethrow.
  while (!finished_.empty()) {
    const uint32_t slot = finished_.back();
    finished_.pop_back();
    Task<void> task = std::move(spawned_[slot]);
    spawned_free_.push_back(slot);
    --live_;
    task.rethrow_if_failed();  // escaped exception in a detached task = bug
  }
}

void Simulator::add_flush_hook(FlushHook fn, void* ctx) {
  flush_hooks_.push_back(Hook{fn, ctx});
}

void Simulator::run_flush_hooks() {
  for (const Hook& h : flush_hooks_) h.fn(h.ctx);
}

void Simulator::dispatch_until(Time t) {
  for (;;) {
    Time next = 0;
    const int src = earliest(&next);
    if (flush_requested_ && (src == kNone || next != now_)) {
      // The current instant has drained: flush deferred work (it may
      // enqueue new events at `now` or later), then re-evaluate.
      flush_requested_ = false;
      run_flush_hooks();
      if (!finished_.empty()) drain_finished();
      continue;
    }
    if (src == kNone || next > t) return;
    dispatch(take(src));
    if (!finished_.empty()) drain_finished();
  }
}

Time Simulator::run() {
  dispatch_until(std::numeric_limits<Time>::infinity());
  return now_;
}

Time Simulator::run_until(Time t) {
  dispatch_until(t);
  now_ = std::max(now_, t);
  return now_;
}

obs::MetricsRegistry& Simulator::metrics() {
  if (!metrics_) metrics_ = std::make_unique<obs::MetricsRegistry>();
  return *metrics_;
}

obs::Tracer& Simulator::tracer() {
  if (!tracer_) tracer_ = std::make_unique<obs::Tracer>(*this);
  return *tracer_;
}

OrderAuditor& Simulator::enable_order_audit() {
  if (!auditor_) {
    auditor_ = std::make_unique<OrderAuditor>();
    auditor_->bind_metrics(metrics());
  }
  return *auditor_;
}

}  // namespace bs::sim
