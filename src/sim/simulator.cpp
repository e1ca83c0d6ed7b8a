#include "sim/simulator.h"

#include <algorithm>

#include "common/assert.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/order_audit.h"

namespace bs::sim {

Simulator::Simulator() = default;

Simulator::~Simulator() {
  // Drop queued events (PODs, non-owning) and pooled callbacks first, then
  // destroy still-live process frames; destruction runs their locals'
  // destructors, which may only touch primitives that outlive them
  // (standard teardown order: services own primitives, harness owns
  // services and the simulator).
  queue_ = {};
  callback_slots_.clear();
  spawned_.clear();
}

void Simulator::schedule_at(Time t, std::coroutine_handle<> h) {
  BS_DCHECK(t >= now_);
  BS_DCHECK(h != nullptr);
  const auto addr = reinterpret_cast<uintptr_t>(h.address());
  BS_DCHECK((addr & 1) == 0);  // frames are new-aligned; bit 0 is the tag
  queue_.push(Event{std::max(t, now_), seq_++, addr});
}

void Simulator::call_at(Time t, std::function<void()> fn) {
  BS_DCHECK(t >= now_);
  uint32_t slot;
  if (!callback_free_.empty()) {
    slot = callback_free_.back();
    callback_free_.pop_back();
    callback_slots_[slot] = std::move(fn);
  } else {
    slot = static_cast<uint32_t>(callback_slots_.size());
    callback_slots_.push_back(std::move(fn));
  }
  queue_.push(Event{std::max(t, now_), seq_++,
                    (static_cast<uintptr_t>(slot) << 1) | 1});
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
  ++events_processed_;
  if (auditor_) auditor_->record(ev.t, ev.seq);
  if ((ev.payload & 1) == 0) {
    std::coroutine_handle<>::from_address(
        reinterpret_cast<void*>(ev.payload))
        .resume();
  } else {
    const auto slot = static_cast<uint32_t>(ev.payload >> 1);
    std::function<void()> fn = std::move(callback_slots_[slot]);
    callback_slots_[slot] = nullptr;
    callback_free_.push_back(slot);
    fn();
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

Time Simulator::run() {
  for (;;) {
    if (flush_requested_ && (queue_.empty() || queue_.top().t != now_)) {
      // The current instant has drained: flush deferred work (it may
      // enqueue new events at `now` or later), then re-evaluate.
      flush_requested_ = false;
      run_flush_hooks();
      if (!finished_.empty()) drain_finished();
      continue;
    }
    if (queue_.empty()) break;
    const Event ev = queue_.top();
    queue_.pop();
    dispatch(ev);
    if (!finished_.empty()) drain_finished();
  }
  return now_;
}

Time Simulator::run_until(Time t) {
  for (;;) {
    if (flush_requested_ && (queue_.empty() || queue_.top().t != now_)) {
      flush_requested_ = false;
      run_flush_hooks();
      if (!finished_.empty()) drain_finished();
      continue;
    }
    if (queue_.empty() || queue_.top().t > t) break;
    const Event ev = queue_.top();
    queue_.pop();
    dispatch(ev);
    if (!finished_.empty()) drain_finished();
  }
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
