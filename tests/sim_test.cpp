// Tests for the coroutine discrete-event engine: task composition, timing,
// synchronization primitives, determinism, and structured concurrency.
#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "sim/order_audit.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace bs::sim {
namespace {

TEST(Simulator, DelayAdvancesClock) {
  Simulator sim;
  double finished_at = -1;
  auto proc = [](Simulator& s, double* out) -> Task<void> {
    co_await s.delay(1.5);
    co_await s.delay(2.5);
    *out = s.now();
  };
  sim.spawn(proc(sim, &finished_at));
  sim.run();
  EXPECT_DOUBLE_EQ(finished_at, 4.0);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  auto proc = [](Simulator& s, std::vector<int>* ord, double dt,
                 int id) -> Task<void> {
    co_await s.delay(dt);
    ord->push_back(id);
  };
  sim.spawn(proc(sim, &order, 3.0, 3));
  sim.spawn(proc(sim, &order, 1.0, 1));
  sim.spawn(proc(sim, &order, 2.0, 2));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TiesBreakByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  auto proc = [](Simulator& s, std::vector<int>* ord, int id) -> Task<void> {
    co_await s.delay(1.0);
    ord->push_back(id);
  };
  for (int i = 0; i < 5; ++i) sim.spawn(proc(sim, &order, i));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedTasksReturnValues) {
  Simulator sim;
  int result = 0;
  auto inner = [](Simulator& s) -> Task<int> {
    co_await s.delay(1);
    co_return 21;
  };
  auto outer = [&inner](Simulator& s, int* out) -> Task<void> {
    const int a = co_await inner(s);
    const int b = co_await inner(s);
    *out = a + b;
  };
  sim.spawn(outer(sim, &result));
  sim.run();
  EXPECT_EQ(result, 42);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulator, DeepTaskChainDoesNotOverflowStack) {
  // The O(1)-stack claim rests on symmetric transfer compiling to a tail
  // call; ASan's instrumentation suppresses that optimization in GCC, so
  // under it the 100k chain really does recurse on the native stack.
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "symmetric-transfer tail call is defeated by ASan";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  GTEST_SKIP() << "symmetric-transfer tail call is defeated by ASan";
#endif
#endif
  Simulator sim;
  // 100k-deep completion chain exercises symmetric transfer.
  struct Rec {
    static Task<int> count(Simulator& s, int n) {
      if (n == 0) {
        co_await s.delay(0.001);
        co_return 0;
      }
      const int sub = co_await count(s, n - 1);
      co_return sub + 1;
    }
  };
  int result = -1;
  auto proc = [](Simulator& s, int* out) -> Task<void> {
    *out = co_await Rec::count(s, 100000);
  };
  sim.spawn(proc(sim, &result));
  sim.run();
  EXPECT_EQ(result, 100000);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int steps = 0;
  auto proc = [](Simulator& s, int* count) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await s.delay(1.0);
      ++*count;
    }
  };
  sim.spawn(proc(sim, &steps));
  sim.run_until(4.5);
  EXPECT_EQ(steps, 4);
  EXPECT_DOUBLE_EQ(sim.now(), 4.5);
  sim.run();
  EXPECT_EQ(steps, 10);
}

TEST(Simulator, CallAtRunsCallbacks) {
  Simulator sim;
  std::vector<double> times;
  sim.call_at(2.0, [&] { times.push_back(sim.now()); });
  sim.call_at(1.0, [&] { times.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(Simulator, TeardownWithLiveProcessesIsClean) {
  // A process blocked forever must be destroyed without leaks or crashes
  // when the simulator goes out of scope (ASAN-checked in CI builds).
  auto sim = std::make_unique<Simulator>();
  auto cv = std::make_unique<CondVar>(*sim);
  auto proc = [](CondVar& c) -> Task<void> {
    while (true) co_await c.wait();
  };
  sim->spawn(proc(*cv));
  sim->run();
  EXPECT_EQ(sim->live_processes(), 1u);
  sim.reset();  // destroys the suspended frame
  cv.reset();
}

TEST(Simulator, ExceptionInAwaitedTaskPropagates) {
  Simulator sim;
  bool caught = false;
  auto thrower = [](Simulator& s) -> Task<void> {
    co_await s.delay(1);
    throw std::runtime_error("boom");
  };
  auto proc = [&thrower](Simulator& s, bool* flag) -> Task<void> {
    try {
      co_await thrower(s);
    } catch (const std::runtime_error& e) {
      *flag = std::string(e.what()) == "boom";
    }
  };
  sim.spawn(proc(sim, &caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Sync, SemaphoreLimitsConcurrency) {
  Simulator sim;
  Semaphore sem(sim, 2);
  int active = 0, peak = 0;
  auto worker = [](Simulator& s, Semaphore& g, int* act, int* pk) -> Task<void> {
    co_await g.acquire();
    ++*act;
    *pk = std::max(*pk, *act);
    co_await s.delay(1.0);
    --*act;
    g.release();
  };
  for (int i = 0; i < 6; ++i) sim.spawn(worker(sim, sem, &active, &peak));
  sim.run();
  EXPECT_EQ(peak, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);  // 6 tasks, 2 wide, 1s each
}

TEST(Sync, SemaphoreIsFifo) {
  Simulator sim;
  Semaphore sem(sim, 1);
  std::vector<int> order;
  auto worker = [](Simulator& s, Semaphore& g, std::vector<int>* ord,
                   int id) -> Task<void> {
    co_await g.acquire();
    ord->push_back(id);
    co_await s.delay(0.1);
    g.release();
  };
  for (int i = 0; i < 5; ++i) sim.spawn(worker(sim, sem, &order, i));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Sync, EventWakesAllWaiters) {
  Simulator sim;
  Event ev(sim);
  int woken = 0;
  auto waiter = [](Event& e, int* count) -> Task<void> {
    co_await e.wait();
    ++*count;
  };
  for (int i = 0; i < 3; ++i) sim.spawn(waiter(ev, &woken));
  auto setter = [](Simulator& s, Event& e) -> Task<void> {
    co_await s.delay(1.0);
    e.set();
  };
  sim.spawn(setter(sim, ev));
  sim.run();
  EXPECT_EQ(woken, 3);
  // Waiting on an already-set event completes immediately.
  bool late = false;
  auto late_waiter = [](Event& e, bool* out) -> Task<void> {
    co_await e.wait();
    *out = true;
  };
  sim.spawn(late_waiter(ev, &late));
  sim.run();
  EXPECT_TRUE(late);
}

TEST(Sync, EventWaitAfterSetDoesNotSuspend) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  EXPECT_TRUE(ev.wait().await_ready());
  uint64_t before = 0;
  uint64_t after = 1;
  auto proc = [](Simulator& s, Event& e, uint64_t* b,
                 uint64_t* a) -> Task<void> {
    *b = s.events_processed();
    co_await e.wait();
    *a = s.events_processed();  // still inside the same dispatch
  };
  sim.spawn(proc(sim, ev, &before, &after));
  sim.run();
  EXPECT_EQ(before, after);
  EXPECT_EQ(sim.events_processed(), 1u);  // the spawn only
}

TEST(Sync, EventWakesWaitersInFifoOrder) {
  Simulator sim;
  Event ev(sim);
  std::vector<int> order;
  // Waiter i starts waiting at 5 - i, so they queue as 4, 3, 2, 1, 0: not
  // the spawn order.
  auto waiter = [](Simulator& s, Event& e, int id,
                   std::vector<int>* out) -> Task<void> {
    co_await s.delay(5.0 - id);
    co_await e.wait();
    out->push_back(id);
  };
  for (int i = 0; i < 5; ++i) sim.spawn(waiter(sim, ev, i, &order));
  sim.run();
  EXPECT_TRUE(order.empty());
  const uint64_t parked = sim.events_processed();
  ev.set();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 1, 0}));
  EXPECT_EQ(sim.events_processed(), parked + 5);  // one wake each
}

TEST(Sync, WaitGroupJoins) {
  Simulator sim;
  WaitGroup wg(sim);
  wg.add(3);
  double joined_at = -1;
  auto worker = [](Simulator& s, WaitGroup& w, double dt) -> Task<void> {
    co_await s.delay(dt);
    w.done();
  };
  sim.spawn(worker(sim, wg, 1.0));
  sim.spawn(worker(sim, wg, 3.0));
  sim.spawn(worker(sim, wg, 2.0));
  auto joiner = [](Simulator& s, WaitGroup& w, double* at) -> Task<void> {
    co_await w.wait();
    *at = s.now();
  };
  sim.spawn(joiner(sim, wg, &joined_at));
  sim.run();
  EXPECT_DOUBLE_EQ(joined_at, 3.0);
}

TEST(Parallel, WhenAllCollectsInInputOrder) {
  Simulator sim;
  auto item = [](Simulator& s, double dt, int v) -> Task<int> {
    co_await s.delay(dt);
    co_return v;
  };
  std::vector<int> result;
  auto proc = [&item](Simulator& s, std::vector<int>* out) -> Task<void> {
    std::vector<Task<int>> tasks;
    tasks.push_back(item(s, 3.0, 10));  // finishes last
    tasks.push_back(item(s, 1.0, 20));  // finishes first
    tasks.push_back(item(s, 2.0, 30));
    *out = co_await when_all(s, std::move(tasks));
  };
  sim.spawn(proc(sim, &result));
  sim.run();
  EXPECT_EQ(result, (std::vector<int>{10, 20, 30}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);  // parallel, not serial (6.0)
}

TEST(Parallel, WhenAllVoid) {
  Simulator sim;
  int count = 0;
  auto item = [](Simulator& s, int* c) -> Task<void> {
    co_await s.delay(1.0);
    ++*c;
  };
  auto proc = [&item](Simulator& s, int* c) -> Task<void> {
    std::vector<Task<void>> tasks;
    for (int i = 0; i < 10; ++i) tasks.push_back(item(s, c));
    co_await when_all(s, std::move(tasks));
  };
  sim.spawn(proc(sim, &count));
  sim.run();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(Parallel, WhenAllLimitedRespectsLimit) {
  Simulator sim;
  int active = 0, peak = 0;
  auto item = [](Simulator& s, int* act, int* pk) -> Task<int> {
    ++*act;
    *pk = std::max(*pk, *act);
    co_await s.delay(1.0);
    --*act;
    co_return *pk;
  };
  auto proc = [&item](Simulator& s, int* act, int* pk) -> Task<void> {
    std::vector<Task<int>> tasks;
    for (int i = 0; i < 9; ++i) tasks.push_back(item(s, act, pk));
    co_await when_all_limited(s, std::move(tasks), 3);
  };
  sim.spawn(proc(sim, &active, &peak));
  sim.run();
  EXPECT_EQ(peak, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Parallel, EmptyWhenAllCompletesImmediately) {
  Simulator sim;
  bool done = false;
  auto proc = [](Simulator& s, bool* flag) -> Task<void> {
    co_await when_all(s, std::vector<Task<void>>{});
    std::vector<Task<int>> none;
    auto res = co_await when_all(s, std::move(none));
    *flag = res.empty();
  };
  sim.spawn(proc(sim, &done));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

// Determinism: two identical simulations produce identical event traces.
TEST(Simulator, RunsAreReproducible) {
  auto run_once = []() {
    Simulator sim;
    Semaphore sem(sim, 3);
    std::vector<std::pair<double, int>> trace;
    auto worker = [](Simulator& s, Semaphore& g,
                     std::vector<std::pair<double, int>>* tr, int id) -> Task<void> {
      for (int round = 0; round < 3; ++round) {
        co_await g.acquire();
        co_await s.delay(0.1 * (id % 4 + 1));
        tr->emplace_back(s.now(), id);
        g.release();
        co_await s.delay(0.01 * id);
      }
    };
    for (int i = 0; i < 20; ++i) sim.spawn(worker(sim, sem, &trace, i));
    sim.run();
    return trace;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

// --- OrderAuditor (sim/order_audit.h) --------------------------------------

// A small scenario with deliberate same-timestamp ties: three workers all
// wake at t=1.0 and t=2.0, so the seq tie-break decides their order.
Task<void> tied_worker(Simulator& s, uint64_t* sum, uint64_t w) {
  co_await s.delay(1.0);
  *sum += w;
  co_await s.delay(1.0);
  *sum += w * 10;
}

TEST(OrderAuditor, DisabledByDefaultAndCostsNothing) {
  Simulator sim;
  EXPECT_EQ(sim.order_auditor(), nullptr);
  uint64_t sum = 0;
  for (uint64_t w = 1; w <= 3; ++w) sim.spawn(tied_worker(sim, &sum, w));
  sim.run();
  EXPECT_EQ(sim.order_auditor(), nullptr);
  EXPECT_EQ(sum, 66u);
}

TEST(OrderAuditor, TieCountAndDigestAreStableAcrossIdenticalRuns) {
  auto run_once = [](uint64_t* sum) {
    Simulator sim;
    OrderAuditor& audit = sim.enable_order_audit();
    for (uint64_t w = 1; w <= 3; ++w) sim.spawn(tied_worker(sim, sum, w));
    sim.run();
    return std::tuple<uint64_t, uint64_t, uint64_t>(
        audit.digest(), audit.ties(), audit.events());
  };
  uint64_t sum_a = 0, sum_b = 0;
  const auto a = run_once(&sum_a);
  const auto b = run_once(&sum_b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(sum_a, sum_b);
  // Three same-time wakeups at t=1.0 and three at t=2.0: at least two ties
  // per burst (the 2nd and 3rd event of each). Spawn-time events tie too.
  EXPECT_GE(std::get<1>(a), 4u);
  EXPECT_GT(std::get<2>(a), 0u);
}

// The regression the auditor exists to catch: two schedules whose
// *observable output* is identical (a commutative sum) but whose event
// order differs. Comparing outputs alone passes; the schedule digest is
// the only check that fails — which is exactly how an order-dependent tie
// hides until some later feature reads state mid-tie.
TEST(OrderAuditor, DigestCatchesOrderSwapThatOutputsCannot) {
  // All workers tie at t=1.0, then each schedules an identity-dependent
  // follow-up. Reversing spawn order permutes which coroutine wins each
  // tie slot, so the follow-ups are *pushed* in a different order and the
  // (time, seq) stream diverges — while the sum, the final clock, and the
  // event count all come out identical.
  auto worker = [](Simulator& s, uint64_t* sum, uint64_t w) -> Task<void> {
    co_await s.delay(1.0);
    co_await s.delay(0.01 * static_cast<double>(w));
    *sum += w;
  };
  struct Outcome {
    uint64_t digest, sum, events;
    double end;
  };
  auto run_with_order = [&worker](std::vector<uint64_t> workers) {
    Simulator sim;
    OrderAuditor& audit = sim.enable_order_audit();
    uint64_t sum = 0;
    for (uint64_t w : workers) sim.spawn(worker(sim, &sum, w));
    sim.run();
    return Outcome{audit.digest(), sum, audit.events(), sim.now()};
  };
  const Outcome fwd = run_with_order({1, 2, 3});
  const Outcome rev = run_with_order({3, 2, 1});
  // Every coarse output converges: the leak is invisible to them.
  EXPECT_EQ(fwd.sum, rev.sum);
  EXPECT_EQ(fwd.events, rev.events);
  EXPECT_EQ(fwd.end, rev.end);
  // The schedule digest is not fooled.
  EXPECT_NE(fwd.digest, rev.digest);
}

TEST(OrderAuditor, DigestIsExportedThroughObsGauges) {
  Simulator sim;
  OrderAuditor& audit = sim.enable_order_audit();
  uint64_t sum = 0;
  for (uint64_t w = 1; w <= 3; ++w) sim.spawn(tied_worker(sim, &sum, w));
  sim.run();
  const std::string snap = sim.metrics().text_snapshot();
  const uint64_t hi = audit.digest() >> 32;
  const uint64_t lo = audit.digest() & 0xffffffffULL;
  EXPECT_NE(snap.find("sim/order_digest_hi " + std::to_string(hi)),
            std::string::npos)
      << snap;
  EXPECT_NE(snap.find("sim/order_digest_lo " + std::to_string(lo)),
            std::string::npos)
      << snap;
  EXPECT_NE(snap.find("sim/order_ties " + std::to_string(audit.ties())),
            std::string::npos)
      << snap;
  EXPECT_EQ(audit.digest_hex().size(), 16u);
}

// --- engine-rewrite pins (PR 9) --------------------------------------------

// Golden-schedule pin: this scenario (spawn fan-out with 8-way ties, a
// semaphore handoff chain, nested tasks, call_at callbacks interleaved with
// coroutine wakes) was recorded against the pre-rewrite event queue
// (std::function events, periodic reap). The hardcoded digest proves the
// POD-event / pooled-callback / intrusive-finished-list queue dispatches
// the EXACT same (time, seq) stream. If an engine change breaks this, it
// changed the schedule contract, not just performance.
Task<int> golden_nested(Simulator& s, int depth) {
  if (depth == 0) {
    co_await s.delay(0.125);
    co_return 1;
  }
  const int sub = co_await golden_nested(s, depth - 1);
  co_await s.delay(0.25);
  co_return sub + 1;
}

Task<void> golden_worker(Simulator& s, Semaphore& gate, int id,
                         uint64_t* sum) {
  co_await s.delay(1.0);  // 8-way tie at t=1
  co_await gate.acquire();
  co_await s.delay(0.5 * (id % 3 + 1));
  *sum += static_cast<uint64_t>(co_await golden_nested(s, id % 4));
  gate.release();
}

TEST(OrderAuditor, GoldenScheduleDigestPinnedAcrossQueueRewrite) {
  Simulator sim;
  OrderAuditor& audit = sim.enable_order_audit();
  Semaphore gate(sim, 3);
  uint64_t sum = 0;
  for (int id = 0; id < 8; ++id) sim.spawn(golden_worker(sim, gate, id, &sum));
  for (int i = 0; i < 4; ++i) {
    sim.call_at(0.5 * (i % 2 + 1), [] {});
  }
  sim.run();
  // Recorded from the pre-rewrite implementation (seed @ PR 8).
  EXPECT_EQ(audit.digest_hex(), "92aa1bff0b6737e2");
  EXPECT_EQ(audit.events(), 53u);
  EXPECT_EQ(audit.ties(), 27u);
  EXPECT_EQ(sum, 20u);
  EXPECT_DOUBLE_EQ(sim.now(), 5.375);
}

TEST(Simulator, DetachedTaskExceptionSurfacesAtFinishingDispatch) {
  // Before the intrusive finished-list, an escaped exception in a detached
  // task sat unobserved until the next 4096-event reap scan; the simulation
  // kept running arbitrarily far past the failure. Now the rethrow happens
  // at the dispatch that finishes the task: the clock reads the failure
  // time and no later-time event has run.
  Simulator sim;
  int bystander_steps = 0;
  auto thrower = [](Simulator& s) -> Task<void> {
    co_await s.delay(1.0);
    throw std::runtime_error("escaped");
  };
  auto bystander = [](Simulator& s, int* n) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await s.delay(0.3);
      ++*n;
    }
  };
  sim.spawn(bystander(sim, &bystander_steps));
  sim.spawn(thrower(sim));
  bool caught = false;
  try {
    sim.run();
  } catch (const std::runtime_error& e) {
    caught = std::string(e.what()) == "escaped";
  }
  EXPECT_TRUE(caught);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);  // surfaced at the finishing dispatch
  EXPECT_EQ(bystander_steps, 3);     // 0.3, 0.6, 0.9 ran; nothing after 1.0
  EXPECT_EQ(sim.live_processes(), 1u);  // the bystander is still suspended
}

TEST(Simulator, CallAtSlotsAreRecycled) {
  // Self-rescheduling callback: the pooled slot must be reused, and state
  // captured by value must survive the move in and out of the pool.
  Simulator sim;
  struct Ticker {
    Simulator* sim;
    int* count;
    int left;
    void operator()() {
      ++*count;
      if (--left > 0) sim->call_at(sim->now() + 1.0, *this);
    }
  };
  int count = 0;
  sim.call_at(1.0, Ticker{&sim, &count, 5});
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

// --- FIFO lanes ---------------------------------------------------------

// A schedule as its test scheduled it: `when[i]` is the time of the i-th
// event scheduled, so indices follow seq; `ran` lists indices in dispatch
// order.
struct ScheduleLog {
  std::vector<double> when;
  std::vector<size_t> ran;
  size_t calls = 0;  // call_at events among `when`
  size_t note(double t) {
    when.push_back(t);
    return when.size() - 1;
  }
};

// Resumes the awaiting coroutine through schedule_now.
struct Yield {
  Simulator& sim;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { sim.schedule_now(h); }
  void await_resume() const noexcept {}
};

Task<void> lane_actor(Simulator& s, ScheduleLog* log, uint64_t seed,
                      int steps) {
  constexpr double kRepeated[] = {1e-3, 2.5e-3, 7e-3};
  Rng rng(seed);
  for (int i = 0; i < steps; ++i) {
    const uint64_t kind = rng.below(8);
    size_t me;
    if (kind < 4) {
      const double dt = kRepeated[rng.below(3)];
      me = log->note(s.now() + dt);
      co_await s.delay(dt);
    } else if (kind < 6) {
      // One of 40 distinct delays: far more values than lanes.
      const double dt = 1e-4 * static_cast<double>(1 + rng.below(40));
      me = log->note(s.now() + dt);
      co_await s.delay(dt);
    } else if (kind == 6) {
      me = log->note(s.now());
      co_await Yield{s};
    } else {
      const double t = s.now() + 1e-4 * static_cast<double>(rng.below(50));
      const size_t cb = log->note(t);
      ++log->calls;
      s.call_at(t, [log, cb] { log->ran.push_back(cb); });
      continue;
    }
    log->ran.push_back(me);
  }
}

// The Step counterpart of lane_actor: reschedules itself `steps` times,
// through schedule_now, a repeated delay or a distinct one.
struct StepActor : Simulator::Step {
  StepActor(Simulator& s, ScheduleLog* l, uint64_t seed, int steps)
      : Step{&on_event}, sim(s), log(l), rng(seed), left(steps) {}

  void next() {
    constexpr double kRepeated[] = {1e-3, 2.5e-3, 7e-3};
    if (left-- == 0) return;
    const uint64_t kind = rng.below(4);
    if (kind == 0) {
      me = log->note(sim.now());
      sim.schedule_now(*this);
      return;
    }
    const double dt = kind < 3
                          ? kRepeated[rng.below(3)]
                          : 1e-4 * static_cast<double>(1 + rng.below(40));
    me = log->note(sim.now() + dt);
    sim.schedule_after(dt, *this);
  }
  static void on_event(Simulator::Step& s) {
    auto& a = static_cast<StepActor&>(s);
    a.log->ran.push_back(a.me);
    a.next();
  }

  Simulator& sim;
  ScheduleLog* log;
  Rng rng;
  int left;
  size_t me = 0;
};

TEST(Simulator, LanesDispatchInTimeSeqOrder) {
  Simulator sim;
  ScheduleLog log;
  for (uint64_t a = 0; a < 12; ++a) {
    sim.spawn(lane_actor(sim, &log, 1000 + a, 100));
  }
  // Steps share the lanes, the heap and seq with coroutines and callbacks.
  std::vector<std::unique_ptr<StepActor>> steppers;
  for (uint64_t a = 0; a < 6; ++a) {
    steppers.push_back(std::make_unique<StepActor>(sim, &log, 2000 + a, 100));
    steppers.back()->next();
  }
  for (const double b : {0.01, 0.05, 0.05, 0.2}) {
    sim.run_until(b);
    EXPECT_DOUBLE_EQ(sim.now(), b);
    for (const size_t i : log.ran) EXPECT_LE(log.when[i], b);
    const size_t cb = log.note(b);  // at the boundary, from outside
    ++log.calls;
    sim.call_at(b, [&log, cb] { log.ran.push_back(cb); });
  }
  sim.run();
  // A stable sort by time keeps ties in scheduling (seq) order.
  std::vector<size_t> expected(log.when.size());
  std::iota(expected.begin(), expected.end(), size_t{0});
  std::stable_sort(expected.begin(), expected.end(), [&](size_t a, size_t b) {
    return log.when[a] < log.when[b];
  });
  EXPECT_EQ(log.ran, expected);
  // Distinct delays overflowed the lanes into the heap, yet the lanes took
  // most of the events.
  EXPECT_GT(sim.heap_events(), log.calls);
  EXPECT_LT(sim.heap_events(), log.when.size() / 2);
}

TEST(Simulator, LaneIsReassignedAfterItEmpties) {
  Simulator sim;
  std::vector<double> woke;
  auto sleeper = [](Simulator& s, double dt,
                    std::vector<double>* out) -> Task<void> {
    co_await s.delay(dt);
    out->push_back(s.now());
  };
  // Delays 1, 2, ... fill every lane beside delay 0's; one more value
  // finds them all busy and goes to the heap.
  for (int k = 1; k < Simulator::kLanes; ++k) sim.spawn(sleeper(sim, k, &woke));
  sim.spawn(sleeper(sim, 0.5, &woke));
  sim.run_until(1.0);
  EXPECT_EQ(sim.heap_events(), 1u);
  // Delay 1's lane emptied at t = 1, so 0.5 takes it now.
  sim.spawn(sleeper(sim, 0.5, &woke));
  sim.run();
  EXPECT_EQ(sim.heap_events(), 1u);
  std::vector<double> expected = {0.5, 1, 1.5};
  for (int k = 2; k < Simulator::kLanes; ++k) expected.push_back(k);
  EXPECT_EQ(woke, expected);
}

class DelayParamTest : public ::testing::TestWithParam<double> {};

// Property: a chain of n delays of dt lands exactly at n*dt (no drift from
// the event queue), for a spread of dt magnitudes.
TEST_P(DelayParamTest, NoClockDrift) {
  const double dt = GetParam();
  Simulator sim;
  auto proc = [](Simulator& s, double step) -> Task<void> {
    for (int i = 0; i < 1000; ++i) co_await s.delay(step);
  };
  sim.spawn(proc(sim, dt));
  sim.run();
  EXPECT_NEAR(sim.now(), 1000 * dt, 1000 * dt * 1e-12);
}

INSTANTIATE_TEST_SUITE_P(DelayMagnitudes, DelayParamTest,
                         ::testing::Values(1e-6, 1e-3, 0.1, 1.0, 60.0));

}  // namespace
}  // namespace bs::sim
