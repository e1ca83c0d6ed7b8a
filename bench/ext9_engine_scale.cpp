// Extension X9: engine-scale gate — at production cluster sizes the
// incremental flow solver must do far less work than a per-flow re-solve on
// every change, with the same physics.
//
// Workload: a 1000-node / 30-per-rack cluster running a shuffle-heavy
// multi-job storm straight on the network substrate (no FS layers — this
// bench isolates the engine). Each of 8 staggered "jobs" has 24 reducers
// fetching 4 partitions from each of 48 map nodes; the 4 same-(src,dst)
// fetches are concurrent, so the flow population is exactly the repeated-
// path pattern the path-class solver aggregates, and reducer waves line up
// on shared completion instants, which is what the instant-batched re-solve
// and retime damping exploit.
//
// One run, gated on deterministic work counters. A probe coroutine
// periodically checks the live rates against the pure per-flow reference
// (net::reference_max_min via Network::solver_oracle_max_rel_diff), and the
// makespan is pinned to the value a full per-flow re-solve on every change
// produces on this exact workload.
//
// Exit status: nonzero unless
//   * the reference's worst relative rate difference stays below 1e-6,
//   * the makespan matches the pinned per-flow value within 1e-9 relative
//     (same physics),
//   * class re-solves stay at or below flows/16 (instant batching works),
//   * path classes aggregate at least 3.5 flows each, and
//   * retime damping fired at least once.
// Events/sec is reported but not gated: it depends on the host.
#include <algorithm>
#include <cmath>
#include <chrono>  // bslint: allow(wall-clock) — engine speed is the measurand
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "sim/parallel.h"

using namespace bs;
using namespace bs::bench;

namespace {

constexpr uint32_t kNodes = 1000;
constexpr uint32_t kNodesPerRack = 30;
constexpr uint32_t kJobs = 8;
constexpr uint32_t kMapNodesPerJob = 48;
constexpr uint32_t kReducersPerJob = 24;
constexpr uint32_t kTasksPerMapNode = 4;  // concurrent same-path fetches
constexpr double kPartitionBytes = 8.0 * kMiB;
constexpr double kJobStaggerS = 1.0;
constexpr double kOracleProbeS = 2.0;
// The makespan the full per-flow re-solve produced on this workload.
constexpr double kReferenceMakespanS = 22.792590135972894;

struct RunStats {
  double wall_s = 0;
  double makespan_s = 0;
  double events_per_sec = 0;
  uint64_t events = 0;
  uint64_t flows = 0;
  uint64_t solves = 0;            // instant-batched class re-solves
  uint64_t retimes_scheduled = 0;
  uint64_t retimes_damped = 0;
  uint64_t classes_created = 0;
  uint64_t fill_rounds = 0;       // progressive-filling rounds run, all solves
  uint64_t class_tests = 0;       // bottleneck tests on unfrozen classes
  uint64_t rounds_replayed = 0;   // rounds taken from the previous solve's log
  double oracle_max_rel_diff = 0;
};

// One reducer: walks the job's map nodes (starting at its own offset so the
// in-casts spread out, as a real shuffle's fetch scheduler does) and pulls
// the node's kTasksPerMapNode partitions concurrently.
sim::Task<void> reducer(sim::Simulator* sim, net::Network* net, uint32_t job,
                        uint32_t r, double* makespan) {
  co_await sim->delay(kJobStaggerS * job);
  const uint32_t base = (job * (kMapNodesPerJob + kReducersPerJob)) % kNodes;
  const net::NodeId me = (base + kMapNodesPerJob + r) % kNodes;
  for (uint32_t i = 0; i < kMapNodesPerJob; ++i) {
    const net::NodeId src = (base + (r + i) % kMapNodesPerJob) % kNodes;
    if (src == me) continue;
    std::vector<sim::Task<void>> fetches;
    fetches.reserve(kTasksPerMapNode);
    for (uint32_t t = 0; t < kTasksPerMapNode; ++t) {
      fetches.push_back(net->transfer(src, me, kPartitionBytes));
    }
    co_await sim::when_all(*sim, std::move(fetches));
  }
  // The workload's makespan is the last reducer's finish, not sim.run()'s
  // return (the oracle probe keeps the incremental run's queue alive past
  // the storm).
  *makespan = std::max(*makespan, sim->now());
}

// Periodically cross-checks the solver's live rates against the per-flow
// reference while the storm is in flight.
sim::Task<void> oracle_probe(sim::Simulator* sim, net::Network* net,
                             double* max_diff) {
  const double horizon =
      kJobStaggerS * kJobs + 60.0;  // generously past the last job's start
  while (sim->now() < horizon) {
    co_await sim->delay(kOracleProbeS);
    if (net->active_flows() == 0) continue;
    *max_diff = std::max(*max_diff, net->solver_oracle_max_rel_diff());
  }
}

RunStats run_storm() {
  sim::Simulator sim;
  // Hook the bare simulator into --metrics/--trace (label "incremental0");
  // the registry snapshot carries net/solver_solves.
  ObsWorldScope obs(sim, "incremental");
  net::ClusterConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.nodes_per_rack = kNodesPerRack;
  net::Network net(sim, cfg);
  double oracle_diff = 0;
  double makespan = 0;
  for (uint32_t j = 0; j < kJobs; ++j) {
    for (uint32_t r = 0; r < kReducersPerJob; ++r) {
      sim.spawn(reducer(&sim, &net, j, r, &makespan));
    }
  }
  sim.spawn(oracle_probe(&sim, &net, &oracle_diff));
  const auto t0 = std::chrono::steady_clock::now();  // bslint: allow(wall-clock)
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();  // bslint: allow(wall-clock)

  RunStats out;
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.makespan_s = makespan;
  out.events = sim.events_processed();
  out.events_per_sec =
      out.wall_s > 0 ? static_cast<double>(out.events) / out.wall_s : 0;
  out.flows = net.flows_started();
  const net::SolverStats s = net.solver_stats();
  out.solves = s.class_solves;
  out.retimes_scheduled = s.retimes_scheduled;
  out.retimes_damped = s.retimes_damped;
  out.classes_created = s.path_classes_created;
  out.fill_rounds = s.fill_rounds;
  out.class_tests = s.class_tests;
  out.rounds_replayed = s.rounds_replayed;
  out.oracle_max_rel_diff = oracle_diff;
  report_world_events(sim.events_processed());
  return out;
}

void report_run(BenchReport& report, const std::string& prefix,
                const RunStats& s) {
  report.metric(prefix + "/wall_clock_s", s.wall_s);
  report.metric(prefix + "/events", static_cast<double>(s.events));
  report.metric(prefix + "/events_per_sec", s.events_per_sec);
  report.metric(prefix + "/solves", static_cast<double>(s.solves));
  report.metric(prefix + "/retimes_scheduled",
                static_cast<double>(s.retimes_scheduled));
  report.metric(prefix + "/retimes_damped",
                static_cast<double>(s.retimes_damped));
  report.metric(prefix + "/makespan_s", s.makespan_s);
  report.metric(prefix + "/fill_rounds", static_cast<double>(s.fill_rounds));
  report.metric(prefix + "/class_tests", static_cast<double>(s.class_tests));
  report.metric(prefix + "/rounds_replayed",
                static_cast<double>(s.rounds_replayed));
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("ext9_engine_scale", argc, argv);
  report.say(
      "X9: engine scale — %u nodes, %u jobs x %u reducers x %u map nodes "
      "x %u partitions\n\n",
      kNodes, kJobs, kReducersPerJob, kMapNodesPerJob, kTasksPerMapNode);

  const RunStats incr = run_storm();
  report_run(report, "incremental", incr);

  const double makespan_rel =
      std::abs(incr.makespan_s - kReferenceMakespanS) / kReferenceMakespanS;
  const double flows_per_class =
      incr.classes_created > 0 ? static_cast<double>(incr.flows) /
                                     static_cast<double>(incr.classes_created)
                               : 0;
  const uint64_t max_solves = incr.flows / 16;
  report.metric("oracle/max_rel_diff", incr.oracle_max_rel_diff);
  report.metric("makespan_rel_diff", makespan_rel);
  report.metric("incremental/path_classes_created",
                static_cast<double>(incr.classes_created));

  report.say("incremental: %8.3fs wall  %10.0f events/s  %9llu solves  "
             "(%llu retimes damped)\n",
             incr.wall_s, incr.events_per_sec,
             static_cast<unsigned long long>(incr.solves),
             static_cast<unsigned long long>(incr.retimes_damped));
  report.say("%llu flows in %llu path classes (%.2f per class), solve budget "
             "%llu\n",
             static_cast<unsigned long long>(incr.flows),
             static_cast<unsigned long long>(incr.classes_created),
             flows_per_class, static_cast<unsigned long long>(max_solves));
  report.say("%llu fill rounds run, %llu replayed, %llu class tests\n",
             static_cast<unsigned long long>(incr.fill_rounds),
             static_cast<unsigned long long>(incr.rounds_replayed),
             static_cast<unsigned long long>(incr.class_tests));
  report.say("reference max rel diff %.2e, makespan drift %.2e\n",
             incr.oracle_max_rel_diff, makespan_rel);

  const bool ok = incr.oracle_max_rel_diff < 1e-6 && makespan_rel < 1e-9 &&
                  incr.solves <= max_solves && flows_per_class >= 3.5 &&
                  incr.retimes_damped > 0;
  report.say("%s\n", ok ? "engine-scale gate PASSED"
                        : "WARNING: engine-scale gate FAILED");
  return ok ? 0 : 1;
}
