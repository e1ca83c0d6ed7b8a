// Speculative execution: the JobTracker's periodic straggler sweep and
// the LATE-style backup-placement evidence. Split out of cluster.cpp —
// the sweep is a self-contained policy over the engine's attempt state.
#include "mr/cluster.h"

#include <algorithm>
#include <vector>

#include "sim/parallel.h"

namespace bs::mr {
namespace {

// An attempt is a straggler when its progress rate falls below this
// fraction of the *median* rate of its running peers (needs >= 2 peers;
// the median is robust against a few cache-served outliers that would
// drag a mean and flag healthy disk-bound attempts)...
constexpr double kSlowRateFraction = 0.5;
// ...or when it has run longer than this multiple of the upper-quartile
// attempt lifetime in its kind (needs >= 3 commits). This catches the
// tail, where every remaining attempt sits on a slow node and rate
// comparison has no healthy peer left. It is also the cutoff for backup
// placement: only nodes whose last commit stayed within it run backups.
constexpr double kLagFactor = 1.5;

// Median of a sample set (copy-and-sort; sweep-time sample counts are
// bounded by the running/committed task counts).
double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// Upper quartile: the lag baseline. Committed durations are bimodal
// (cache-served attempts finish several times faster than disk/remote
// streams), so the straggler threshold must sit above the *slow-but-
// healthy* mode, not above the overall median.
double p75_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) * 3 / 4];
}

}  // namespace

void MapReduceCluster::record_node_speed(const Phase& phase, net::NodeId node,
                                         double elapsed) {
  // Before a baseline exists the earliest committers are by definition the
  // fast ones; mark them neutral-fast.
  node_slowness_[node] =
      phase.lag_baseline > 0 ? elapsed / phase.lag_baseline : 1.0;
}

bool MapReduceCluster::backup_eligible(const Phase& phase,
                                       net::NodeId node) const {
  // No straggler baseline yet: nothing to compare against, allow anyone.
  if (phase.lag_baseline <= 0) return true;
  const double slowness = node_slowness_[node];
  return slowness > 0 && slowness <= kLagFactor;
}

sim::Task<void> MapReduceCluster::speculation_loop(JobState* job) {
  while (true) {
    co_await sim_.delay(cfg_.speculation_interval_s);
    if (job_complete(*job)) break;
    speculation_sweep(*job);
  }
  job->attempts.done();
}

void MapReduceCluster::speculation_sweep(JobState& job) {
  const double now = sim_.now();
  for (TaskKind kind : kTaskKinds) {
    Phase& phase = job.phase(kind);
    // Hadoop precondition: only speculate once every task of the kind has
    // been handed out — backups must not displace first attempts.
    if (!phase.pending.empty()) continue;
    std::vector<Attempt*> running;
    std::vector<double> rates;
    for (Attempt& att : job.live) {
      if (att.kind != kind || att.task->done) continue;
      if (att.meter.elapsed(now) < cfg_.speculative_min_runtime_s) continue;
      running.push_back(&att);
      // Attempts at progress 1 are excluded from the peer-rate pool: their
      // pending compute is zero and their rate can be infinite when they
      // completed within one sample period (see ProgressMeter::rate), which
      // would poison the median. They remain lag-test candidates below — a
      // map at progress 1 can still be stuck in its spill write or commit
      // on a degraded disk, exactly what a backup should rescue.
      if (att.meter.progress() < 1.0) rates.push_back(att.meter.rate(now));
    }
    if (running.empty()) continue;
    const double median_rate = median_of(rates);
    // The lag baseline mixes committed durations with the elapsed times of
    // still-running attempts: early in a wave only the fastest attempts
    // have committed (censoring), and a baseline built from them alone
    // would flag every healthy attempt that is merely slower than the
    // cache-served ones.
    double lag_baseline = 0;
    if (phase.commit_durations.size() >= 3) {
      std::vector<double> lifetimes = phase.commit_durations;
      for (Attempt* att : running) {
        lifetimes.push_back(att->meter.elapsed(now));
      }
      lag_baseline = p75_of(std::move(lifetimes));
    }
    phase.lag_baseline = lag_baseline;
    for (Attempt* att : running) {
      TaskState& task = *att->task;
      if (task.speculated || task.done) continue;
      const double progress = att->meter.progress();
      const double elapsed = att->meter.elapsed(now);
      bool straggler = false;
      // Rate test: visibly slower than the median of its running peers.
      // Zero progress carries no rate information — a remote block stream
      // delivers its first byte late without being a straggler — and
      // finished attempts (progress 1) have no pending compute to be slow
      // at, so only attempts with measured partial progress are compared.
      if (progress > 0 && progress < 1.0 && rates.size() >= 2 &&
          median_rate > 0 &&
          att->meter.rate(now) < kSlowRateFraction * median_rate) {
        straggler = true;
      }
      // Lag test: running far beyond the upper quartile of committed
      // attempt durations. Applies at any progress — a stuck attempt may
      // not even have its first byte yet.
      if (lag_baseline > 0 && elapsed > kLagFactor * lag_baseline) {
        straggler = true;
      }
      if (straggler) {
        task.speculated = true;
        phase.backups.emplace_back(task.index, now);
      }
    }
  }
}

}  // namespace bs::mr
