// Progress sampling hooks for long-running simulated activities.
//
// A ProgressMeter is the per-activity sample point: the activity updates
// its completion fraction at natural checkpoints (chunk boundaries, fetch
// completions) and observers read progress-per-simulated-second rates.
// This is the signal Hadoop-style speculative schedulers compare across
// task attempts to find stragglers — an attempt on a throttled node
// advances its meter slowly, and the gap to its peers is measurable
// without any wall-clock sampling thread.
#pragma once

#include <algorithm>
#include <limits>

#include "sim/simulator.h"

namespace bs::sim {

class ProgressMeter {
 public:
  // Marks the activity as started now; progress resets to 0.
  void start(Time now) {
    start_ = now;
    progress_ = 0;
  }

  // Progress is monotone: updates never move it backwards, and it is
  // clamped to [0, 1] so rate comparisons stay meaningful.
  void update(double fraction) {
    progress_ = std::max(progress_, std::clamp(fraction, 0.0, 1.0));
  }

  double progress() const { return progress_; }
  Time started_at() const { return start_; }
  double elapsed(Time now) const { return now - start_; }

  // Completion fraction per simulated second since start (0 until the
  // first update). An activity that made progress in zero elapsed time
  // finished within one sample period: it is maximally FAST, not rate-0 —
  // returning 0 here made instant finishers look like maximal stragglers
  // to median-rate comparisons.
  double rate(Time now) const {
    const double e = elapsed(now);
    if (e > 0) return progress_ / e;
    return progress_ > 0 ? std::numeric_limits<double>::infinity() : 0;
  }

 private:
  Time start_ = 0;
  double progress_ = 0;
};

}  // namespace bs::sim
