// Host time at a reference machine speed.
//
// The 4-core Xeon VM the reference below was measured on shares its cores
// with other tenants, and under their load its speed swings up to 2x over
// tens of seconds: the same pass of one workload took 4.3 s in one run and
// 8.4 s a minute later.
// So host time is measured in slices of a few tens of milliseconds, each
// followed by a fixed calibration kernel of about 0.7 ms (solver-like
// sweeps plus heap and scattered-memory work, the simulator's own kinds of
// load), and every slice is rescaled by how fast the kernel has been
// running around it:
//
//   reference seconds = wall seconds x kReferenceKernelS / kernel seconds
//
// (the kernel's time is the median of its last five runs, so one
// interrupted kernel run does not skew a slice). Five same-seed runs of a
// workload then spread over 1-8% instead of 12-25%. The kernel lives in
// the suite, not in src/, so no change to the simulator can move it.
#pragma once

namespace bs::suite {

// The kernel's median duration on that VM while it was quiet.
constexpr double kReferenceKernelS = 0.0007;

// Raw monotonic host seconds; the only wall-clock read in the suite.
double host_seconds();

// Accumulates measured slices of host time.
class HostTimer {
 public:
  // Adds a slice of `wall_s` host seconds that ended just now, then runs
  // the calibration kernel (not counted) to rescale it.
  void add(double wall_s);
  void merge(const HostTimer& other) {
    wall_s_ += other.wall_s_;
    reference_s_ += other.reference_s_;
  }
  double wall_s() const { return wall_s_; }
  double reference_s() const { return reference_s_; }

 private:
  double wall_s_ = 0;
  double reference_s_ = 0;
};

}  // namespace bs::suite
