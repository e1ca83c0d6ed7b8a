// Small statistics helpers used by the benches: a running mean over
// per-client samples, and human-readable byte counts.
#pragma once

#include <cstdint>
#include <string>

namespace bs {

// Mean of the samples added so far; an empty summary reports 0.
class Summary {
 public:
  void add(double x);
  double mean() const;

 private:
  uint64_t count_ = 0;
  double sum_ = 0;
};

// Formats a byte count as a human-readable string ("1.5 GB").
std::string format_bytes(double bytes);

}  // namespace bs
