// MetricsRegistry — labeled counters, gauges, and fixed-bucket histograms
// shared by every component of one simulated world.
//
// The registry hangs off sim::Simulator (one per world), so instruments in
// the network, storage, MapReduce, and fault layers all land in the same
// namespace and a single snapshot describes the whole cluster. Two rules
// keep it deterministic and cheap:
//
//  - Determinism: instruments are keyed by a canonical string
//    "name{k1=v1,k2=v2}" with label pairs sorted by key, entries live in an
//    ordered map, and snapshot formatting is locale-free printf — so two
//    runs of the same seed produce byte-identical snapshots.
//  - Cost: call sites resolve their handle (Counter*, Histogram*) once at
//    construction; the hot path is an add or a small binary search, never a
//    string lookup.
//
// Naming convention: "subsystem/name", labels for bounded dimensions only
// (op names, racks, job ids) — never per-page or per-request values.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bs::obs {

// Label set as given by the call site; order does not matter (canonicalized
// by the registry).
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotonically increasing value. Double-valued so byte counters do not
// overflow and rates fall out directly.
class Counter {
 public:
  void inc(double by = 1.0) { value_ += by; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

// Point-in-time value; goes up and down (queue depths, pin counts).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

// Fixed-bucket histogram: bucket upper bounds are chosen at registration
// and never change, so merged/percentile output is deterministic. One
// overflow bucket catches samples above the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  // Hot path (every transfer, RPC, and task records here): inline so call
  // sites reduce to a branchless-ish bucket search plus a handful of adds —
  // the engine perf pass measured the out-of-line call in bench profiles.
  void observe(double x) {
    const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), x);
    ++counts_[static_cast<size_t>(it - bounds_.begin())];
    ++count_;
    sum_ += x;
    if (count_ == 1) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
  }

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  // Linear interpolation inside the bucket holding rank q*count; q is
  // clamped to [0,1] and an empty histogram reports 0.
  double percentile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  // bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// Default bucket ladder. Log-spaced 1-2-5 series: wide enough for both a
// sub-millisecond RPC and an hour-long job in one scheme.
const std::vector<double>& latency_buckets_s();  // 100 µs .. 5000 s

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Returned references are stable for the registry's lifetime (map nodes
  // never move). Registering the same name+labels twice returns the same
  // instrument; registering it as a different kind aborts.
  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  Histogram& histogram(std::string_view name, const Labels& labels = {},
                       const std::vector<double>& bounds = latency_buckets_s());

  // Canonical instrument key: name + sorted "{k=v,...}" suffix (empty label
  // set has no suffix). Exposed for tests and external aggregation.
  static std::string canonical_key(std::string_view name, const Labels& labels);

  size_t size() const { return entries_.size(); }

  // One instrument per line, sorted by key, stable formatting:
  //   net/bytes 123456
  //   mr/task_latency_s{job=0,kind=map} count=8 sum=12.5 min=... p50=...
  std::string text_snapshot() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(std::string_view name, const Labels& labels, Kind kind);

  std::map<std::string, Entry> entries_;
};

// Deterministic, locale-free rendering of a double: integers print without
// a fraction, everything else round-trips via %.17g.
std::string format_metric_value(double v);

}  // namespace bs::obs
