#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/assert.h"

namespace bs::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  BS_CHECK(!bounds_.empty());
  BS_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  counts_.assign(bounds_.size() + 1, 0);
}

double Histogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  uint64_t cum = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double prev = static_cast<double>(cum);
    cum += counts_[i];
    if (static_cast<double>(cum) >= target) {
      // Interpolate within bucket i between its edges, clamped to the
      // observed range so percentiles never invent values outside [min,max].
      const double lo = i == 0 ? min_ : std::max(min_, bounds_[i - 1]);
      const double hi = i < bounds_.size() ? std::min(max_, bounds_[i]) : max_;
      const double frac =
          counts_[i] ? (target - prev) / static_cast<double>(counts_[i]) : 0.0;
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
  }
  return max_;
}

namespace {

std::vector<double> ladder_1_2_5(double lo, double hi) {
  std::vector<double> out;
  for (double decade = lo; decade <= hi * 1.0001;) {
    for (double m : {1.0, 2.0, 5.0}) {
      const double v = decade * m;
      if (v <= hi * 1.0001) out.push_back(v);
    }
    decade *= 10.0;
    if (decade > hi * 10) break;
  }
  return out;
}

}  // namespace

const std::vector<double>& latency_buckets_s() {
  static const std::vector<double> kBuckets = ladder_1_2_5(1e-4, 5000.0);
  return kBuckets;
}

std::string MetricsRegistry::canonical_key(std::string_view name,
                                           const Labels& labels) {
  std::string key(name);
  if (labels.empty()) return key;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  key += '{';
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i) key += ',';
    key += sorted[i].first;
    key += '=';
    key += sorted[i].second;
  }
  key += '}';
  return key;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(std::string_view name,
                                                        const Labels& labels,
                                                        Kind kind) {
  auto [it, inserted] =
      entries_.try_emplace(canonical_key(name, labels), Entry{});
  if (inserted) {
    it->second.kind = kind;
  } else {
    BS_CHECK(it->second.kind == kind);  // same key re-registered as other kind
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name, const Labels& labels) {
  Entry& e = find_or_create(name, labels, Kind::kCounter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  Entry& e = find_or_create(name, labels, Kind::kGauge);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const Labels& labels,
                                      const std::vector<double>& bounds) {
  Entry& e = find_or_create(name, labels, Kind::kHistogram);
  if (!e.histogram) e.histogram = std::make_unique<Histogram>(bounds);
  return *e.histogram;
}

std::string format_metric_value(double v) {
  char buf[40];
  if (std::nearbyint(v) == v && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::string MetricsRegistry::text_snapshot() const {
  std::string out;
  for (const auto& [key, e] : entries_) {
    out += key;
    switch (e.kind) {
      case Kind::kCounter:
        out += ' ';
        out += format_metric_value(e.counter->value());
        break;
      case Kind::kGauge:
        out += ' ';
        out += format_metric_value(e.gauge->value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *e.histogram;
        out += " count=" + format_metric_value(static_cast<double>(h.count()));
        out += " sum=" + format_metric_value(h.sum());
        out += " min=" + format_metric_value(h.min());
        out += " max=" + format_metric_value(h.max());
        out += " p50=" + format_metric_value(h.percentile(0.50));
        out += " p90=" + format_metric_value(h.percentile(0.90));
        out += " p99=" + format_metric_value(h.percentile(0.99));
        break;
      }
    }
    out += '\n';
  }
  return out;
}

}  // namespace bs::obs
