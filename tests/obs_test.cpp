// Observability plane unit tests: instrument semantics, canonical label
// ordering, snapshot determinism, the tracer ring buffer, and the Chrome
// trace-event export (validated with a small standalone JSON parser — the
// export must load in chrome://tracing / Perfetto, so structural validity
// is part of the contract).
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace bs {
namespace {

using obs::Labels;
using obs::MetricsRegistry;

// --- mini JSON validator (structure only; enough to catch malformed
// emission: unbalanced braces, bad escapes, trailing commas) ---

struct JsonScanner {
  const std::string& s;
  size_t at = 0;

  void ws() {
    while (at < s.size() && (s[at] == ' ' || s[at] == '\t' || s[at] == '\n' ||
                             s[at] == '\r')) {
      ++at;
    }
  }
  bool eat(char c) {
    ws();
    if (at < s.size() && s[at] == c) {
      ++at;
      return true;
    }
    return false;
  }
  bool string() {
    ws();
    if (at >= s.size() || s[at] != '"') return false;
    ++at;
    while (at < s.size() && s[at] != '"') {
      if (s[at] == '\\') {
        ++at;
        if (at >= s.size()) return false;
        const char e = s[at];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++at;
            if (at >= s.size() || !std::isxdigit(static_cast<unsigned char>(s[at]))) {
              return false;
            }
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                   e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      } else if (static_cast<unsigned char>(s[at]) < 0x20) {
        return false;  // raw control character inside a string
      }
      ++at;
    }
    return eat('"');
  }
  bool number() {
    ws();
    const size_t start = at;
    if (at < s.size() && s[at] == '-') ++at;
    while (at < s.size() && (std::isdigit(static_cast<unsigned char>(s[at])) ||
                             s[at] == '.' || s[at] == 'e' || s[at] == 'E' ||
                             s[at] == '+' || s[at] == '-')) {
      ++at;
    }
    return at > start;
  }
  bool literal(const char* word) {
    ws();
    const size_t n = std::strlen(word);
    if (s.compare(at, n, word) != 0) return false;
    at += n;
    return true;
  }
  bool value() {
    ws();
    if (at >= s.size()) return false;
    switch (s[at]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      if (!string() || !eat(':') || !value()) return false;
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    if (!eat('[')) return false;
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }
};

bool valid_json(const std::string& text) {
  JsonScanner scan{text};
  if (!scan.value()) return false;
  scan.ws();
  return scan.at == text.size() ||
         (scan.at + 1 == text.size() && text.back() == '\n');
}

TEST(ObsJson, EscapeCoversControlAndQuoting) {
  EXPECT_EQ(obs::json_quote("plain"), "\"plain\"");
  EXPECT_EQ(obs::json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(obs::json_quote("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(obs::json_quote(std::string("\x01", 1)), "\"\\u0001\"");
  EXPECT_EQ(obs::json_quote("k\"ey"), "\"k\\\"ey\"");
  EXPECT_TRUE(valid_json(obs::json_quote("quote\" back\\slash \n \x02 end")));
}

TEST(ObsMetrics, CounterAndGaugeSemantics) {
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("test/count");
  c.inc();
  c.inc(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  // Same name+labels resolves to the same instrument.
  EXPECT_EQ(&reg.counter("test/count"), &c);
  EXPECT_EQ(reg.size(), 1u);

  obs::Gauge& g = reg.gauge("test/depth");
  g.set(4);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
}

TEST(ObsMetrics, HistogramBucketsAndPercentiles) {
  MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("test/lat", {}, {1.0, 2.0, 5.0});
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);  // empty reads 0
  for (double x : {0.5, 1.5, 1.6, 3.0, 10.0}) h.observe(x);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.6);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  ASSERT_EQ(h.bucket_counts().size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h.bucket_counts()[0], 1u);      // <= 1
  EXPECT_EQ(h.bucket_counts()[1], 2u);      // (1, 2]
  EXPECT_EQ(h.bucket_counts()[2], 1u);      // (2, 5]
  EXPECT_EQ(h.bucket_counts()[3], 1u);      // overflow
  // Percentiles clamp and stay within the observed range.
  EXPECT_DOUBLE_EQ(h.percentile(-1.0), h.percentile(0.0));
  EXPECT_DOUBLE_EQ(h.percentile(2.0), h.percentile(1.0));
  EXPECT_GE(h.percentile(0.5), h.min());
  EXPECT_LE(h.percentile(0.99), h.max());
  EXPECT_LE(h.percentile(0.1), h.percentile(0.9));
}

TEST(ObsMetrics, CanonicalKeySortsLabels) {
  const Labels ab = {{"a", "1"}, {"b", "2"}};
  const Labels ba = {{"b", "2"}, {"a", "1"}};
  EXPECT_EQ(MetricsRegistry::canonical_key("m", ab), "m{a=1,b=2}");
  EXPECT_EQ(MetricsRegistry::canonical_key("m", ba), "m{a=1,b=2}");
  EXPECT_EQ(MetricsRegistry::canonical_key("m", {}), "m");

  // Label order at the call site therefore cannot fork instruments.
  MetricsRegistry reg;
  EXPECT_EQ(&reg.counter("m", ab), &reg.counter("m", ba));
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ObsMetrics, SnapshotIsDeterministicAcrossRegistrationOrder) {
  // Two registries, same instruments and values, registered in opposite
  // orders: snapshots must agree byte-for-byte.
  auto build = [](bool reversed) {
    auto reg = std::make_unique<MetricsRegistry>();
    auto a = [&] { reg->counter("z/late", {{"rack", "1"}}).inc(7); };
    auto b = [&] {
      reg->histogram("a/early", {}, {1.0, 10.0}).observe(2.5);
      reg->gauge("m/mid").set(-3.25);
    };
    if (reversed) {
      b();
      a();
    } else {
      a();
      b();
    }
    return reg;
  };
  const auto r1 = build(false);
  const auto r2 = build(true);
  EXPECT_EQ(r1->text_snapshot(), r2->text_snapshot());
  EXPECT_EQ(r1->json_snapshot(), r2->json_snapshot());
  EXPECT_FALSE(r1->text_snapshot().empty());
  // Sorted by canonical key: a/early before m/mid before z/late.
  const std::string text = r1->text_snapshot();
  EXPECT_LT(text.find("a/early"), text.find("m/mid"));
  EXPECT_LT(text.find("m/mid"), text.find("z/late{rack=1}"));
  EXPECT_TRUE(valid_json(r1->json_snapshot())) << r1->json_snapshot();
}

sim::Task<void> record_events(sim::Simulator* sim, obs::Tracer* tracer,
                              int n) {
  for (int i = 0; i < n; ++i) {
    co_await sim->delay(0.25);
    const double t0 = sim->now();
    co_await sim->delay(0.5);
    tracer->complete("net", "net", static_cast<uint32_t>(i % 3),
                     "span" + std::to_string(i), t0);
    tracer->instant("mr", "mr", 0, "tick" + std::to_string(i));
  }
}

TEST(ObsTrace, RingOverflowKeepsNewest) {
  sim::Simulator sim;
  obs::Tracer tracer(sim);
  tracer.set_enabled(true);
  tracer.set_capacity(4);
  sim.spawn(record_events(&sim, &tracer, 5));  // 10 events into 4 slots
  sim.run();
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, and only the newest four survive.
  EXPECT_EQ(events[0].name, "span3");
  EXPECT_EQ(events[1].name, "tick3");
  EXPECT_EQ(events[2].name, "span4");
  EXPECT_EQ(events[3].name, "tick4");
  EXPECT_LT(events[0].ts, events[3].ts);
  EXPECT_DOUBLE_EQ(events[0].dur, 0.5);   // complete span
  EXPECT_LT(events[1].dur, 0.0);          // instant marker
}

TEST(ObsTrace, DisabledTracerRecordsNothing) {
  sim::Simulator sim;
  obs::Tracer tracer(sim);
  sim.spawn(record_events(&sim, &tracer, 3));
  sim.run();
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(ObsTrace, ChromeExportIsValidJson) {
  sim::Simulator sim;
  obs::Tracer tracer(sim);
  tracer.set_enabled(true);
  sim.spawn(record_events(&sim, &tracer, 4));
  sim.run();
  tracer.instant("fault", "fault", 2, "with \"quotes\"",
                 "\"bytes\":123,\"wipe\":true");

  const std::string doc = tracer.chrome_json("world0");
  EXPECT_TRUE(valid_json(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);  // complete spans
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);  // instants
  // Metadata names every process (node) and thread (component).
  EXPECT_NE(doc.find("\"process_name\""), std::string::npos);
  EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(doc.find("world0"), std::string::npos);
  // Span durations land in trace microseconds (0.5 s -> 500000 us).
  EXPECT_NE(doc.find("\"dur\":500000.000"), std::string::npos);

  // Merged-export plumbing: a second export continues the same array.
  std::string merged;
  bool first = true;
  tracer.export_chrome(&merged, 0, "w0", &first);
  tracer.export_chrome(&merged, 1000, "w1", &first);
  const std::string wrapped = "[" + merged + "]";
  EXPECT_TRUE(valid_json(wrapped));
  EXPECT_NE(merged.find("\"pid\":1002"), std::string::npos);  // w1, node 2
}

}  // namespace
}  // namespace bs
