// bs_suite — the repo benchmark's runner.
//
//   bs_suite --workload <name> --seed <n> [--seconds <s>] [--trace <dir>]
//   bs_suite --self-test
//
// One run repeats passes of the workload (set up both worlds, run the
// measured phase, check the outputs) until --seconds of host time are
// spent, at least one pass; set-up alone is then repeated until it has
// nine samples (not with --seconds 0, which is exactly one pass). It prints one JSON line: end-to-end metrics with units (host
// times are medians, rescaled to a reference machine speed as host_time.h
// explains), named checks, the sim_digest and per-backend op sample
// counts. It exits 1 when any check fails. --trace also enables the
// simulator's
// tracer and the queue sampler, and writes <dir>/<workload>.layers.json
// (every per-layer metric) and <dir>/<workload>.trace.json (Chrome trace).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/order_audit.h"
#include "suite.h"

namespace bs::suite {
namespace {

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// The op-latency centre is a mean, not a median: client-cache hits and
// buffered writes take no simulated time, so on the data workloads more
// than half of all calls return instantly and the median reads 0.
double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// One back-end's share of a pass.
struct BackendResult {
  HostTimer setup;
  HostTimer run;
  double makespan_s = 0;
  uint64_t events = 0;  // measured phase only
  std::string digest;
  std::vector<double> latencies;  // every timed op, simulated seconds
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Checks checks;
  Metrics layers;
  std::string trace_events;  // Chrome trace-event array body (traced only)
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  Scale scale = Scale::kFull;
  Corruption corruption = Corruption::kNone;
  bool timed = true;
  bool traced = false;
};

BackendResult run_backend(const RunOptions& o, Backend backend) {
  BackendResult r;
  auto workload =
      make_workload(o.workload, backend, o.seed, o.scale, o.corruption);
  const double t0 = host_seconds();
  World w(backend, workload->config(), o.timed, o.traced);
  workload->stage(w);
  r.setup.add(host_seconds() - t0);

  const Reading before = read_world(w);
  r.makespan_s = workload->run(w);
  r.run = w.run_timer;
  const Reading after = read_world(w);
  r.events = w.sim.events_processed() -
             static_cast<uint64_t>(before.counters.at("sim.events"));
  // Taken before the post-phase checks: the sliced event loop leaves the
  // clock at a slice boundary, so when the checks start depends on host
  // timing; everything dispatched up to here does not.
  r.digest = w.sim.order_auditor()->digest_hex();

  workload->check(w, &r.checks);
  for (size_t op = 0; op < kOpCount; ++op) {
    const auto& lat = w.log.latencies(static_cast<Op>(op));
    r.latencies.insert(r.latencies.end(), lat.begin(), lat.end());
  }
  r.attempted = w.log.attempted();
  r.failed = w.log.failed();
  layer_metrics(w, before, after, &r.layers);
  workload->layers(w, &r.layers);
  if (o.traced) {
    bool first = true;
    w.sim.tracer().export_chrome(&r.trace_events,
                                 backend == Backend::kBsfs ? 0 : 1000,
                                 backend_name(backend), &first);
  }
  return r;
}

constexpr size_t kSetupSamples = 9;

// Set-up only (both back-ends), for the set-up samples passes did not give.
HostTimer setup_once(const RunOptions& o) {
  HostTimer t;
  for (Backend b : {Backend::kBsfs, Backend::kHdfs}) {
    auto workload = make_workload(o.workload, b, o.seed, o.scale, o.corruption);
    const double t0 = host_seconds();
    World w(b, workload->config(), false, false);
    workload->stage(w);
    t.add(host_seconds() - t0);
  }
  return t;
}

HostTimer sum(const HostTimer& a, const HostTimer& b) {
  HostTimer t = a;
  t.merge(b);
  return t;
}

struct Pass {
  BackendResult bsfs;
  BackendResult hdfs;
  HostTimer setup() const { return sum(bsfs.setup, hdfs.setup); }
  HostTimer run() const { return sum(bsfs.run, hdfs.run); }
  std::string sim_digest() const { return bsfs.digest + "-" + hdfs.digest; }
};

Pass run_pass(const RunOptions& o) {
  return Pass{run_backend(o, Backend::kBsfs), run_backend(o, Backend::kHdfs)};
}

// AND-merges check lists by name, keeping first-seen order.
void merge_checks(const Checks& in, Checks* out) {
  for (const auto& [name, ok] : in) {
    auto it = std::find_if(out->begin(), out->end(),
                           [&](const auto& c) { return c.first == name; });
    if (it == out->end()) {
      out->emplace_back(name, ok);
    } else {
      it->second = it->second && ok;
    }
  }
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += obs::json_quote(metrics[i].name) + ":{\"value\":" +
           obs::format_metric_value(metrics[i].value) +
           ",\"unit\":" + obs::json_quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

int run_benchmark(const RunOptions& o, double seconds,
                  const std::string& trace_dir) {
  const double start = host_seconds();
  std::vector<Pass> passes;
  std::vector<HostTimer> setups;
  // Peak memory of one pass: later passes reuse a fragmented heap, so the
  // process-lifetime peak would grow with the number of passes.
  double rss_mib = 0;
  do {
    passes.push_back(run_pass(o));
    setups.push_back(passes.back().setup());
    if (passes.size() == 1) rss_mib = peak_rss_mib();
    // Stop before a pass that would overrun the budget.
    const double elapsed = host_seconds() - start;
    const double per_pass = elapsed / static_cast<double>(passes.size());
    if (elapsed + per_pass > seconds) break;
  } while (true);
  // Set-up takes milliseconds to a few tenths of a second, so a single
  // sample is mostly noise: top up to kSetupSamples before the median.
  // --seconds 0 means exactly one pass (profile.sh relies on it).
  while (seconds > 0 && setups.size() < kSetupSamples) {
    setups.push_back(setup_once(o));
  }

  const Pass& p = passes.back();
  Checks checks;
  bool same = true;
  for (const Pass& q : passes) {
    merge_checks(q.bsfs.checks, &checks);
    merge_checks(q.hdfs.checks, &checks);
    same = same && q.sim_digest() == p.sim_digest() &&
           q.bsfs.makespan_s == p.bsfs.makespan_s &&
           q.hdfs.makespan_s == p.hdfs.makespan_s;
  }
  const uint64_t attempted = p.bsfs.attempted + p.hdfs.attempted;
  const uint64_t failed = p.bsfs.failed + p.hdfs.failed;
  checks.emplace_back("passes_identical", same);
  checks.emplace_back("no_failed_ops", failed == 0);
  // At least ten samples beyond each backend's p99.9.
  checks.emplace_back("op_samples", p.bsfs.latencies.size() >= 10000 &&
                                        p.hdfs.latencies.size() >= 10000);
  bool correct = true;
  for (const auto& c : checks) correct = correct && c.second;

  // Host times: medians over passes (set-up samples) at the reference
  // speed (host_time.h); the raw wall-clock medians ride along.
  std::vector<double> run_s, run_wall_s, setup_s, setup_wall_s;
  for (const Pass& q : passes) {
    run_s.push_back(q.run().reference_s());
    run_wall_s.push_back(q.run().wall_s());
  }
  for (const HostTimer& t : setups) {
    setup_s.push_back(t.reference_s());
    setup_wall_s.push_back(t.wall_s());
  }
  const double run_median = median(run_s);
  Metrics e2e = {
      {"setup_s", median(setup_s), "s"},
      {"run_s", run_median, "s"},
      {"setup_wall_s", median(setup_wall_s), "s"},
      {"run_wall_s", median(run_wall_s), "s"},
      {"peak_rss_mib", rss_mib, "MiB"},
      {"bsfs_makespan_s", p.bsfs.makespan_s, "s"},
      {"hdfs_makespan_s", p.hdfs.makespan_s, "s"},
      {"bsfs_op_mean_ms", 1e3 * mean(p.bsfs.latencies), "ms"},
      {"bsfs_op_p999_ms", 1e3 * quantile(p.bsfs.latencies, 0.999), "ms"},
      {"hdfs_op_mean_ms", 1e3 * mean(p.hdfs.latencies), "ms"},
      {"hdfs_op_p999_ms", 1e3 * quantile(p.hdfs.latencies, 0.999), "ms"},
      {"ops_failed_frac",
       attempted > 0 ? static_cast<double>(failed) / attempted : 0, "ratio"},
  };

  std::string line = "{\"workload\":" + obs::json_quote(o.workload) +
                     ",\"seed\":" + std::to_string(o.seed) +
                     ",\"passes\":" + std::to_string(passes.size()) +
                     ",\"traced\":" + (o.traced ? "true" : "false") +
                     ",\"correct\":" + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"sim_digest\":" + obs::json_quote(p.sim_digest()) +
                     ",\"samples\":{\"bsfs\":" +
                     std::to_string(p.bsfs.latencies.size()) +
                     ",\"hdfs\":" + std::to_string(p.hdfs.latencies.size()) +
                     "},\"checks\":{";
  for (size_t i = 0; i < checks.size(); ++i) {
    line += (i > 0 ? "," : "") + obs::json_quote(checks[i].first) + ":" +
            (checks[i].second ? "true" : "false");
  }
  line += "},\"metrics\":" + metrics_json(e2e) + "}";

  if (o.traced) {
    Metrics layers = p.bsfs.layers;
    layers.insert(layers.end(), p.hdfs.layers.begin(), p.hdfs.layers.end());
    const double events = static_cast<double>(p.bsfs.events + p.hdfs.events);
    layers.push_back({"sim.events_per_host_s", events / run_median, "1/s"});
    layers.push_back({"sim.host_ns_per_event", 1e9 * run_median / events, "ns"});
    const std::string base = trace_dir + "/" + o.workload;
    const std::string layers_doc = "{\"workload\":" + obs::json_quote(o.workload) +
                                   ",\"seed\":" + std::to_string(o.seed) +
                                   ",\"metrics\":" + metrics_json(layers) + "}\n";
    const std::string trace_doc = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[" +
                                  p.bsfs.trace_events +
                                  (p.bsfs.trace_events.empty() ? "" : ",") +
                                  p.hdfs.trace_events + "]}\n";
    if (!write_file(base + ".layers.json", layers_doc) ||
        !write_file(base + ".trace.json", trace_doc)) {
      std::fprintf(stderr, "bs_suite: cannot write traces under %s\n",
                   trace_dir.c_str());
      return 2;
    }
  }
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

// --- self-test -------------------------------------------------------------

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  %s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

Checks pass_checks(const Pass& p) {
  Checks all;
  merge_checks(p.bsfs.checks, &all);
  merge_checks(p.hdfs.checks, &all);
  return all;
}

int self_test() {
  std::printf("checkers:\n");
  const DataSpec staged = DataSpec::pattern(7, 4096, 1024);
  expect(read_matches(staged, 7, 4096, 1024), "read_matches accepts the staged slice");
  expect(!read_matches(staged, 8, 4096, 1024), "read_matches rejects a wrong seed");
  expect(!read_matches(staged, 7, 0, 1024), "read_matches rejects a wrong offset");
  expect(!read_matches(staged.slice(0, 512), 7, 4096, 1024),
         "read_matches rejects a short read");
  expect(!read_matches(DataSpec::from_bytes(staged.materialize()), 7, 4096, 1024),
         "read_matches rejects materialized bytes");
  fs::FileStat st;
  st.size = 100;
  expect(size_matches(st, 100), "size_matches accepts the expected size");
  expect(!size_matches(st, 101), "size_matches rejects a short file");
  expect(!size_matches(std::nullopt, 100), "size_matches rejects a missing file");

  for (const std::string& name : workload_names()) {
    std::printf("%s (small):\n", name.c_str());
    RunOptions o;
    o.workload = name;
    o.scale = Scale::kSmall;
    const Pass timed = run_pass(o);
    bool all_ok = true;
    for (const auto& c : pass_checks(timed)) all_ok = all_ok && c.second;
    expect(all_ok, "every check passes");
    expect(timed.bsfs.failed + timed.hdfs.failed == 0, "no failed ops");
    expect(!timed.bsfs.latencies.empty() && !timed.hdfs.latencies.empty(),
           "TimedFs recorded ops on both backends");
    o.timed = false;
    const Pass plain = run_pass(o);
    expect(plain.sim_digest() == timed.sim_digest() &&
               plain.bsfs.makespan_s == timed.bsfs.makespan_s &&
               plain.hdfs.makespan_s == timed.hdfs.makespan_s,
           "TimedFs is transparent (same sim_digest and makespans)");
    o.timed = true;
    o.seed = 2;
    const Pass other = run_pass(o);
    expect(other.sim_digest() != timed.sim_digest(),
           "another seed gives another schedule");
  }

  struct Case {
    const char* workload;
    Corruption corruption;
    const char* check;
  };
  const Case cases[] = {
      {"read_shared", Corruption::kWrongSeed, "read_descriptors"},
      {"read_shared", Corruption::kShortFile, "stat_sizes"},
      {"write_append", Corruption::kShortFile, "stat_sizes"},
      {"meta_storm", Corruption::kVersionCount, "version_counts"},
      {"mr_mix", Corruption::kJobInput, "mr_jobs"},
  };
  std::printf("corrupted cases:\n");
  for (const Case& c : cases) {
    RunOptions o;
    o.workload = c.workload;
    o.scale = Scale::kSmall;
    o.corruption = c.corruption;
    bool fired = false, others_ok = true;
    for (const auto& [name, ok] : pass_checks(run_pass(o))) {
      if (name == c.check) {
        fired = !ok;
      } else {
        others_ok = others_ok && ok;
      }
    }
    expect(fired && others_ok,
           std::string(c.workload) + ": " + c.check + " fires alone");
  }
  std::printf("self-test: %s\n", g_failures == 0 ? "PASS" : "FAIL");
  return g_failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: bs_suite --workload <name> [--seed <n>] [--seconds <s>] "
               "[--trace <dir>]\n       bs_suite --self-test\nworkloads:");
  for (const std::string& name : workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace bs::suite

int main(int argc, char** argv) {
  using namespace bs::suite;
  RunOptions o;
  double seconds = 0;
  std::string trace_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    char* end = nullptr;
    if (arg == "--self-test") return self_test();
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return usage();
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(seconds >= 0)) return usage();
    } else if (arg == "--trace" && has_value) {
      trace_dir = argv[++i];
      o.traced = true;
    } else {
      return usage();
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    return usage();
  }
  return run_benchmark(o, seconds, trace_dir);
}
