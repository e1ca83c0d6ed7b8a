#include "bench/harness.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "common/assert.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/parallel.h"

namespace bs::bench {
namespace {

// Process-wide observability sink, armed by BenchReport when --metrics or
// --trace is passed. Worlds register at construction and flush their
// simulator's registry/trace ring into it at destruction; BenchReport's
// destructor writes the files. Bench binaries are single-threaded and
// build one report per process, so a plain global suffices.
struct ObsSink {
  std::string metrics_path;
  std::string trace_path;
  std::string metrics_text;  // concatenated per-world registry snapshots
  std::string trace_events;  // merged Chrome trace-event array body
  bool trace_first = true;
  uint32_t next_world = 0;
};
ObsSink* g_obs = nullptr;

// Process-wide simulator-event total (see report_world_events).
uint64_t g_total_events = 0;

void write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  BS_CHECK_MSG(f != nullptr, "cannot open observability output file");
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

uint32_t obs_register_world(sim::Simulator& sim, const char* kind,
                            std::string* label) {
  if (g_obs == nullptr) return 0;
  const uint32_t index = g_obs->next_world++;
  *label = kind + std::to_string(index);
  if (!g_obs->trace_path.empty()) sim.tracer().set_enabled(true);
  return index;
}

void obs_capture_world(sim::Simulator& sim, const std::string& label,
                       uint32_t index) {
  if (g_obs == nullptr || label.empty()) return;
  if (!g_obs->metrics_path.empty()) {
    g_obs->metrics_text += "# world " + label + "\n";
    g_obs->metrics_text += sim.metrics().text_snapshot();
  }
  if (!g_obs->trace_path.empty()) {
    // Distinct pid ranges per world keep every world's nodes apart in the
    // merged trace; the label prefixes the process names.
    sim.tracer().export_chrome(&g_obs->trace_events, index * 1000, label,
                               &g_obs->trace_first);
  }
}

}  // namespace

void report_world_events(uint64_t events) { g_total_events += events; }

ObsWorldScope::ObsWorldScope(sim::Simulator& sim, const char* kind)
    : sim_(sim) {
  index_ = obs_register_world(sim_, kind, &label_);
}

ObsWorldScope::~ObsWorldScope() { obs_capture_world(sim_, label_, index_); }

BenchReport::BenchReport(std::string name, int argc, char** argv)
    : name_(std::move(name)),
      start_(std::chrono::steady_clock::now()) {  // bslint: allow(wall-clock)
  std::string metrics_path, trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_ = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    }
  }
  if (!metrics_path.empty() || !trace_path.empty()) {
    BS_CHECK_MSG(g_obs == nullptr, "one BenchReport per process");
    g_obs = new ObsSink;
    g_obs->metrics_path = std::move(metrics_path);
    g_obs->trace_path = std::move(trace_path);
  }
}

void BenchReport::metric(const std::string& key, double value) {
  metrics_.emplace_back(key, value);
}

void BenchReport::say(const char* fmt, ...) {
  if (json_) return;
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
}

void BenchReport::table(const Table& t) {
  if (!json_) t.print();
}

BenchReport::~BenchReport() {
  if (g_obs != nullptr) {
    if (!g_obs->metrics_path.empty()) {
      write_text_file(g_obs->metrics_path, g_obs->metrics_text);
    }
    if (!g_obs->trace_path.empty()) {
      std::string doc = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
      doc += g_obs->trace_events;
      doc += "]}\n";
      write_text_file(g_obs->trace_path, doc);
    }
    delete g_obs;
    g_obs = nullptr;
  }
  if (!json_) return;
  // Engine-speed trajectory fields, appended so every bench's JSON carries
  // them without per-bench wiring. Host time, not simulated time.
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() -  // bslint: allow(wall-clock)
                          start_)
                          .count();
  metric("wall_clock_s", wall);
  metric("events_per_sec",
         wall > 0 ? static_cast<double>(g_total_events) / wall : 0);
  // Keys/names are code-controlled today, but escaping (obs/json.h) keeps
  // the emitted line valid JSON if one ever carries a quote or backslash.
  std::printf("{\"bench\": %s, \"metrics\": {",
              obs::json_quote(name_).c_str());
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s%s: %.6g", i == 0 ? "" : ", ",
                obs::json_quote(metrics_[i].first).c_str(),
                metrics_[i].second);
  }
  std::printf("}}\n");
}

net::ClusterConfig paper_cluster() {
  net::ClusterConfig cfg;
  cfg.num_nodes = 270;
  cfg.nodes_per_rack = 30;
  // 32 Gb/s rack uplinks: the fabric is mildly oversubscribed but the
  // aggregate ceiling stays above the sweep's total demand, so the curves
  // are shaped by placement and per-stream behavior (as on Grid'5000), not
  // by a hard fabric cap.
  cfg.rack_uplink_bps = 4.0e9;
  // One 2009-era stream tops out well under line rate.
  cfg.per_stream_cap_bps = 0.65 * cfg.nic_bps;
  return cfg;
}

std::vector<net::NodeId> storage_nodes(const net::ClusterConfig& cfg) {
  std::vector<net::NodeId> nodes(cfg.num_nodes - 1);
  std::iota(nodes.begin(), nodes.end(), 1);  // node 0 is the master
  return nodes;
}

net::NodeId client_node(const net::ClusterConfig& cfg, uint32_t i) {
  return 1 + (i % (cfg.num_nodes - 1));
}

BsfsWorld::BsfsWorld(const WorldOptions& opt)
    : options(opt), net(sim, opt.cluster) {
  blob::BlobSeerConfig bcfg;
  bcfg.provider_nodes = storage_nodes(opt.cluster);
  if (options.metadata_nodes == 0) {
    bcfg.metadata_nodes = storage_nodes(opt.cluster);
  } else {
    for (uint32_t i = 0; i < options.metadata_nodes; ++i) {
      bcfg.metadata_nodes.push_back(client_node(opt.cluster, i));
    }
  }
  bcfg.version_manager_node = 0;
  // Shard the metadata plane over the first S storage nodes (node 0 stays
  // the dedicated master for the 1-shard baseline).
  std::vector<net::NodeId> md_shards;
  if (options.metadata_shards > 1) {
    for (uint32_t i = 0; i < options.metadata_shards; ++i) {
      md_shards.push_back(client_node(opt.cluster, i));
    }
  }
  bcfg.version_manager_nodes = md_shards;
  bcfg.provider_manager_node = 0;
  bcfg.provider.ram_bytes = options.provider_ram;
  bcfg.provider.read_cache = options.provider_read_cache;
  bcfg.provider.durability = options.blob_durability;
  bcfg.manager.policy = options.placement;
  bcfg.dht.service_time_s = options.dht_service_time_s;
  blobs = std::make_unique<blob::BlobSeerCluster>(sim, net, std::move(bcfg));
  bsfs::NamespaceConfig nscfg;
  nscfg.shard_nodes = md_shards;
  ns = std::make_unique<bsfs::NamespaceManager>(sim, net, nscfg);
  bsfs::BsfsConfig fcfg;
  fcfg.block_size = options.block_size;
  fcfg.page_size = options.page_size;
  fcfg.replication = options.bsfs_replication;
  fcfg.enable_cache = options.client_cache;
  fcfg.lease_ttl_s = options.lease_ttl_s;
  fs = std::make_unique<bsfs::Bsfs>(sim, net, *blobs, *ns, fcfg);
  obs_index = obs_register_world(sim, "bsfs", &obs_label);
}

BsfsWorld::~BsfsWorld() {
  report_world_events(sim.events_processed());
  obs_capture_world(sim, obs_label, obs_index);
}

HdfsWorld::HdfsWorld(const WorldOptions& opt)
    : options(opt), net(sim, opt.cluster) {
  hdfs::HdfsConfig cfg;
  cfg.namenode.node = 0;
  cfg.namenode.block_size = options.block_size;
  cfg.namenode.replication = options.hdfs_replication;
  cfg.datanode_durability = options.hdfs_durability;
  fs = std::make_unique<hdfs::Hdfs>(sim, net, cfg,
                                    storage_nodes(opt.cluster));
  obs_index = obs_register_world(sim, "hdfs", &obs_label);
}

HdfsWorld::~HdfsWorld() {
  report_world_events(sim.events_processed());
  obs_capture_world(sim, obs_label, obs_index);
}

sim::Task<void> put_file(fs::FileSystem& fs, net::NodeId node,
                         std::string path, uint64_t bytes, uint64_t seed) {
  auto client = fs.make_client(node);
  auto writer = co_await client->create(path);
  BS_CHECK_MSG(writer != nullptr, "setup create failed");
  const uint64_t chunk = 8 * kMiB;
  uint64_t done = 0;
  while (done < bytes) {
    const uint64_t n = std::min(chunk, bytes - done);
    co_await writer->write(DataSpec::pattern(seed, done, n));
    done += n;
  }
  const bool ok = co_await writer->close();
  BS_CHECK(ok);
}

sim::Task<void> bsfs_stage_file(BsfsWorld& world, std::string path,
                                uint64_t bytes, uint64_t seed) {
  auto blob_client = world.blobs->make_client(0);
  const auto desc = co_await blob_client->create(
      world.options.page_size, world.options.bsfs_replication);
  co_await blob_client->write(desc.id, 0, DataSpec::pattern(seed, 0, bytes));
  bool ok = co_await world.ns->add_file(0, path, desc.id,
                                        world.options.block_size);
  BS_CHECK(ok);
  ok = co_await world.ns->finalize(0, path);
  BS_CHECK(ok);
}

namespace {

struct ClientTiming {
  double start = 0;
  double end = 0;
  uint64_t bytes = 0;
};

ScenarioResult summarize(const std::vector<ClientTiming>& timings,
                         double t0) {
  ScenarioResult out;
  double last_end = t0;
  uint64_t total = 0;
  for (const auto& t : timings) {
    const double secs = t.end - t.start;
    BS_CHECK(secs > 0);
    out.per_client_mbps.add(static_cast<double>(t.bytes) / secs / kMiB);
    last_end = std::max(last_end, t.end);
    total += t.bytes;
  }
  out.makespan_s = last_end - t0;
  out.aggregate_mbps = static_cast<double>(total) / out.makespan_s / kMiB;
  return out;
}

sim::Task<void> read_client(sim::Simulator* sim, fs::FileSystem* fs,
                            ReadTask task, uint64_t request_size,
                            ClientTiming* timing) {
  auto client = fs->make_client(task.node);
  auto reader = co_await client->open(task.path);
  BS_CHECK_MSG(reader != nullptr, "bench read open failed");
  timing->start = sim->now();
  uint64_t done = 0;
  while (done < task.bytes) {
    const uint64_t n = std::min(request_size, task.bytes - done);
    DataSpec chunk = co_await reader->read(task.offset + done, n);
    BS_CHECK(chunk.size() == n);
    done += n;
  }
  timing->end = sim->now();
  timing->bytes = task.bytes;
}

sim::Task<void> write_client(sim::Simulator* sim, fs::FileSystem* fs,
                             WriteTask task, uint64_t request_size,
                             ClientTiming* timing) {
  auto client = fs->make_client(task.node);
  std::unique_ptr<fs::FsWriter> writer;
  if (task.append) {
    writer = co_await client->append(task.path);
  } else {
    writer = co_await client->create(task.path);
  }
  BS_CHECK_MSG(writer != nullptr, "bench write open failed");
  timing->start = sim->now();
  uint64_t done = 0;
  while (done < task.bytes) {
    const uint64_t n = std::min(request_size, task.bytes - done);
    const bool ok = co_await writer->write(DataSpec::pattern(task.seed, done, n));
    BS_CHECK(ok);
    done += n;
  }
  const bool closed = co_await writer->close();
  BS_CHECK(closed);
  timing->end = sim->now();
  timing->bytes = task.bytes;
}

}  // namespace

ScenarioResult run_reads(sim::Simulator& sim, fs::FileSystem& fs,
                         const std::vector<ReadTask>& tasks,
                         uint64_t request_size) {
  std::vector<ClientTiming> timings(tasks.size());
  const double t0 = sim.now();
  for (size_t i = 0; i < tasks.size(); ++i) {
    sim.spawn(read_client(&sim, &fs, tasks[i], request_size, &timings[i]));
  }
  sim.run();
  return summarize(timings, t0);
}

ScenarioResult run_writes(sim::Simulator& sim, fs::FileSystem& fs,
                          const std::vector<WriteTask>& tasks,
                          uint64_t request_size) {
  std::vector<ClientTiming> timings(tasks.size());
  const double t0 = sim.now();
  for (size_t i = 0; i < tasks.size(); ++i) {
    sim.spawn(write_client(&sim, &fs, tasks[i], request_size, &timings[i]));
  }
  sim.run();
  return summarize(timings, t0);
}

int gate_bsfs_above_hdfs(BenchReport& report,
                         const std::vector<SweepPoint>& sweep) {
  int failures = 0;
  report.say("\n");
  for (const SweepPoint& p : sweep) {
    if (p.clients < 50) continue;
    const double ratio = p.bsfs_mbps / p.hdfs_mbps;
    report.metric("gate/clients=" + std::to_string(p.clients) +
                      "/bsfs_over_hdfs",
                  ratio);
    report.say("%u clients: BSFS/HDFS per-client throughput %.2fx "
               "(gate: BSFS above)\n",
               p.clients, ratio);
    if (p.bsfs_mbps > p.hdfs_mbps) continue;
    std::fprintf(stderr,
                 "GATE FAIL: %u clients get %.2f MB/s each on BSFS vs %.2f "
                 "MB/s on HDFS\n",
                 p.clients, p.bsfs_mbps, p.hdfs_mbps);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace bs::bench
