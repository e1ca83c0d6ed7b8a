// Deployments, set-up staging, the closed-loop runner and the op log.
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common/assert.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "sim/sync.h"
#include "suite.h"

namespace bs::suite {
namespace {

// bench/harness.cpp's paper_cluster(), copied: 270 nodes in racks of 30,
// 4 Gb/s rack uplinks, one stream capped at 0.65 x NIC.
net::ClusterConfig suite_cluster() {
  net::ClusterConfig cfg;
  cfg.num_nodes = 270;
  cfg.nodes_per_rack = 30;
  cfg.rack_uplink_bps = 4.0e9;
  cfg.per_stream_cap_bps = 0.65 * cfg.nic_bps;
  return cfg;
}

constexpr const char* kOpNames[kOpCount] = {
    "create", "open", "append", "snapshot", "locations", "stat", "list",
    "remove", "rename", "read", "write", "close", "vm_assign", "vm_commit"};

sim::Task<void> client_done(sim::Simulator* sim, double start,
                            sim::Task<void> body, sim::WaitGroup* wg) {
  co_await sim->delay(start);
  co_await std::move(body);
  wg->done();
}

sim::Task<void> phase_end(World* w, sim::WaitGroup* wg, bool* done,
                          double* end) {
  co_await wg->wait();
  *end = w->sim.now();
  *done = true;
}

}  // namespace

const char* op_name(Op op) { return kOpNames[static_cast<size_t>(op)]; }

void OpLog::record(Op op, double t0, bool ok, net::NodeId node,
                   uint64_t client) {
  lat_[static_cast<size_t>(op)].push_back(sim_.now() - t0);
  if (!ok) ++failed_;
  obs::Tracer& tracer = sim_.tracer();
  if (tracer.enabled()) {
    char args[40];
    std::snprintf(args, sizeof(args), "\"client\":%llu",
                  static_cast<unsigned long long>(client));
    tracer.complete("fs", "fs", node, op_name(op), t0, args);
  }
}

uint64_t OpLog::attempted() const {
  uint64_t n = 0;
  for (const auto& v : lat_) n += v.size();
  return n;
}

const char* backend_name(Backend b) {
  return b == Backend::kBsfs ? "bsfs" : "hdfs";
}

std::vector<net::NodeId> storage_nodes() {
  std::vector<net::NodeId> nodes(suite_cluster().num_nodes - 1);
  std::iota(nodes.begin(), nodes.end(), 1);
  return nodes;
}

World::World(Backend b, const WorldConfig& c, bool timed, bool trace)
    : backend(b), cfg(c), traced(trace), net(sim, suite_cluster()),
      log(sim) {
  sim.enable_order_audit();
  if (traced) {
    sim.tracer().set_enabled(true);
    sim.tracer().set_capacity(1 << 16);
  }
  const std::vector<net::NodeId> nodes = storage_nodes();
  if (backend == Backend::kBsfs) {
    // The metadata plane shards over the first S storage nodes; with one
    // shard it stays on the dedicated master (the paper's baseline).
    std::vector<net::NodeId> md_shards;
    if (cfg.metadata_shards > 1) {
      md_shards.assign(nodes.begin(), nodes.begin() + cfg.metadata_shards);
    }
    blob::BlobSeerConfig bcfg;
    bcfg.provider_nodes = nodes;
    bcfg.metadata_nodes = nodes;
    bcfg.version_manager_node = 0;
    bcfg.version_manager_nodes = md_shards;
    bcfg.provider_manager_node = 0;
    bcfg.provider.ram_bytes = 2 * kGiB;
    bcfg.provider.read_cache = true;
    blobs = std::make_unique<blob::BlobSeerCluster>(sim, net, std::move(bcfg));
    bsfs::NamespaceConfig nscfg;
    nscfg.shard_nodes = md_shards;
    ns = std::make_unique<bsfs::NamespaceManager>(sim, net, nscfg);
    bsfs::BsfsConfig fcfg;
    fcfg.block_size = cfg.block_size;
    fcfg.page_size = cfg.page_size;
    bsfs = std::make_unique<bsfs::Bsfs>(sim, net, *blobs, *ns, fcfg);
  } else {
    hdfs::HdfsConfig hcfg;
    hcfg.namenode.node = 0;
    hcfg.namenode.block_size = cfg.block_size;
    hdfs = std::make_unique<hdfs::Hdfs>(sim, net, hcfg, nodes);
  }
  if (timed) timed_ = std::make_unique<TimedFs>(raw(), log);
}

fs::FileSystem& World::raw() {
  if (bsfs) return *bsfs;
  return *hdfs;
}

namespace {

sim::Task<void> stage_file(World* w, const StagedFile* f, uint64_t* id) {
  if (w->backend == Backend::kBsfs) {
    auto client = w->blobs->make_client(0);
    const auto desc = co_await client->create(w->cfg.page_size, 1);
    co_await client->write(desc.id, 0, DataSpec::pattern(f->seed, 0, f->bytes));
    bool ok = co_await w->ns->add_file(0, f->path, desc.id, w->cfg.block_size);
    BS_CHECK_MSG(ok, "staging add_file failed");
    ok = co_await w->ns->finalize(0, f->path);
    BS_CHECK_MSG(ok, "staging finalize failed");
    *id = desc.id;
    co_return;
  }
  auto client = w->raw().make_client(0);
  auto writer = co_await client->create(f->path);
  BS_CHECK_MSG(writer != nullptr, "staging create failed");
  const uint64_t chunk = 8 * kMiB;
  for (uint64_t done = 0; done < f->bytes;) {
    const uint64_t n = std::min(chunk, f->bytes - done);
    const bool ok = co_await writer->write(DataSpec::pattern(f->seed, done, n));
    BS_CHECK_MSG(ok, "staging write failed");
    done += n;
  }
  const bool closed = co_await writer->close();
  BS_CHECK_MSG(closed, "staging close failed");
}

sim::Task<void> stat_all(World* w, const std::vector<std::string>* paths,
                         std::vector<std::optional<fs::FileStat>>* out) {
  auto client = w->raw().make_client(0);
  for (const std::string& p : *paths) out->push_back(co_await client->stat(p));
}

}  // namespace

std::vector<uint64_t> stage_files(World& w,
                                  const std::vector<StagedFile>& files) {
  std::vector<uint64_t> ids(files.size(), 0);
  for (size_t i = 0; i < files.size(); ++i) {
    w.sim.spawn(stage_file(&w, &files[i], &ids[i]));
  }
  w.sim.run();
  return ids;
}

std::vector<std::optional<fs::FileStat>> stat_paths(
    World& w, const std::vector<std::string>& paths) {
  std::vector<std::optional<fs::FileStat>> out;
  w.sim.spawn(stat_all(&w, &paths, &out));
  w.sim.run();
  return out;
}

double run_closed_loop(World& w, std::vector<sim::Task<void>> clients,
                       uint64_t seed, double ramp_s) {
  sim::WaitGroup wg(w.sim);
  wg.add(clients.size());
  bool done = false;
  double end = 0;
  const double t0 = w.sim.now();
  Rng ramp(splitmix64(seed ^ 0x4a3b5eedULL));
  for (auto& c : clients) {
    const double start = ramp_s > 0 ? ramp.uniform(0, ramp_s) : 0;
    w.sim.spawn(client_done(&w.sim, start, std::move(c), &wg));
  }
  w.sim.spawn(phase_end(&w, &wg, &done, &end));
  if (w.traced) w.sim.spawn(sample_queues(&w, &done));
  // Slicing by simulated time leaves the dispatch order untouched:
  // run_until only advances the clock over idle gaps. The slice length
  // adapts to 15-60 ms of host time; a run of slices without a single
  // event means the clients are stuck, which the check below reports.
  double slice_sim_s = 1e-3;
  for (int idle = 0; !done && idle < 200;) {
    const uint64_t events = w.sim.events_processed();
    const double h0 = host_seconds();
    w.sim.run_until(w.sim.now() + slice_sim_s);
    const double wall = host_seconds() - h0;
    w.run_timer.add(wall);
    idle = w.sim.events_processed() == events ? idle + 1 : 0;
    if (wall < 0.015) slice_sim_s *= 2;
    if (wall > 0.06) slice_sim_s /= 2;
  }
  const double h0 = host_seconds();
  w.sim.run();  // what outlives the clients: flushers, tracker loops
  w.run_timer.add(host_seconds() - h0);
  BS_CHECK_MSG(done, "measured phase did not finish");
  return end - t0;
}

bool read_matches(const DataSpec& got, uint64_t seed, uint64_t offset,
                  uint64_t size) {
  return got.is_pattern() && got.seed() == seed && got.offset() == offset &&
         got.size() == size;
}

bool size_matches(const std::optional<fs::FileStat>& st, uint64_t size) {
  return st.has_value() && !st->is_dir && st->size == size;
}

}  // namespace bs::suite
