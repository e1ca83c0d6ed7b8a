// The four benchmark workloads. Every one is a closed loop (a simulated
// client issues its next call only after the previous one returned) with
// no faults injected; bench/suite/README.md says why each was chosen.
//
// `--seed` drives input generation only: which storage node hosts client i
// (a seeded permutation), when each client connects within the ramp (see
// run_closed_loop), the DataSpec pattern seeds, and the meta_storm op
// streams. In mr_mix the seed orders the tasktrackers instead; both jobs
// are submitted at the same instant.
#include <algorithm>
#include <cstdio>

#include "blob/version_manager.h"
#include "common/rng.h"
#include "mr/app.h"
#include "mr/cluster.h"
#include "suite.h"

namespace bs::suite {
namespace {

// The first `count` storage nodes (all of them if fewer) in a seeded
// order: client i runs on nodes[i % size]. As in the paper's F2/F3 runs
// the clients occupy nodes 1..count; the seed decides which client (and
// so which slice or file) lands on which of them.
std::vector<net::NodeId> client_nodes(uint64_t seed, size_t count) {
  std::vector<net::NodeId> nodes = storage_nodes();
  nodes.resize(std::min(count, nodes.size()));
  Rng rng(splitmix64(seed ^ 0xc11e475eedULL));
  for (size_t i = nodes.size(); i > 1; --i) {
    std::swap(nodes[i - 1], nodes[rng.below(i)]);
  }
  return nodes;
}

// Pattern seed of input stream `tag` for run seed `seed`.
uint64_t pattern_seed(uint64_t seed, uint64_t tag) {
  return splitmix64(seed * 0x10000 + tag);
}

std::string numbered(const char* prefix, uint32_t i) {
  return prefix + std::to_string(i);
}

bool all_sizes_match(const std::vector<std::optional<fs::FileStat>>& stats,
                     const std::vector<uint64_t>& sizes) {
  bool ok = stats.size() == sizes.size();
  for (size_t i = 0; ok && i < stats.size(); ++i) {
    ok = size_matches(stats[i], sizes[i]);
  }
  return ok;
}

// --- read_shared: paper F2 at peak concurrency -----------------------------
//
// Every client reads its own slice of one shared file in sequential 1 MiB
// reads. Each returned payload must be exactly the staged pattern at that
// offset (checked on its descriptor; nothing is materialized).
class ReadShared final : public Workload {
 public:
  ReadShared(uint64_t seed, Scale scale, Corruption corruption)
      : seed_(seed),
        file_seed_(pattern_seed(seed, 1)),
        clients_(scale == Scale::kFull ? 250 : 8),
        slice_(scale == Scale::kFull ? 256 * kMiB : 16 * kMiB),
        corruption_(corruption),
        nodes_(client_nodes(seed, clients_)) {}

  void stage(World& w) override {
    stage_files(w, {{path_, clients_ * slice_, file_seed_}});
  }

  double run(World& w) override {
    std::vector<sim::Task<void>> clients;
    for (uint32_t i = 0; i < clients_; ++i) clients.push_back(reader(&w, i));
    return run_closed_loop(w, std::move(clients), seed_, kConnectRampS);
  }

  void check(World& w, Checks* out) override {
    out->emplace_back("read_descriptors", bad_reads_ == 0);
    const uint64_t short_by =
        corruption_ == Corruption::kShortFile ? w.cfg.page_size : 0;
    out->emplace_back("stat_sizes",
                      all_sizes_match(stat_paths(w, {path_}),
                                      {clients_ * slice_ + short_by}));
  }

 private:
  sim::Task<void> reader(World* w, uint32_t i) {
    auto client = w->fs().make_client(nodes_[i % nodes_.size()]);
    auto in = co_await client->open(path_);
    if (in == nullptr) {
      ++bad_reads_;
      co_return;
    }
    const uint64_t expect_seed =
        corruption_ == Corruption::kWrongSeed ? file_seed_ + 1 : file_seed_;
    const uint64_t base = i * slice_;
    for (uint64_t done = 0; done < slice_; done += kMiB) {
      const DataSpec got = co_await in->read(base + done, kMiB);
      if (!read_matches(got, expect_seed, base + done, kMiB)) ++bad_reads_;
    }
  }

  const std::string path_ = "/input/shared";
  uint64_t seed_;
  uint64_t file_seed_;
  uint64_t clients_;
  uint64_t slice_;
  Corruption corruption_;
  std::vector<net::NodeId> nodes_;
  uint64_t bad_reads_ = 0;
};

// --- write_append: paper F3 plus the §V shared append ----------------------
//
// Even clients create their own file. Odd clients append whole blocks to
// one shared file on BSFS; HDFS refuses appends (§II.C), so there they
// write per-client part files instead.
class WriteAppend final : public Workload {
 public:
  WriteAppend(uint64_t seed, Backend backend, Scale scale,
              Corruption corruption)
      : seed_(seed),
        backend_(backend),
        clients_(scale == Scale::kFull ? 250 : 8),
        per_client_(scale == Scale::kFull ? 1 * kGiB : 128 * kMiB),
        corruption_(corruption),
        nodes_(client_nodes(seed, clients_)) {
    for (uint32_t i = 0; i < clients_; ++i) {
      const bool shared = i % 2 == 1 && backend_ == Backend::kBsfs;
      paths_.push_back(shared ? shared_path_
                              : numbered(i % 2 == 0 ? "/out/c" : "/out/p", i));
    }
  }

  void stage(World& w) override {
    if (backend_ == Backend::kBsfs) {
      stage_files(w, {{shared_path_, kSharedBase, pattern_seed(seed_, 2)}});
    }
  }

  double run(World& w) override {
    std::vector<sim::Task<void>> clients;
    for (uint32_t i = 0; i < clients_; ++i) clients.push_back(writer(&w, i));
    return run_closed_loop(w, std::move(clients), seed_, kConnectRampS);
  }

  void check(World& w, Checks* out) override {
    out->emplace_back("writes_acked", bad_writes_ == 0);
    std::vector<std::string> paths;
    std::vector<uint64_t> sizes;
    uint64_t appenders = 0;
    for (uint32_t i = 0; i < clients_; ++i) {
      if (paths_[i] == shared_path_) {
        ++appenders;
      } else {
        paths.push_back(paths_[i]);
        sizes.push_back(per_client_);
      }
    }
    if (appenders > 0) {
      paths.push_back(shared_path_);
      sizes.push_back(kSharedBase + appenders * per_client_);
    }
    if (corruption_ == Corruption::kShortFile) sizes.back() += w.cfg.page_size;
    out->emplace_back("stat_sizes", all_sizes_match(stat_paths(w, paths), sizes));
  }

 private:
  static constexpr uint64_t kSharedBase = 64 * kMiB;

  sim::Task<void> writer(World* w, uint32_t i) {
    auto client = w->fs().make_client(nodes_[i % nodes_.size()]);
    std::unique_ptr<fs::FsWriter> out;
    if (paths_[i] == shared_path_) {
      out = co_await client->append_shared(paths_[i]);
    } else {
      out = co_await client->create(paths_[i]);
    }
    if (out == nullptr) {
      ++bad_writes_;
      co_return;
    }
    const uint64_t stream = pattern_seed(seed_, 1000 + i);
    for (uint64_t done = 0; done < per_client_; done += kMiB) {
      if (!co_await out->write(DataSpec::pattern(stream, done, kMiB))) {
        ++bad_writes_;
      }
    }
    if (!co_await out->close()) ++bad_writes_;
  }

  const std::string shared_path_ = "/out/shared";
  uint64_t seed_;
  Backend backend_;
  uint64_t clients_;
  uint64_t per_client_;
  Corruption corruption_;
  std::vector<net::NodeId> nodes_;
  std::vector<std::string> paths_;
  uint64_t bad_writes_ = 0;
};

// --- meta_storm: the control-plane storm (bench/ext10) ---------------------
//
// Many clients issue seeded op streams over one-page files. BSFS runs a
// 40/30/30 stat / open / append-offset assign+publish mix on a 16-shard
// metadata plane, the appends sent straight to the version manager (no
// data moves); HDFS runs 50/50 stat / open against its single NameNode.
class MetaStorm final : public Workload {
 public:
  MetaStorm(uint64_t seed, Backend backend, Scale scale, Corruption corruption)
      : seed_(seed),
        backend_(backend),
        clients_(scale == Scale::kFull ? 10000 : 200),
        ops_(scale == Scale::kFull ? 50 : 10),
        corruption_(corruption),
        nodes_(client_nodes(seed, clients_)) {
    const uint32_t files = scale == Scale::kFull ? 256 : 16;
    for (uint32_t f = 0; f < files; ++f) paths_.push_back(numbered("/meta/f", f));
    appends_.assign(files, 0);
  }

  WorldConfig config() const override {
    WorldConfig cfg;
    cfg.page_size = kPage;
    cfg.block_size = 4 * kPage;
    cfg.metadata_shards = backend_ == Backend::kBsfs ? 16 : 1;
    return cfg;
  }

  void stage(World& w) override {
    std::vector<StagedFile> files;
    for (uint32_t f = 0; f < paths_.size(); ++f) {
      files.push_back({paths_[f], kPage, pattern_seed(seed_, 100 + f)});
    }
    blob_ids_ = stage_files(w, files);
  }

  double run(World& w) override {
    std::vector<sim::Task<void>> clients;
    for (uint32_t i = 0; i < clients_; ++i) clients.push_back(stormer(&w, i));
    return run_closed_loop(w, std::move(clients), seed_, kConnectRampS);
  }

  void check(World& w, Checks* out) override {
    out->emplace_back("storm_ops", bad_ops_ == 0);
    if (backend_ != Backend::kBsfs) return;
    // Staging published version 1; every assign+commit publishes one more.
    const uint64_t extra = corruption_ == Corruption::kVersionCount ? 1 : 0;
    bool ok = true;
    for (size_t f = 0; f < paths_.size(); ++f) {
      const auto blob = static_cast<blob::BlobId>(blob_ids_[f]);
      ok = ok && w.blobs->version_manager().published_version(blob) ==
                     1 + appends_[f] + extra;
    }
    out->emplace_back("version_counts", ok);
  }

 private:
  static constexpr uint64_t kPage = 64 * 1024;

  sim::Task<void> stormer(World* w, uint32_t i) {
    const net::NodeId node = nodes_[i % nodes_.size()];
    auto client = w->fs().make_client(node);
    Rng rng(splitmix64(pattern_seed(seed_, 3) + i));
    const bool bsfs = backend_ == Backend::kBsfs;
    for (uint32_t op = 0; op < ops_; ++op) {
      const size_t f = rng.below(paths_.size());
      const uint64_t kind = rng.below(10);
      if (bsfs ? kind < 4 : kind < 5) {
        auto st = co_await client->stat(paths_[f]);
        if (!st.has_value() || st->size < kPage) ++bad_ops_;
      } else if (!bsfs || kind < 7) {
        auto in = co_await client->open(paths_[f]);
        if (in == nullptr) ++bad_ops_;
      } else {
        co_await vm_append(w, node, i, f);
      }
    }
  }

  // One append-offset assignment plus its publish, timed by the suite.
  sim::Task<void> vm_append(World* w, net::NodeId node, uint32_t i, size_t f) {
    blob::VersionManager& vm = w->blobs->version_manager();
    const auto blob = static_cast<blob::BlobId>(blob_ids_[f]);
    double t0 = w->sim.now();
    const blob::WriteTicket ticket = co_await vm.assign_write(
        node, blob, blob::VersionManager::kAppendOffset, kPage);
    const bool assigned = ticket.version != blob::kNoVersion;
    w->log.record(Op::kVmAssign, t0, assigned, node, i);
    if (!assigned) {
      ++bad_ops_;
      co_return;
    }
    t0 = w->sim.now();
    co_await vm.commit(node, blob, ticket.version);
    w->log.record(Op::kVmCommit, t0, true, node, i);
    ++appends_[f];
  }

  uint64_t seed_;
  Backend backend_;
  uint32_t clients_;
  uint32_t ops_;
  Corruption corruption_;
  std::vector<net::NodeId> nodes_;
  std::vector<std::string> paths_;
  std::vector<uint64_t> blob_ids_;
  std::vector<uint64_t> appends_;
  uint64_t bad_ops_ = 0;
};

// --- mr_mix: T1-style jobs sharing one MapReduce cluster -------------------
//
// DistributedGrep and cost-model Sort submitted together on engine
// defaults, record reads batched at 1 MiB. Each job must read exactly the
// staged bytes, lose no task, and leave every reduce output file.
class MrMix final : public Workload {
 public:
  MrMix(uint64_t seed, Backend backend, Scale scale, Corruption corruption)
      : nodes_(client_nodes(seed, storage_nodes().size())),
        seed_(seed),
        backend_(backend),
        grep_bytes_(scale == Scale::kFull ? 32 * kGiB : 512 * kMiB),
        sort_bytes_(scale == Scale::kFull ? 8 * kGiB : 256 * kMiB),
        corruption_(corruption) {}

  void stage(World& w) override {
    stage_files(w, {{grep_in_, grep_bytes_, pattern_seed(seed_, 4)},
                    {sort_in_, sort_bytes_, pattern_seed(seed_, 5)}});
  }

  double run(World& w) override {
    mr::MrConfig cfg;
    cfg.jobtracker_node = 0;
    cfg.tasktracker_nodes = nodes_;
    // The engine must outlive the simulator's drain, which
    // run_closed_loop waits for.
    mr::MapReduceCluster engine(w.sim, w.net, w.fs(), cfg);
    std::vector<sim::Task<void>> jobs;
    jobs.push_back(submit(&engine, job_config(&grep_, grep_in_, grep_out_, 8),
                          &grep_stats_));
    jobs.push_back(submit(&engine, job_config(&sort_, sort_in_, sort_out_, 64),
                          &sort_stats_));
    // No connect ramp: FIFO scheduling follows submission order, and a
    // seeded order would make the job times bimodal across seeds.
    return run_closed_loop(w, std::move(jobs), seed_, 0);
  }

  void check(World& w, Checks* out) override {
    const uint64_t extra = corruption_ == Corruption::kJobInput ? 1 : 0;
    bool ok = job_ok(w, grep_stats_, grep_bytes_ + extra, grep_out_, 8) &&
              job_ok(w, sort_stats_, sort_bytes_ + extra, sort_out_, 64);
    out->emplace_back("mr_jobs", ok);
  }

  void layers(const World& w, Metrics* out) const override {
    const std::string b = std::string(".") + backend_name(w.backend);
    const mr::JobStats* jobs[2] = {&grep_stats_, &sort_stats_};
    const char* names[2] = {"grep", "sort"};
    double maps = 0, local = 0, shuffle = 0, committed = 0, launched = 0;
    for (int j = 0; j < 2; ++j) {
      const mr::JobStats& s = *jobs[j];
      const std::string job = std::string(".") + names[j];
      out->push_back({"mr.job_s" + job + b, s.duration, "s"});
      out->push_back({"mr.map_p50_s" + job + b, s.map_latency_p50, "s"});
      out->push_back({"mr.reduce_p50_s" + job + b, s.reduce_latency_p50, "s"});
      maps += static_cast<double>(s.maps);
      local += static_cast<double>(s.data_local_maps);
      shuffle += static_cast<double>(s.shuffle_bytes);
      committed += static_cast<double>(s.maps + s.reduces);
      launched += static_cast<double>(s.launches.size());
    }
    out->push_back({"mr.data_local_frac" + b, maps > 0 ? local / maps : 0,
                    "ratio"});
    out->push_back({"mr.shuffle_mib" + b, shuffle / kMiB, "MiB"});
    out->push_back({"mr.useful_attempt_ratio" + b,
                    launched > 0 ? committed / launched : 0, "ratio"});
  }

 private:
  static mr::JobConfig job_config(mr::MapReduceApp* app, const std::string& in,
                                  const std::string& out, uint32_t reducers) {
    mr::JobConfig jc;
    jc.input_files = {in};
    jc.output_dir = out;
    jc.app = app;
    jc.num_reducers = reducers;
    jc.cost_model = true;
    jc.record_read_size = kMiB;
    return jc;
  }

  static sim::Task<void> submit(mr::MapReduceCluster* engine,
                                mr::JobConfig jc, mr::JobStats* out) {
    *out = co_await engine->run_job(std::move(jc));
  }

  static bool job_ok(World& w, const mr::JobStats& s, uint64_t input_bytes,
                     const std::string& out_dir, uint32_t reducers) {
    std::vector<std::string> parts;
    for (uint32_t r = 0; r < reducers; ++r) {
      char name[32];
      std::snprintf(name, sizeof(name), "/part-r-%05u", r);
      parts.push_back(out_dir + name);
    }
    bool present = true;
    for (const auto& st : stat_paths(w, parts)) {
      present = present && st.has_value() && !st->is_dir;
    }
    return s.input_bytes == input_bytes && s.map_failures == 0 &&
           s.reduce_failures == 0 && s.reduces == reducers && present;
  }

  const std::string grep_in_ = "/in/grep";
  const std::string sort_in_ = "/in/sort";
  const std::string grep_out_ = "/out/grep";
  const std::string sort_out_ = "/out/sort";
  std::vector<net::NodeId> nodes_;
  uint64_t seed_;
  Backend backend_;
  uint64_t grep_bytes_;
  uint64_t sort_bytes_;
  Corruption corruption_;
  mr::DistributedGrep grep_{"inventurous"};
  mr::SortApp sort_;
  mr::JobStats grep_stats_;
  mr::JobStats sort_stats_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"read_shared", "write_append",
                                                  "meta_storm", "mr_mix"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        Backend backend, uint64_t seed,
                                        Scale scale, Corruption corruption) {
  if (name == "read_shared") {
    return std::make_unique<ReadShared>(seed, scale, corruption);
  }
  if (name == "write_append") {
    return std::make_unique<WriteAppend>(seed, backend, scale, corruption);
  }
  if (name == "meta_storm") {
    return std::make_unique<MetaStorm>(seed, backend, scale, corruption);
  }
  if (name == "mr_mix") {
    return std::make_unique<MrMix>(seed, backend, scale, corruption);
  }
  return nullptr;
}

}  // namespace bs::suite
