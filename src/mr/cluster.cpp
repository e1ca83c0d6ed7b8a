#include "mr/cluster.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

#include "common/assert.h"
#include "common/hash.h"
#include "common/wordlist.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/parallel.h"

namespace bs::mr {
namespace {

// Seed of the engine's failure-injection dice.
constexpr uint64_t kFailureSeed = 0xfa11;

std::string task_file_name(char kind, uint32_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "part-%c-%05u", kind, index);
  return buf;
}

class VectorEmitter final : public Emitter {
 public:
  explicit VectorEmitter(
      std::vector<std::pair<std::string, std::string>>* out)
      : out_(out) {}
  void emit(std::string key, std::string value) override {
    out_->emplace_back(std::move(key), std::move(value));
  }

 private:
  std::vector<std::pair<std::string, std::string>>* out_;
};

}  // namespace

MapReduceCluster::MapReduceCluster(sim::Simulator& sim, net::Network& net,
                                   fs::FileSystem& filesystem, MrConfig cfg)
    : sim_(sim), net_(net), fs_(filesystem), cfg_(std::move(cfg)),
      rng_(kFailureSeed) {
  if (cfg_.tasktracker_nodes.empty()) {
    cfg_.tasktracker_nodes.resize(net.config().num_nodes);
    std::iota(cfg_.tasktracker_nodes.begin(), cfg_.tasktracker_nodes.end(), 0);
  }
  slots_.assign(net.config().num_nodes, {0, 0});
  node_slowness_.assign(net.config().num_nodes, 0);
  tracker_running_.assign(net.config().num_nodes, 0);
  obs::MetricsRegistry& m = sim_.metrics();
  tracer_ = &sim_.tracer();
  m_jobs_submitted_ = &m.counter("mr/jobs_submitted");
  m_jobs_completed_ = &m.counter("mr/jobs_completed");
  for (TaskKind kind : kTaskKinds) {
    m_launches_[idx(kind)] =
        &m.counter("mr/task_launches", {{"kind", kind_name(kind)}});
  }
  m_spec_launches_ = &m.counter("mr/speculative_launches");
  m_killed_ = &m.counter("mr/killed_attempts");
  m_task_failures_ = &m.counter("mr/task_failures");
  m_fetch_failures_ = &m.counter("mr/fetch_failures");
  m_maps_reexecuted_ = &m.counter("mr/maps_reexecuted");
  m_snapshot_pins_ = &m.gauge("fs/snapshot_pins");
  m_kv_bytes_lost_ = &m.counter("kv/bytes_lost_on_power_loss");
}

std::string MapReduceCluster::temp_path(const JobState& job,
                                        const Attempt& att) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "att-j%u-%c-%05u-%u", job.job_id,
                kind_name(att.kind)[0], att.task->index, att.ordinal);
  return fs::join_path(fs::join_path(job.config.output_dir, "_attempts"), buf);
}

std::string MapReduceCluster::shared_output_path(const JobState& job) const {
  return fs::join_path(job.config.output_dir, "output-shared");
}

sim::Task<void> MapReduceCluster::setup_shared_output(JobState& job) {
  auto client = fs_.make_client(cfg_.jobtracker_node);
  const std::string shared = shared_output_path(job);
  auto writer = co_await client->create(shared);
  BS_CHECK_MSG(writer != nullptr, "cannot create shared output file");
  co_await writer->close();
  // Capability probe: back-ends without concurrent append (HDFS, §II.C)
  // make the job fall back to per-reduce parts + a serialized concat.
  auto probe = co_await client->append_shared(shared);
  if (probe == nullptr) {
    job.shared_fallback = true;
  } else {
    co_await probe->close();
    job.shared_output = true;
  }
}

sim::Task<void> MapReduceCluster::concat_shared_output(JobState& job) {
  // The reduces committed classic part-r files; one client now reads each
  // part and rewrites it into the shared job file, strictly serialized —
  // the §II.C bottleneck that BSFS's concurrent appends avoid (ext5
  // measures exactly this gap).
  const double started = sim_.now();
  auto client = fs_.make_client(cfg_.jobtracker_node);
  const std::string shared = shared_output_path(job);
  co_await client->remove(shared);  // replace the empty probe-time file
  auto writer = co_await client->create(shared);
  BS_CHECK_MSG(writer != nullptr, "cannot recreate shared output for concat");
  for (uint32_t r = 0; r < job.phase(TaskKind::kReduce).size(); ++r) {
    const std::string part =
        fs::join_path(job.config.output_dir, task_file_name('r', r));
    auto reader = co_await client->open(part);
    BS_CHECK_MSG(reader != nullptr, "committed part file missing");
    const uint64_t size = reader->size();
    uint64_t at = 0;
    while (at < size) {
      const uint64_t n = std::min<uint64_t>(fs_.block_size(), size - at);
      DataSpec chunk = co_await reader->read(at, n);
      co_await writer->write(std::move(chunk));
      at += n;
    }
    ++job.stats.concat_parts;
    job.stats.concat_bytes += size;
    co_await client->remove(part);
  }
  co_await writer->close();
  job.stats.concat_s = sim_.now() - started;
}

sim::Task<void> MapReduceCluster::cleanup_attempt_dir(JobState& job) {
  // Losers remove their own temp files; what is still listed once every
  // attempt has drained is an orphan from a crashed attempt.
  auto client = fs_.make_client(cfg_.jobtracker_node);
  const std::string dir = fs::join_path(job.config.output_dir, "_attempts");
  auto leftovers = co_await client->list(dir);
  for (const std::string& path : leftovers) {
    co_await client->remove(path);
  }
  co_await client->remove(dir);  // the now-childless directory entry
}

// --- planning -------------------------------------------------------------

sim::Task<void> MapReduceCluster::plan_job(JobState& job) {
  MapReduceApp& app = *job.config.app;
  std::vector<InputSplit> splits;
  if (app.generated_bytes_per_map() > 0) {
    BS_CHECK_MSG(job.config.num_generator_maps > 0,
                 "generator app needs num_generator_maps");
    // Generator maps write straight to their output files and never
    // install shuffle partitions, so a reduce phase would wait forever.
    BS_CHECK_MSG(app.map_only(), "generator apps must be map-only");
    for (uint32_t i = 0; i < job.config.num_generator_maps; ++i) {
      InputSplit split;
      split.index = i;
      splits.push_back(std::move(split));
    }
  } else {
    // Resolve the inputs to pinned snapshots EXACTLY ONCE (mr/dataset.h).
    // Splits, locality hints, and every attempt's reads consume the pins;
    // nothing below ever re-stats a live input file.
    job.dataset = co_await Dataset::resolve(fs_, cfg_.jobtracker_node,
                                            job.config.input_files);
    splits = co_await job.dataset.plan_splits(cfg_.jobtracker_node);
    for (const InputSplit& split : splits) {
      job.stats.input_bytes += split.length;
    }
    for (const fs::Snapshot& snap : job.dataset.snapshots()) {
      job.stats.input_snapshot_versions.push_back(snap.version);
    }
  }
  Phase& maps = job.phase(TaskKind::kMap);
  maps.tasks.resize(splits.size());
  for (uint32_t i = 0; i < maps.size(); ++i) {
    maps.tasks[i].split = std::move(splits[i]);
  }
  job.phase(TaskKind::kReduce)
      .tasks.resize(app.map_only() ? 0 : job.config.num_reducers);
  for (Phase& phase : job.phases) {
    for (uint32_t i = 0; i < phase.size(); ++i) {
      phase.tasks[i].index = i;
      phase.pending.push_back(i);
    }
  }
  job.map_outputs.resize(maps.size());
  job.map_committed.assign(maps.size(), 0);
  job.fetch_fail_counts.assign(maps.size(), 0);
  const double ss = std::clamp(cfg_.reduce_slowstart, 0.0, 1.0);
  job.slowstart_maps =
      static_cast<uint32_t>(std::ceil(ss * static_cast<double>(maps.size())));
  job.stats.maps = maps.size();
  job.stats.reduces = job.phase(TaskKind::kReduce).size();
}

// --- scheduling -----------------------------------------------------------

uint8_t MapReduceCluster::locality(const std::vector<net::NodeId>& hosts,
                                   net::NodeId node, int pass) const {
  if (std::find(hosts.begin(), hosts.end(), node) != hosts.end()) return 0;
  if (pass == 0) return 2;  // pass 0 takes node-local entries only
  const auto& ncfg = net_.config();
  const bool rack_local =
      std::any_of(hosts.begin(), hosts.end(),
                  [&](net::NodeId h) { return ncfg.same_rack(h, node); });
  return rack_local ? 1 : 2;
}

bool MapReduceCluster::pop(JobState& job, TaskKind kind, net::NodeId node,
                           Assignment* out) {
  if (kind == TaskKind::kReduce &&
      job.phase(TaskKind::kMap).done < job.slowstart_maps) {
    return false;  // slowstart gate
  }
  Phase& phase = job.phase(kind);
  auto take = [&](TaskState& task, bool speculative, uint8_t where) {
    *out = {&job, &task, kind, speculative, where};
    // Keeps the job alive across the heartbeat-response latency between
    // this decision and launch() (see tasktracker_loop).
    job.attempts.add(1);
    return true;
  };
  // Three locality passes: node-local, rack-local, anything. Reduces have
  // no input hosts and enter at the last pass, so they take the first live
  // entry and leave the done entries behind it queued. Entries for
  // already-committed tasks are dropped lazily as we encounter them.
  const int first_pass = kind == TaskKind::kMap ? 0 : 2;
  for (int pass = first_pass; pass < 3; ++pass) {
    for (auto it = phase.pending.begin(); it != phase.pending.end();) {
      TaskState& task = phase.tasks[*it];
      if (task.done) {
        it = phase.pending.erase(it);
        continue;
      }
      const uint8_t where = locality(task.split.hosts, node, pass);
      if (where > pass) {
        ++it;
        continue;
      }
      phase.pending.erase(it);
      return take(task, false, where);
    }
  }

  if (!backup_eligible(phase, node)) return false;
  // Speculative backups: locality is matched against replicas that are NOT
  // hosting a live attempt of the task (reading through the straggler's
  // node would re-import the slowness the backup must escape), and a
  // delay-scheduling wait holds out for such a node before settling for an
  // arbitrary one.
  const double now = sim_.now();
  const double local_wait = 4 * cfg_.heartbeat_s;
  for (int pass = first_pass; pass < 3; ++pass) {
    for (auto it = phase.backups.begin(); it != phase.backups.end();) {
      TaskState& task = phase.tasks[it->first];
      if (task.done) {
        it = phase.backups.erase(it);
        continue;
      }
      const auto& busy = task.attempt_nodes;
      // A backup must land on a different node than its live siblings.
      if (std::find(busy.begin(), busy.end(), node) != busy.end()) {
        ++it;
        continue;
      }
      std::vector<net::NodeId> clean_hosts;
      for (net::NodeId h : task.split.hosts) {
        if (std::find(busy.begin(), busy.end(), h) == busy.end()) {
          clean_hosts.push_back(h);
        }
      }
      const uint8_t where = locality(clean_hosts, node, pass);
      if (where > pass || (pass == 2 && !clean_hosts.empty() &&
                           now - it->second < local_wait)) {
        ++it;
        continue;
      }
      phase.backups.erase(it);
      return take(task, true, where);
    }
  }
  return false;
}

MapReduceCluster::Assignment MapReduceCluster::schedule(net::NodeId node) {
  Assignment out;
  if (jobs_.empty()) return out;
  // Dead nodes get nothing: neither actually-down nodes nor nodes the
  // configured failure detector currently believes dead.
  if (!net_.node_up(node)) return out;
  if (cfg_.liveness != nullptr && !cfg_.liveness->is_up(node)) return out;

  // Job order (see SchedulerKind): jobs_ is submission order, and fair
  // sharing stable-sorts it by running tasks. Reused scratch: schedule()
  // runs on every tasktracker heartbeat, the simulation's hottest loop.
  std::vector<JobState*>& order = scratch_order_;
  order.clear();
  for (JobState& job : jobs_) order.push_back(&job);
  if (cfg_.scheduler == SchedulerKind::kFair) {
    auto running = [](const JobState* j) {
      return j->phase(TaskKind::kMap).running +
             j->phase(TaskKind::kReduce).running;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](const JobState* a, const JobState* b) {
                       return running(a) < running(b);
                     });
  }
  for (TaskKind kind : kTaskKinds) {
    const uint32_t limit =
        kind == TaskKind::kMap ? cfg_.map_slots : cfg_.reduce_slots;
    if (slots_[node][idx(kind)] >= limit) continue;
    for (JobState* job : order) {
      if (pop(*job, kind, node, &out)) return out;
    }
  }
  return out;
}

void MapReduceCluster::launch(const Assignment& a, net::NodeId node) {
  JobState* job = a.job;
  TaskState& task = *a.task;
  // The task may have been committed by a sibling attempt during the
  // heartbeat-response latency since schedule() popped it.
  if (task.done) {
    job->attempts.done();  // release the pop-time registration
    return;
  }
  Attempt att;
  att.job = job;
  att.task = &task;
  att.kind = a.kind;
  att.node = node;
  att.ordinal = task.attempts_started++;
  att.speculative = a.speculative;
  att.locality = a.locality;
  att.meter.start(sim_.now());
  job->live.push_back(std::move(att));
  auto it = std::prev(job->live.end());

  ++task.running;
  task.attempt_nodes.push_back(node);
  ++job->phase(a.kind).running;
  ++slots_[node][idx(a.kind)];
  m_launches_[idx(a.kind)]->inc();
  if (a.kind == TaskKind::kReduce && job->stats.first_reduce_start == 0) {
    job->stats.first_reduce_start = sim_.now();
  }
  if (a.speculative) {
    ++(a.kind == TaskKind::kMap ? job->stats.speculative_maps
                                : job->stats.speculative_reduces);
    m_spec_launches_->inc();
    if (tracer_->enabled()) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "\"job\":%u,\"task\":%u", job->job_id,
                    task.index);
      tracer_->instant("mr", "mr", node, "speculate", buf);
    }
  }
  job->stats.launches.push_back({kind_name(a.kind)[0], task.index,
                                 it->ordinal, node, sim_.now(),
                                 a.speculative});

  // The attempt group registration happened at pop time in schedule().
  auto wrapper = [](MapReduceCluster* self, JobState* j,
                    std::list<Attempt>::iterator at) -> sim::Task<void> {
    const bool failed = co_await self->maybe_fail(&*at);
    if (!failed) co_await self->attempt_body(&*at);
    self->finish_attempt(&*at, at);
    j->attempts.done();
  };
  sim_.spawn(wrapper(this, job, it));
}

void MapReduceCluster::finish_attempt(Attempt* att,
                                      std::list<Attempt>::iterator it) {
  JobState* job = att->job;
  TaskState& task = *att->task;
  BS_CHECK(task.running > 0);
  --task.running;
  auto node_it = std::find(task.attempt_nodes.begin(),
                           task.attempt_nodes.end(), att->node);
  BS_CHECK(node_it != task.attempt_nodes.end());
  task.attempt_nodes.erase(node_it);
  --job->phase(att->kind).running;
  --slots_[att->node][idx(att->kind)];
  // A loser: ran, didn't fail, didn't commit — another attempt won
  // (task.done), or its own commit rename lost the race (lost).
  if (!att->committed && !att->failed && (task.done || att->lost)) {
    ++job->stats.killed_attempts;
    m_killed_->inc();
  }
  if (tracer_->enabled()) {
    const char* outcome = att->committed ? "committed"
                          : att->failed  ? "failed"
                                         : "killed";
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "\"job\":%u,\"task\":%u,\"attempt\":%u,\"spec\":%s,"
                  "\"outcome\":\"%s\"",
                  job->job_id, task.index, att->ordinal,
                  att->speculative ? "true" : "false", outcome);
    tracer_->complete("mr", "mr", att->node, kind_name(att->kind),
                      att->meter.started_at(), buf);
  }
  job->live.erase(it);
  // Wake run_job: the shared-output fallback delays its concat until the
  // last loser reduce attempt has drained (see the reduce-phase drain wait).
  job->progress->notify_all();
}

// --- job lifecycle --------------------------------------------------------

void MapReduceCluster::register_job_metrics(JobState& job) {
  const std::string id = std::to_string(job.job_id);
  for (TaskKind kind : kTaskKinds) {
    job.phase(kind).latency = &sim_.metrics().histogram(
        "mr/task_latency_s", {{"job", id}, {"kind", kind_name(kind)}});
  }
}

sim::Task<JobStats> MapReduceCluster::run_job(JobConfig config) {
  BS_CHECK(config.app != nullptr);
  MapReduceApp& app = *config.app;

  jobs_.emplace_back(sim_);
  auto job_it = std::prev(jobs_.end());
  JobState& job = *job_it;
  job.job_id = next_job_id_++;
  job.config = std::move(config);
  job.progress = std::make_unique<sim::CondVar>(sim_);
  job.stats.job_id = job.job_id;
  job.stats.job_name = app.name();
  job.stats.fs_name = fs_.name();
  job.stats.submit_time = sim_.now();
  m_jobs_submitted_->inc();
  register_job_metrics(job);
  job.kv_lost_at_submit = m_kv_bytes_lost_->value();
  if (tracer_->enabled()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"job\":%u", job.job_id);
    tracer_->instant("mr", "mr", cfg_.jobtracker_node, "job_submit", buf);
  }

  co_await plan_job(job);
  // GC-visible pin pressure: how many input snapshots live jobs hold
  // (fault/retention.h honors them; the gauge makes the hold visible).
  m_snapshot_pins_->add(static_cast<double>(job.dataset.snapshots().size()));
  job.shuffle = make_shuffle_store(job.config.intermediate_mode, sim_, net_,
                                   fs_, job.config.intermediate_replication);
  Phase& maps = job.phase(TaskKind::kMap);
  Phase& reduces = job.phase(TaskKind::kReduce);
  if (job.config.output_mode == JobConfig::OutputMode::kSharedAppend &&
      reduces.size() > 0) {
    co_await setup_shared_output(job);
  }

  // TaskTracker loops are engine-wide: they serve every active job and
  // exit when the job list drains. Each submission respawns exactly the
  // trackers that are not currently running (some may have exited in a
  // gap between jobs while others kept going).
  for (net::NodeId node : cfg_.tasktracker_nodes) {
    if (!tracker_running_[node]) {
      tracker_running_[node] = 1;
      sim_.spawn(tasktracker_loop(node));
    }
  }
  if (cfg_.speculative_execution) {
    job.attempts.add(1);
    sim_.spawn(speculation_loop(&job));
  }

  while (!job_complete(job)) {
    co_await job.progress->wait();
  }
  // The fallback concat pass is part of producing the job's output, so it
  // runs before the clock stops — its serialization is the HDFS cost the
  // shared-append comparison exists to expose. Losing reduce attempts
  // must drain FIRST: a straggling loser whose commit rename is still in
  // flight would otherwise land it on a part path the concat has already
  // consumed (rename succeeds once the destination is gone), leaving a
  // stray part file whose bytes the shared output lacks. Waiting on
  // running reduce attempts (not the whole attempts group) keeps the measured
  // makespan honest: the attempts group also holds the speculation loop's
  // token, which only clears at its next idle tick. A reduce attempt
  // launched after this drain aborts at its first task.done checkpoint,
  // long before it creates any file.
  if (job.shared_fallback && reduces.size() > 0) {
    while (reduces.running > 0) {
      co_await job.progress->wait();
    }
    co_await concat_shared_output(job);
  }
  const double finished_at = sim_.now();
  job.stats.duration = finished_at - job.stats.submit_time;
  // v5 task-latency summary, read back from the per-job registry
  // histograms (all commits observed them; empty histogram reads 0).
  job.stats.map_latency_p50 = maps.latency->percentile(0.50);
  job.stats.map_latency_p99 = maps.latency->percentile(0.99);
  job.stats.reduce_latency_p50 = reduces.latency->percentile(0.50);
  job.stats.reduce_latency_p99 = reduces.latency->percentile(0.99);
  // v6 durability trail: what the cluster's write sites lost to power
  // losses while this job ran.
  job.stats.bytes_lost_on_power_loss = static_cast<uint64_t>(
      m_kv_bytes_lost_->value() - job.kv_lost_at_submit);
  if (maps.size() > 0) {
    job.stats.map_phase_s = maps.last_commit - job.stats.submit_time;
  }
  if (reduces.size() > 0) {
    job.stats.reduce_phase_s =
        reduces.last_commit - job.stats.first_reduce_start;
  }
  // Let losing attempts reach their next cancellation checkpoint and the
  // speculation loop observe completion before the state is torn down.
  co_await job.attempts.wait();
  // v4 accounting: how far the live inputs ran ahead of the pins while the
  // job ran against them (re-stat after the clock stopped — bookkeeping,
  // not part of the measured makespan).
  if (!job.dataset.snapshots().empty()) {
    job.stats.bytes_ingested_during_job =
        co_await job.dataset.bytes_ingested_since_pin(cfg_.jobtracker_node);
  }
  co_await cleanup_attempt_dir(job);
  // Intermediate data is job-lifetime-only: sweep whatever the store left
  // (kDfs _intermediate/ files — winners', losers', and crashed attempts').
  co_await job.shuffle->cleanup(job.config.output_dir, cfg_.jobtracker_node);
  // The job is drained: drop its snapshot pins so the retention service
  // may reclaim the version history it was holding.
  m_snapshot_pins_->add(
      -static_cast<double>(job.dataset.snapshots().size()));
  job.dataset.release();
  m_jobs_completed_->inc();
  if (tracer_->enabled()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"job\":%u,\"duration\":%.6f",
                  job.job_id, job.stats.duration);
    tracer_->instant("mr", "mr", cfg_.jobtracker_node, "job_complete", buf);
  }

  JobStats out = std::move(job.stats);
  jobs_.erase(job_it);
  co_return out;
}

sim::Task<void> MapReduceCluster::tasktracker_loop(net::NodeId node) {
  // Stagger heartbeats so 270 trackers don't poll in lockstep.
  const double phase =
      cfg_.heartbeat_s * static_cast<double>(node % 37) / 37.0;
  co_await sim_.delay(phase);

  while (true) {
    if (jobs_.empty()) break;
    // Heartbeat round trip to the JobTracker.
    co_await net_.control(node, cfg_.jobtracker_node);
    Assignment a = schedule(node);
    co_await net_.control(cfg_.jobtracker_node, node);
    if (a.valid()) launch(a, node);
    co_await sim_.delay(cfg_.heartbeat_s);
  }
  BS_CHECK(tracker_running_[node]);
  tracker_running_[node] = 0;
}

// --- attempts -------------------------------------------------------------

sim::Task<bool> MapReduceCluster::maybe_fail(Attempt* att) {
  if (cfg_.task_failure_prob <= 0 || !rng_.chance(cfg_.task_failure_prob)) {
    co_return false;
  }
  // The attempt dies partway through: burn startup plus a random slice of
  // the heartbeat-scale runtime, then hand the task back to the scheduler.
  co_await sim_.delay((cfg_.task_startup_s +
                       rng_.uniform() * 4 * cfg_.heartbeat_s) /
                      cpu_scale(att->node));
  JobState* job = att->job;
  // File-producing attempts (reduces, generator maps) die mid-write and
  // leave a partial temp file under _attempts/ — real Hadoop leaves these
  // too. Nothing ever references the file again; the job-completion
  // cleanup sweep is what keeps them from leaking forever.
  const bool writes_file = att->kind == TaskKind::kReduce ||
                           job->config.app->generated_bytes_per_map() > 0;
  if (writes_file) {
    auto client = fs_.make_client(att->node);
    auto writer = co_await client->create(temp_path(*job, *att));
    if (writer != nullptr) {
      co_await writer->write(DataSpec::pattern(0xdead, 0, 256));
      co_await writer->close();
    }
  }
  // Shared failure bookkeeping: counters, backup-rescue reset, and the
  // last-live-attempt requeue.
  abort_attempt_io(att);
  co_return true;
}

void MapReduceCluster::abort_attempt_io(Attempt* att) {
  att->failed = true;
  JobState* job = att->job;
  TaskState& task = *att->task;
  m_task_failures_->inc();
  ++(att->kind == TaskKind::kMap ? job->stats.map_failures
                                 : job->stats.reduce_failures);
  // A dead backup must not permanently disable rescue: a later sweep may
  // queue a fresh backup.
  if (att->speculative) task.speculated = false;
  // Re-execute only when this was the task's last live attempt and nothing
  // committed — a running sibling still carries the task. The duplicate
  // guard covers a task already requeued by a lost-output declaration
  // (report_fetch_failure) while this loser was still draining.
  if (!task.done && task.running == 1) {
    auto& pending = job->phase(att->kind).pending;
    if (std::find(pending.begin(), pending.end(), task.index) ==
        pending.end()) {
      pending.push_back(task.index);
    }
  }
}

bool MapReduceCluster::stopped(Attempt* att) {
  if (att->task->done) return true;
  if (net_.node_up(att->node)) return false;
  abort_attempt_io(att);
  return true;
}

void MapReduceCluster::report_fetch_failure(JobState& job,
                                            uint32_t map_index) {
  // A complete job accepts no more notifications: run_job may already be
  // past its completion wait, and revoking a commit now would requeue a
  // map into a job that is tearing down. (Unreachable via the reducer
  // call site's !task.done guard; kept as the tracker-side invariant.)
  if (job_complete(job)) return;
  ++job.stats.fetch_failures;
  m_fetch_failures_->inc();
  // Stale notification: the output is already declared lost (the map is
  // pending or re-running) — the reducer just retries against the next
  // commit.
  if (!job.map_committed[map_index]) return;
  if (++job.fetch_fail_counts[map_index] < cfg_.fetch_failure_threshold) {
    return;
  }
  // Hadoop-style declaration: enough reducers reported this map's output
  // unfetchable — the *completed* map's intermediate data is gone (with
  // kLocalDisk intermediates, its tasktracker died). Revoke the commit and
  // re-schedule the map from scratch; reducers that already copied the
  // partition keep their data, the rest wait for the re-commit.
  job.fetch_fail_counts[map_index] = 0;
  job.map_committed[map_index] = 0;
  Phase& maps = job.phase(TaskKind::kMap);
  TaskState& task = maps.tasks[map_index];
  task.done = false;
  task.speculated = false;  // the straggler sweep may help the re-run too
  // Purge any stale backup-queue entry: with task.done cleared it would
  // re-validate and launch a duplicate first attempt alongside the
  // pending-queue requeue below.
  for (auto it = maps.backups.begin(); it != maps.backups.end();) {
    it = it->first == map_index ? maps.backups.erase(it) : std::next(it);
  }
  BS_CHECK(maps.done > 0);
  --maps.done;
  ++job.stats.maps_reexecuted;
  m_maps_reexecuted_->inc();
  if (tracer_->enabled()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"job\":%u,\"map\":%u", job.job_id,
                  map_index);
    tracer_->instant("mr", "mr", cfg_.jobtracker_node, "map_output_lost",
                     buf);
  }
  // Revoke the lost commit's locality attribution; the re-execution's own
  // commit re-attributes (keeps data_local+rack+remote == maps exact).
  switch (task.committed_locality) {
    case 0: --job.stats.data_local_maps; break;
    case 1: --job.stats.rack_local_maps; break;
    default: --job.stats.remote_maps; break;
  }
  if (std::find(maps.pending.begin(), maps.pending.end(), map_index) ==
      maps.pending.end()) {
    maps.pending.push_back(map_index);
  }
  job.progress->notify_all();
}

sim::Task<void> MapReduceCluster::attempt_body(Attempt* att) {
  if (att->kind == TaskKind::kReduce) {
    co_await run_reduce_attempt(att);
  } else if (att->job->config.app->generated_bytes_per_map() > 0) {
    co_await run_generator_attempt(att);
  } else {
    co_await run_map_attempt(att);
  }
}

void MapReduceCluster::finish_commit(Attempt* att, uint64_t output_bytes) {
  JobState* job = att->job;
  TaskState& task = *att->task;
  Phase& phase = job->phase(att->kind);
  task.done = true;
  att->committed = true;
  ++phase.done;
  phase.last_commit = sim_.now();
  const double elapsed = att->meter.elapsed(sim_.now());
  phase.commit_durations.push_back(elapsed);
  phase.latency->observe(elapsed);
  record_node_speed(phase, att->node, elapsed);
  job->stats.output_bytes += output_bytes;
  if (att->kind == TaskKind::kMap) {
    task.committed_locality = att->locality;
    switch (att->locality) {
      case 0: ++job->stats.data_local_maps; break;
      case 1: ++job->stats.rack_local_maps; break;
      default: ++job->stats.remote_maps; break;
    }
  }
  if (att->speculative) ++job->stats.speculative_wins;
  job->progress->notify_all();
}

sim::Task<bool> MapReduceCluster::commit_by_rename(
    Attempt* att, fs::FsClient& client, fs::FsWriter& writer,
    const std::string& tmp, const std::string& final_path) {
  co_await writer.close();
  if (att->task->done) {
    co_await client.remove(tmp);
    co_return false;
  }
  co_await net_.control(att->node, cfg_.jobtracker_node);
  // The rename is the atomic commit: exactly one attempt's temp file can
  // move to the final name.
  const bool renamed = co_await client.rename(tmp, final_path);
  if (!renamed || att->task->done) {
    // A failed rename IS losing the race, even if the winner has not
    // resumed to set task.done yet.
    att->lost = true;
    co_await client.remove(tmp);
    co_return false;
  }
  co_return true;
}

sim::Task<void> MapReduceCluster::run_map_attempt(Attempt* att) {
  JobState* job = att->job;
  TaskState& task = *att->task;
  const InputSplit& split = task.split;
  co_await sim_.delay(cfg_.task_startup_s / cpu_scale(att->node));
  if (stopped(att)) co_return;

  auto client = fs_.make_client(att->node);
  auto reader = co_await job->dataset.open_split(*client, split);
  // Every attempt of this task — first, retried after a failure, or
  // speculative — must observe the same pinned extent, or two attempts of
  // one task could emit different records when a writer appends mid-job.
  // Versioned pins guarantee it outright (a violation is an engine bug).
  // The length-pinning fallback (version == 0) can only be CHECKED at
  // open: the live file may have been removed (a rewrite window) or
  // re-written shorter than the pin. Such degradation fails the ATTEMPT —
  // a rewrite in flight may have restored the file by the retry — but a
  // PERSISTENT violation aborts loudly after a few rounds rather than
  // requeueing forever. A rewrite landing AFTER this check, mid-read, is
  // beyond the fallback's power to detect: the reader serves the new live
  // bytes (visibly stale), or the storage layer's own integrity checks
  // abort the run (FsReader::read has no failure channel to strike the
  // attempt instead). That weakness is exactly the §V isolation gap — it
  // is why ext7's HDFS workload must fence jobs against ingest, and why
  // BSFS's versioned pins exist.
  const fs::Snapshot& snap = job->dataset.snapshot_of(split);
  if (reader == nullptr || reader->size() != snap.size) {
    BS_CHECK_MSG(snap.version == 0,
                 "pinned snapshot unreadable under a versioned pin");
    constexpr uint32_t kMaxInputFailures = 4;
    BS_CHECK_MSG(++task.input_failures < kMaxInputFailures,
                 "map input permanently unreadable under its length pin "
                 "(live file removed or shrunk below the pinned size)");
    abort_attempt_io(att);
    co_return;
  }
  // A good open clears the strikes: only CONSECUTIVE degraded opens count
  // as persistent (a long job may survive many transient rewrite windows).
  task.input_failures = 0;
  BS_CHECK(split.offset + split.length <= reader->size());

  MapReduceApp& app = *job->config.app;
  const uint32_t reduces = job->phase(TaskKind::kReduce).size();
  const uint32_t reducers = std::max<uint32_t>(1, reduces);
  MapOutput out;
  out.node = att->node;
  out.attempt = att->ordinal;
  out.partition_bytes.assign(reducers, 0);

  // Record mode runs real TextInputFormat semantics — a record belongs to
  // the split containing its first byte; the reader skips a partial first
  // line (the previous split owns it) and runs past `end` to finish its
  // last record. Cost mode reads the same chunks up to `end` and charges
  // their compute without parsing. Either way compute is charged per
  // chunk, so progress is observable and a backup's commit cancels
  // promptly.
  const bool records = !job->config.cost_model;
  const uint64_t end = split.offset + split.length;
  const uint64_t limit = records ? reader->size() : end;
  if (records) out.partitions.resize(reducers);
  PartitionEmitter emitter(reducers, &out.partitions, &out.partition_bytes);
  std::string buf;
  uint64_t buf_base = split.offset;
  uint64_t pos = split.offset;
  bool skip_first = split.offset > 0;
  bool done = false;
  while (!done && pos < limit) {
    if (stopped(att)) co_return;
    const uint64_t n =
        std::min<uint64_t>(job->config.record_read_size, limit - pos);
    DataSpec chunk = co_await reader->read(pos, n);
    BS_CHECK(chunk.size() == n);
    pos += n;
    // The CPU factor is re-sampled per chunk: a slow-node injection that
    // fires mid-attempt must throttle the remaining compute.
    co_await sim_.delay(static_cast<double>(n) / app.map_rate_bps() /
                        cpu_scale(att->node));
    att->meter.update(static_cast<double>(pos - split.offset) /
                      static_cast<double>(std::max<uint64_t>(1, split.length)));
    if (!records) continue;
    Bytes bytes = chunk.materialize();
    buf.append(bytes.begin(), bytes.end());
    // Emit complete lines from the buffer. Boundary rule (Hadoop's
    // LineRecordReader): this split emits every line STARTING at or
    // before `end` — including one starting exactly AT `end`, which the
    // next split's skip_first unconditionally discards — and stops once
    // a line starts strictly past `end`. (With "at/after end" on both
    // sides, a line beginning exactly on a split boundary was dropped by
    // both splits.)
    size_t line_start = 0;
    for (size_t i = 0; i < buf.size(); ++i) {
      if (buf[i] != '\n') continue;
      const uint64_t line_off = buf_base + line_start;
      if (skip_first) {
        skip_first = false;
      } else if (line_off <= end) {
        app.map(line_off, buf.substr(line_start, i - line_start), emitter);
      } else {
        done = true;  // first line starting past `end`: not ours
        break;
      }
      line_start = i + 1;
      if (buf_base + line_start > end) {
        // The next line starts strictly past the split end: stop.
        done = true;
        break;
      }
    }
    buf.erase(0, line_start);
    buf_base += line_start;
  }
  if (!records) {
    const double intermediate =
        static_cast<double>(split.length) * app.map_selectivity();
    for (uint32_t r = 0; r < reducers; ++r) {
      out.partition_bytes[r] = static_cast<uint64_t>(intermediate / reducers);
    }
  } else if (!done && !buf.empty() && !skip_first && buf_base <= end) {
    app.map(buf_base, buf, emitter);  // final unterminated line
  }

  // Materialize the intermediate output through the job's shuffle store
  // (local-disk spill or replicated DFS files, per intermediate_mode).
  if (reduces > 0) {
    uint64_t written = 0;
    const bool stored = co_await job->shuffle->write_map_output(
        job->config.output_dir, task.index, &out, &written);
    job->stats.intermediate_bytes_written += written;
    if (!stored) {  // the node lost power mid-materialization
      abort_attempt_io(att);
      co_return;
    }
  }
  if (stopped(att)) co_return;

  // Report completion, then commit (exactly one attempt installs output).
  co_await net_.control(att->node, cfg_.jobtracker_node);
  if (task.done) co_return;  // lost the race at the last instant
  job->map_outputs[task.index] = std::move(out);
  job->map_committed[task.index] = 1;
  finish_commit(att, 0);
}

sim::Task<void> MapReduceCluster::run_generator_attempt(Attempt* att) {
  JobState* job = att->job;
  TaskState& task = *att->task;
  co_await sim_.delay(cfg_.task_startup_s / cpu_scale(att->node));
  if (task.done) co_return;

  auto client = fs_.make_client(att->node);
  auto& app = *job->config.app;
  const uint64_t bytes = app.generated_bytes_per_map();
  // Attempt-private temp output; the winner renames it into place.
  const std::string tmp = temp_path(*job, *att);
  const std::string final_path = fs::join_path(
      job->config.output_dir, task_file_name('m', task.index));
  auto writer = co_await client->create(tmp);
  BS_CHECK_MSG(writer != nullptr, "cannot create generator output");

  // A sibling's commit (task.done) stops the writes but not the attempt:
  // it still reaches commit_by_rename, which removes its temp file.
  if (job->config.cost_model) {
    // Generate and write chunk by chunk; generation compute and FS writes
    // alternate as in the real RandomTextWriter loop.
    const uint64_t chunk = std::min<uint64_t>(bytes, fs_.block_size());
    uint64_t done = 0;
    const uint64_t seed = fnv1a64_u64(task.index, 0xb10b);
    while (done < bytes && !task.done) {
      if (!net_.node_up(att->node)) {  // killed by a node crash mid-write;
        abort_attempt_io(att);         // the partial temp file is swept at
        co_return;                     // job completion
      }
      const uint64_t n = std::min(chunk, bytes - done);
      // Re-sampled per chunk so a mid-attempt slow-node injection bites.
      co_await sim_.delay(static_cast<double>(n) / app.map_rate_bps() /
                          cpu_scale(att->node));
      co_await writer->write(DataSpec::pattern(seed, done, n));
      done += n;
      att->meter.update(static_cast<double>(done) /
                        static_cast<double>(bytes));
    }
  } else {
    Rng rng(fnv1a64_u64(task.index, 0xb10b));
    const std::string text = random_text(rng, bytes);
    co_await sim_.delay(static_cast<double>(text.size()) / app.map_rate_bps() /
                        cpu_scale(att->node));
    if (!task.done) {
      co_await writer->write(DataSpec::from_string(text));
      att->meter.update(1.0);
    }
  }
  if (!net_.node_up(att->node)) {
    abort_attempt_io(att);
    co_return;
  }
  const uint64_t written = writer->bytes_written();
  if (co_await commit_by_rename(att, *client, *writer, tmp, final_path)) {
    finish_commit(att, written);
  }
}

sim::Task<void> MapReduceCluster::run_reduce_attempt(Attempt* att) {
  JobState* job = att->job;
  TaskState& task = *att->task;
  const uint32_t reduce_index = task.index;
  co_await sim_.delay(cfg_.task_startup_s / cpu_scale(att->node));
  MapReduceApp& app = *job->config.app;

  // --- shuffle: fetch this reducer's partition of every map output as
  // maps commit (slowstart overlap: the copy phase runs while the map
  // phase is still producing), through the job's shuffle store. A failed
  // fetch is reported to the JobTracker — Hadoop's fetch-failure
  // notification — and retried after a backoff; past the threshold the
  // tracker declares the map output lost and re-schedules the map, whose
  // re-commit wakes this loop again (see report_fetch_failure). ---
  const uint32_t maps_total = job->phase(TaskKind::kMap).size();
  std::vector<char> fetched(maps_total, 0);
  std::vector<double> retry_after(maps_total, 0);
  uint32_t fetched_count = 0;
  uint64_t total = 0;
  while (fetched_count < maps_total) {
    if (stopped(att)) co_return;
    const double now = sim_.now();
    std::vector<uint32_t> batch;
    for (uint32_t i = 0; i < maps_total; ++i) {
      if (job->map_committed[i] && !fetched[i] && now >= retry_after[i]) {
        batch.push_back(i);
      }
    }
    if (batch.empty()) {
      // Nothing fetchable right now: wait for the next commit, or for the
      // earliest backoff to expire when failed maps are all that is left.
      double next_retry = std::numeric_limits<double>::infinity();
      for (uint32_t i = 0; i < maps_total; ++i) {
        if (job->map_committed[i] && !fetched[i]) {
          next_retry = std::min(next_retry, retry_after[i]);
        }
      }
      if (next_retry == std::numeric_limits<double>::infinity()) {
        co_await job->progress->wait();
      } else {
        co_await sim_.delay(std::max(1e-9, next_retry - now));
      }
      continue;
    }
    std::vector<uint32_t> moving;  // batch entries with bytes to move
    std::vector<sim::Task<bool>> fetches;
    for (uint32_t i : batch) {
      const MapOutput& m = job->map_outputs[i];
      if (m.partition_bytes[reduce_index] == 0) {
        fetched[i] = 1;  // nothing to move, nothing to lose
        ++fetched_count;
        continue;
      }
      moving.push_back(i);
      fetches.push_back(job->shuffle->fetch_partition(
          job->config.output_dir, i, m, reduce_index, att->node));
    }
    if (!fetches.empty()) {
      const std::vector<bool> ok = co_await sim::when_all_limited(
          sim_, std::move(fetches), cfg_.shuffle_parallel_copies);
      std::vector<uint32_t> failed;
      for (size_t k = 0; k < moving.size(); ++k) {
        const uint32_t i = moving[k];
        const uint64_t size = job->map_outputs[i].partition_bytes[reduce_index];
        if (ok[k]) {
          fetched[i] = 1;
          ++fetched_count;
          total += size;
          job->stats.intermediate_bytes_read += size;
        } else {
          retry_after[i] = sim_.now() + cfg_.fetch_retry_s;
          failed.push_back(i);
        }
      }
      // Report failures only from a live, still-racing attempt — a
      // reducer whose own node died sees every fetch fail and must not
      // frame the mappers, and a loser whose sibling already committed
      // has nothing left to report (a late revocation could requeue a map
      // into a job that is tearing down).
      if (!failed.empty() && net_.node_up(att->node) && !task.done) {
        co_await net_.control(att->node, cfg_.jobtracker_node);
        for (uint32_t i : failed) report_fetch_failure(*job, i);
        co_await net_.control(cfg_.jobtracker_node, att->node);
      }
    }
    att->meter.update(0.75 * static_cast<double>(fetched_count) /
                      static_cast<double>(std::max<uint32_t>(1, maps_total)));
  }
  if (task.done) co_return;

  // --- merge + reduce compute (sliced so progress is observable and a
  // backup's commit cancels promptly) ---
  if (total > 0) {
    const double compute_s = static_cast<double>(total) / app.reduce_rate_bps();
    constexpr int kSlices = 8;
    for (int s = 0; s < kSlices; ++s) {
      if (stopped(att)) co_return;
      // CPU factor re-sampled per slice (mid-attempt slow-node injection).
      co_await sim_.delay(compute_s / kSlices / cpu_scale(att->node));
      att->meter.update(0.75 + 0.2 * static_cast<double>(s + 1) / kSlices);
    }
  }

  std::string output_text;
  uint64_t output_bytes = 0;
  std::vector<std::pair<std::string, std::string>> reduced;
  if (!job->config.cost_model) {
    // Merge all partitions for this reducer, grouped and sorted by key.
    std::map<std::string, std::vector<std::string>> groups;
    for (const MapOutput& m : job->map_outputs) {
      if (m.partitions.empty()) continue;
      for (const auto& [k, v] : m.partitions[reduce_index]) {
        groups[k].push_back(v);
      }
    }
    VectorEmitter emitter(&reduced);
    for (const auto& [key, values] : groups) {
      app.reduce(key, values, emitter);
    }
    for (const auto& [k, v] : reduced) {
      output_text += k;
      output_text += '\t';
      output_text += v;
      output_text += '\n';
    }
    output_bytes = output_text.size();
  } else {
    output_bytes =
        static_cast<uint64_t>(static_cast<double>(total) * app.output_ratio());
  }
  if (stopped(att)) co_return;  // a dead node commits nothing

  // --- commit. Part files: write an attempt-private temp file and rename
  // it into place (first finisher wins; losers clean up). Shared append
  // (OutputMode::kSharedAppend, live path): claim the commit at the
  // JobTracker BEFORE touching the file — an append is permanent the
  // moment it lands, so the arbitration that rename performs implicitly
  // must happen up front; a losing sibling that appended anyway would
  // leave a duplicate block in the output. ---
  auto client = fs_.make_client(att->node);
  std::unique_ptr<fs::FsWriter> writer;
  std::string tmp;
  if (job->shared_output) {
    co_await net_.control(att->node, cfg_.jobtracker_node);
    if (task.done || task.commit_claimed) {
      att->lost = true;
      co_return;
    }
    task.commit_claimed = true;
    writer = co_await client->append_shared(shared_output_path(*job));
  } else {
    tmp = temp_path(*job, *att);
    writer = co_await client->create(tmp);
  }
  BS_CHECK_MSG(writer != nullptr, "cannot open reduce output");
  // Whole-block appends (§V): pad up to the storage block size so
  // concurrent appenders keep the shared file block-aligned.
  const uint64_t block = fs_.block_size();
  const uint64_t pad =
      job->shared_output ? (block - output_bytes % block) % block : 0;
  if (output_bytes > 0) {
    if (!job->config.cost_model) {
      output_text.append(pad, '\n');
      co_await writer->write(DataSpec::from_string(output_text));
    } else {
      const uint64_t seed =
          fnv1a64_u64(reduce_index, job->shared_output ? 0x5ead : 0);
      co_await writer->write(DataSpec::pattern(seed, 0, output_bytes + pad));
    }
  }
  if (job->shared_output) {
    co_await writer->close();
    ++job->stats.shared_appends;
    job->stats.shared_append_bytes += output_bytes + pad;
  } else {
    const std::string final_path = fs::join_path(
        job->config.output_dir, task_file_name('r', reduce_index));
    if (!co_await commit_by_rename(att, *client, *writer, tmp, final_path)) {
      co_return;
    }
  }
  job->stats.shuffle_bytes += total;
  for (auto& kv : reduced) {
    if (job->stats.results.size() < 10000) {
      job->stats.results.push_back(std::move(kv));
    }
  }
  finish_commit(att, output_bytes);
}

}  // namespace bs::mr
