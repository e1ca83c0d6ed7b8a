// The MapReduce engine: one JobTracker + TaskTrackers over an abstract
// FileSystem (paper §II.A: "a single master jobtracker and multiple slave
// tasktrackers, one per node").
//
// A multi-job engine. Jobs are submitted concurrently (run_job is a
// coroutine; spawn several); every TaskTracker polls on its heartbeat and
// the configured SchedulerKind decides which job's task takes the offered
// slot — locality-aware selection (node-local, then rack-local, then
// remote) stays per-job. Maps and reduces share one task lifecycle (queue,
// launch, checkpoints, commit, speculation); only the attempt body and the
// commit payload differ by kind.
//
// Task lifecycle per attempt:
//   1. Map attempts read their split through the job's pinned Dataset
//      (mr/dataset.h): inputs are resolved to fs::Snapshot pins exactly
//      once at submission, so splits, locality, and every attempt —
//      retried and speculative included — consume one consistent view no
//      matter what writers do to the live files meanwhile. Reads are
//      record-sized (the FS's caching/prefetch behavior is what the
//      paper's §IV.C comparison exercises); attempts run map() or charge
//      the cost model per chunk, and materialize partitioned intermediate
//      output through the job's ShuffleStore (mr/shuffle.h): mapper-local
//      disk (classic Hadoop) or replicated DFS files, per
//      JobConfig::intermediate_mode.
//   2. Reduce tasks may start once `reduce_slowstart` of the job's maps
//      have committed (Hadoop's mapred.reduce.slowstart analog); their
//      shuffle fetches each map's partition as it becomes available, so
//      the copy phase overlaps the map phase. A failed fetch (the mapper
//      node lost power — with kLocalDisk intermediates its committed map
//      outputs died with it) is reported to the JobTracker and retried
//      after a backoff; once a map accumulates
//      MrConfig::fetch_failure_threshold reports, the tracker declares the
//      output lost and re-schedules the *completed* map. The machinery is
//      armed in both intermediate modes; with kDfs intermediates fetches
//      fail over across DFS replicas inside the read path, so it only
//      fires in pathological cases (a missing intermediate file).
//   3. Speculative execution: every attempt samples a ProgressMeter at
//      chunk boundaries; a periodic JobTracker sweep compares progress
//      rates (and elapsed time against committed-attempt baselines) and
//      launches one backup attempt per straggling task on a different
//      node. First finisher wins: map commits install the output registry
//      entry exactly once, and file-producing attempts (reduces,
//      generator maps) write to attempt-private temp paths and commit by
//      an atomic FS rename — losers observe the commit at their next
//      checkpoint, abort, and clean up, so no byte is double-counted in
//      JobStats. Under JobConfig::OutputMode::kSharedAppend reduces
//      instead append to one shared job file; because an append cannot be
//      un-landed, the winner is arbitrated by a commit claim at the
//      JobTracker *before* the append, and losers never emit a block.
//
// Failed task attempts (failure injection, MrConfig::task_failure_prob)
// are re-executed by the JobTracker, as §II.A describes; attempts whose
// node loses power abort at their next checkpoint and are likewise
// re-executed. Tasks are never scheduled on nodes the configured liveness
// view believes dead. All decisions — scheduling, speculation, failure
// dice, fetch-failure re-execution — are driven by the deterministic event
// loop and seeded Rng, so identical seeds reproduce identical JobStats
// byte-for-byte (see debug_string in mr/jobstats.h).
//
// Remaining simplifications vs. Hadoop: attempts fail before producing
// partial output, one combined merge pass, no JVM/slot reuse modeling.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "fs/filesystem.h"
#include "mr/app.h"
#include "mr/dataset.h"
#include "mr/jobstats.h"
#include "mr/shuffle.h"
#include "net/liveness.h"
#include "net/network.h"
#include "sim/progress.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace bs::mr {

// Which job may claim the slot a heartbeating tasktracker just offered
// (locality-aware task selection within the job stays per job):
//   * kFifo — strict submission order: the oldest job takes every slot it
//             can use; later jobs get the leftovers.
//   * kFair — Hadoop fair sharing: the job with the fewest running tasks
//             goes first, so N concurrent jobs converge to 1/N of the
//             cluster each and a small job finishes without waiting for a
//             big one's map phase to drain.
// Ties break by submission order, which keeps every decision
// deterministic for a fixed seed.
enum class SchedulerKind { kFifo, kFair };

struct MrConfig {
  // TaskTracker nodes; empty = every cluster node.
  std::vector<net::NodeId> tasktracker_nodes;
  net::NodeId jobtracker_node = 0;
  uint32_t map_slots = 2;     // per tasktracker (Hadoop 0.20 defaults)
  uint32_t reduce_slots = 2;
  double heartbeat_s = 0.3;
  double task_startup_s = 0.2;  // JVM reuse era: modest per-task startup
  // Concurrent shuffle fetches per reduce (mapred.reduce.parallel.copies).
  uint32_t shuffle_parallel_copies = 5;
  // Failure injection: each task attempt fails with this probability after
  // doing a random fraction of its work; the JobTracker re-executes failed
  // tasks (paper §II.A: "monitoring them and re-executing the failed
  // ones"). Deterministic: the dice come from a fixed-seed engine Rng.
  double task_failure_prob = 0;
  // Which job gets the next free slot when several run concurrently.
  SchedulerKind scheduler = SchedulerKind::kFifo;
  // Fraction of a job's maps that must commit before its reduces may be
  // scheduled (mapred.reduce.slowstart.completed.maps). 1.0 = the classic
  // serial phases; lower values overlap the shuffle with the map phase.
  double reduce_slowstart = 1.0;
  // Speculative execution: launch one backup attempt for straggling tasks
  // (the straggler tests are in mr/speculation.cpp).
  bool speculative_execution = false;
  // Attempts younger than this are never speculated (startup noise).
  double speculative_min_runtime_s = 0.5;
  // Period of the JobTracker's straggler sweep.
  double speculation_interval_s = 0.5;
  // When set, tasks are never assigned to nodes this view believes dead
  // (wire the fault::FailureDetector here).
  const net::LivenessView* liveness = nullptr;
  // Fetch-failure notifications a committed map may accumulate before the
  // JobTracker declares its intermediate output lost and re-schedules it
  // (Hadoop's mapred.reduce.copy failure threshold, 3 notifications).
  uint32_t fetch_failure_threshold = 3;
  // Reducer-side backoff before re-fetching a map output that just failed.
  double fetch_retry_s = 0.4;
};

struct JobConfig {
  // Where reduce output lands (paper §V):
  //  * kPartFiles — every reduce commits its own part-r file by atomic
  //    rename (classic Hadoop);
  //  * kSharedAppend — every reduce APPENDS its output to ONE shared job
  //    file. On BSFS these are true concurrent whole-block appends
  //    (FsClient::append_shared; BlobSeer serializes only the offset
  //    assignment). On back-ends without append support (HDFS, §II.C)
  //    the engine falls back to per-reduce parts plus a serialized
  //    concat pass after the last reduce commit, so both systems run the
  //    identical workload and the makespan gap is the storage layer's.
  enum class OutputMode { kPartFiles, kSharedAppend };

  std::vector<std::string> input_files;
  std::string output_dir;
  MapReduceApp* app = nullptr;
  uint32_t num_reducers = 4;
  OutputMode output_mode = OutputMode::kPartFiles;
  // Where this job's intermediate (map-output) data lives — the paper's
  // pluggable choice (mr/shuffle.h): mapper-local disk, lost on a crash
  // and repaid by map re-execution cascades, or DFS files that survive
  // crashes at the price of replicated writes inside the map phase.
  IntermediateMode intermediate_mode = IntermediateMode::kLocalDisk;
  // kDfs only: replication degree of the intermediate files (0 = the
  // storage back-end's configured default).
  uint32_t intermediate_replication = 0;
  // Cost mode (paper-scale benches) vs record mode (tests/examples).
  bool cost_model = false;
  // Record-sized FS reads: "MapReduce applications usually process data in
  // small records (4KB, whereas Hadoop is concerned)" (paper §III.B).
  uint64_t record_read_size = 4096;
  // For generator apps: number of map tasks (they have no input splits).
  uint32_t num_generator_maps = 0;
};

class MapReduceCluster {
 public:
  MapReduceCluster(sim::Simulator& sim, net::Network& net,
                   fs::FileSystem& filesystem, MrConfig cfg = {});

  // Submits a job and runs it to completion (a coroutine; spawn or
  // co_await it). Several jobs may be in flight at once — the configured
  // scheduler arbitrates between them.
  //
  // Lifetime: tasktracker loops are engine-wide and outlive individual
  // jobs — they exit up to one heartbeat after the job list drains. The
  // engine must therefore stay alive until the simulator has drained
  // (sim.run() returning), not merely until run_job completes.
  sim::Task<JobStats> run_job(JobConfig config);

  const MrConfig& config() const { return cfg_; }

 private:
  enum class TaskKind { kMap, kReduce };
  static constexpr TaskKind kTaskKinds[] = {TaskKind::kMap, TaskKind::kReduce};
  static size_t idx(TaskKind kind) { return static_cast<size_t>(kind); }
  // "map" / "reduce": metric labels and trace names; the first letter tags
  // launches, temp paths and output files.
  static const char* kind_name(TaskKind kind) {
    return kind == TaskKind::kMap ? "map" : "reduce";
  }

  struct JobState;

  // One logical task (map i or reduce r); attempts come and go.
  struct TaskState {
    uint32_t index = 0;
    InputSplit split;  // maps only — cut from the job's pinned Dataset
    bool done = false;        // an attempt committed
    // Shared-append commit arbitration: an append is permanent the moment
    // it lands, so (unlike rename) the winner must be decided BEFORE any
    // byte reaches the shared file. The first attempt to claim at the
    // JobTracker appends; siblings that arrive later abort without
    // emitting a duplicate block.
    bool commit_claimed = false;
    bool speculated = false;  // a backup was queued (at most one)
    // Length-pin degradation strikes (maps only): attempts that found the
    // live file missing/shrunk below the pin; bounded so a permanently
    // unreadable input fails loudly instead of requeueing forever.
    uint32_t input_failures = 0;
    // Locality bucket of the current committed attempt (maps): revoked if
    // the output is later declared lost, re-attributed by the re-commit.
    uint8_t committed_locality = 2;
    // The committed attempt's intermediate output (maps; while `done`,
    // reducers fetch it), and the fetch-failure notifications against it
    // since its commit: at MrConfig::fetch_failure_threshold the output is
    // declared lost.
    MapOutput output;
    uint32_t fetch_failures = 0;
    uint32_t attempts_started = 0;
    std::vector<net::NodeId> attempt_nodes;  // nodes with a live attempt
  };

  struct Attempt {
    JobState* job = nullptr;
    TaskState* task = nullptr;
    TaskKind kind = TaskKind::kMap;
    net::NodeId node = 0;
    uint32_t ordinal = 0;      // attempt number within the task
    bool speculative = false;
    uint8_t locality = 2;      // 0 node-local, 1 rack-local, 2 remote
    bool committed = false;
    bool failed = false;
    bool lost = false;  // commit rename lost the race to a sibling
    sim::ProgressMeter meter;
  };

  // One task kind's share of a job: its tasks and their scheduling queues,
  // counters and straggler baselines.
  struct Phase {
    std::vector<TaskState> tasks;
    std::deque<uint32_t> pending;  // task indices awaiting a slot
    // Straggler backups awaiting a slot: (task index, time queued). Map
    // backups prefer nodes local to a replica that is NOT hosting a
    // running attempt — re-reading through the straggler's node would
    // re-import the very slowness the backup exists to escape — and only
    // settle for an arbitrary node after a delay-scheduling wait.
    std::deque<std::pair<uint32_t, double>> backups;
    uint32_t done = 0;     // committed tasks
    uint32_t running = 0;  // live attempts
    double last_commit = 0;
    // Committed-attempt durations, the straggler-detection baselines.
    std::vector<double> commit_durations;
    // Current lag threshold (upper-quartile attempt lifetime, set by the
    // speculation sweep); 0 until enough commits exist.
    double lag_baseline = 0;
    // Task-latency histogram (mr/task_latency_s{job=,kind=}), resolved at
    // submission; the JobStats percentile summary is read from it when the
    // job completes.
    obs::Histogram* latency = nullptr;
    uint32_t size() const { return static_cast<uint32_t>(tasks.size()); }
  };

  struct JobState {
    explicit JobState(sim::Simulator& sim) : attempts(sim) {}
    uint32_t job_id = 0;
    JobConfig config;
    // The job's pinned input snapshots (mr/dataset.h), resolved exactly
    // once at submission; every attempt's reads go through it and the
    // pins stay registered (GC-protected) until the job drains.
    Dataset dataset;
    std::array<Phase, 2> phases;  // indexed by TaskKind
    Phase& phase(TaskKind kind) { return phases[idx(kind)]; }
    const Phase& phase(TaskKind kind) const { return phases[idx(kind)]; }
    uint32_t slowstart_maps = 0;  // map commits that open the reduce phase
    // Shared-output mode, resolved at job setup by probing the back-end:
    // live concurrent appends (BSFS) or the part+concat fallback (HDFS).
    bool shared_output = false;
    bool shared_fallback = false;
    // This job's intermediate-data backend (JobConfig::intermediate_mode).
    std::unique_ptr<ShuffleStore> shuffle;
    // kv/bytes_lost_on_power_loss reading at submission; the v6 JobStats
    // durability trail is the counter's delta at completion.
    double kv_lost_at_submit = 0;
    JobStats stats;
    std::unique_ptr<sim::CondVar> progress;  // commit notifications
    sim::WaitGroup attempts;   // live attempt coroutines + speculation loop
    std::list<Attempt> live;   // attempts currently running
  };

  // A scheduling decision, made at the JobTracker on a heartbeat.
  struct Assignment {
    JobState* job = nullptr;
    TaskState* task = nullptr;
    TaskKind kind = TaskKind::kMap;
    bool speculative = false;
    uint8_t locality = 2;
    bool valid() const { return job != nullptr; }
  };

  bool job_complete(const JobState& job) const {
    for (const Phase& phase : job.phases) {
      if (phase.done < phase.size()) return false;
    }
    return true;
  }
  double cpu_scale(net::NodeId node) const {
    return net_.node_perf(node).cpu;
  }

  // Out of line and never inlined: building the labeled histogram keys
  // (std::string + initializer-list temporaries) inside the run_job
  // coroutine body miscompiles under GCC 12 at -O2, corrupting the
  // caller's frame. Keeping the construction in a plain function keeps
  // the coroutine frame free of those temporaries.
  [[gnu::noinline]] void register_job_metrics(JobState& job);
  sim::Task<void> plan_job(JobState& job);
  sim::Task<void> tasktracker_loop(net::NodeId node);
  Assignment schedule(net::NodeId node);
  // Hands out one of `job`'s `kind` tasks to `node`: a pending first
  // attempt by locality pass, else a straggler backup.
  bool pop(JobState& job, TaskKind kind, net::NodeId node, Assignment* out);
  // 0 node-local, 1 rack-local, 2 remote: where `node` sits relative to the
  // nearest of `hosts`, resolved as far as locality pass `pass` needs (pass
  // 0 reads anything not node-local as 2).
  uint8_t locality(const std::vector<net::NodeId>& hosts, net::NodeId node,
                   int pass) const;
  // LATE-style backup placement: a node may run backup tasks only while
  // its commit history proves it fast (launching the backup on another
  // slow node — or an unknown one — wastes the one backup the task gets).
  bool backup_eligible(const Phase& phase, net::NodeId node) const;
  void record_node_speed(const Phase& phase, net::NodeId node,
                         double elapsed);
  // Winner-side commit bookkeeping for every task kind, once the winner is
  // decided (registry install, append claim, or rename): flags, counters,
  // straggler baselines, and map locality attribution.
  void finish_commit(Attempt* att, uint64_t output_bytes);
  void launch(const Assignment& a, net::NodeId node);
  void finish_attempt(Attempt* att, std::list<Attempt>::iterator it);

  sim::Task<void> attempt_body(Attempt* att);
  // Rolls the failure dice for one attempt; if it fails, burns a partial
  // execution and (when no other attempt can finish the task) requeues it.
  sim::Task<bool> maybe_fail(Attempt* att);
  // Attempt-side I/O abort (the attempt's node lost power, or its shuffle
  // store write failed): counts a task failure and requeues the task when
  // no sibling attempt can still finish it. The caller co_returns next.
  void abort_attempt_io(Attempt* att);
  // Cancellation checkpoint: true when the attempt must stop, because a
  // sibling committed the task or because its node lost power (aborted
  // through abort_attempt_io).
  bool stopped(Attempt* att);
  // JobTracker side of a fetch-failure notification for `map_index`. Past
  // the threshold, declares the committed map's intermediate output lost:
  // revokes the commit (and its locality attribution) and re-schedules the
  // map; the re-commit wakes the waiting reducers.
  void report_fetch_failure(JobState& job, uint32_t map_index);
  sim::Task<void> run_map_attempt(Attempt* att);
  sim::Task<void> run_generator_attempt(Attempt* att);
  sim::Task<void> run_reduce_attempt(Attempt* att);
  // Commit tail of a file-producing attempt (generator map, part-file
  // reduce): closes its attempt-private temp file and renames it into
  // place. True for the one winner; losers remove their temp file.
  sim::Task<bool> commit_by_rename(Attempt* att, fs::FsClient& client,
                                   fs::FsWriter& writer,
                                   const std::string& tmp,
                                   const std::string& final_path);

  sim::Task<void> speculation_loop(JobState* job);
  void speculation_sweep(JobState& job);

  std::string temp_path(const JobState& job, const Attempt& att) const;
  std::string shared_output_path(const JobState& job) const;
  // Creates the shared output file and probes the back-end for concurrent
  // append support; flips shared_output/shared_fallback on the job.
  sim::Task<void> setup_shared_output(JobState& job);
  // Fallback commit tail: one client serializes every committed part file
  // into the shared output (the HDFS path ext5 measures).
  sim::Task<void> concat_shared_output(JobState& job);
  // Deletes orphaned _attempts/ temp files after the job drains (crashed
  // attempts die mid-write and cannot clean up after themselves); the
  // ShuffleStore sweep of _intermediate/ runs right after it.
  sim::Task<void> cleanup_attempt_dir(JobState& job);

  sim::Simulator& sim_;
  net::Network& net_;
  fs::FileSystem& fs_;
  MrConfig cfg_;
  Rng rng_;
  std::list<JobState> jobs_;     // active jobs, submission order
  // Occupied slots per node, by TaskKind.
  std::vector<std::array<uint32_t, 2>> slots_;
  // Per-node speed evidence: the last committed attempt's lifetime as a
  // multiple of the job's lag baseline at commit time (0 = no commits
  // yet). Kind-agnostic — a degraded node is slow for maps and reduces
  // alike — and normalized, so it compares across jobs.
  std::vector<double> node_slowness_;
  uint32_t next_job_id_ = 0;
  // Which tasktracker loops are currently running. Trackers exit when the
  // job list drains, each marking itself off here, so a later submission
  // respawns exactly the missing ones (a single global counter would skip
  // respawning while any tracker from the old generation lingered).
  std::vector<char> tracker_running_;
  // Scratch for schedule() (rebuilt every heartbeat; no per-call allocs).
  std::vector<JobState*> scratch_order_;

  // Obs handles, resolved once at construction (see net/network.h).
  obs::Tracer* tracer_;
  obs::Counter* m_jobs_submitted_;
  obs::Counter* m_jobs_completed_;
  std::array<obs::Counter*, 2> m_launches_;  // by TaskKind
  obs::Counter* m_spec_launches_;
  obs::Counter* m_killed_;
  obs::Counter* m_task_failures_;
  obs::Counter* m_fetch_failures_;
  obs::Counter* m_maps_reexecuted_;
  obs::Gauge* m_snapshot_pins_;
  obs::Counter* m_kv_bytes_lost_;  // cluster-wide kv/bytes_lost_on_power_loss
};

// Splits `text` into lines and feeds them to `fn(offset, line)`; exposed
// for tests. Implements TextInputFormat's boundary rule helpers.
void for_each_line(const std::string& text, uint64_t base_offset,
                   const std::function<void(uint64_t, const std::string&)>& fn);

}  // namespace bs::mr
