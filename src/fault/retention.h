// Version-history retention — the GC policy layer over blob::collect_garbage.
//
// BlobSeer keeps every published version of a blob until someone prunes it;
// under continuous ingest (a writer appending to a dataset forever, paper
// §V) that history grows without bound. The retention service is the
// operator's answer: a periodic pass walks the BSFS namespace and, for
// every finalized file, prunes version history down to the OLDEST version
// anyone still needs — the newer of:
//
//   * the retention window (`keep_last` newest published versions are
//     always kept, so operators can roll back), and
//   * the oldest version pinned in the file system's SnapshotRegistry by a
//     live consumer (a running MapReduce job's Dataset pins its input
//     snapshots there for the job's whole lifetime).
//
// The registry is consulted before every prune, so a job never loses its
// pinned version mid-run no matter how aggressively retention is tuned —
// the invariant tests/fault_test.cpp pins. MapReduce scratch directories
// (_intermediate/, _attempts/) are skipped for the same reason the repair
// service skips them: job-lifetime-only data is not worth a GC walk.
#pragma once

#include <cstdint>

#include "blob/gc.h"
#include "sim/task.h"

namespace bs::bsfs {
class Bsfs;
}

namespace bs::obs {
class Counter;
class Tracer;
}  // namespace bs::obs

namespace bs::fault {

struct RetentionConfig {
  // Node the retention coordinator runs on (RPCs originate here).
  net::NodeId node = 0;
  // Period of the start()ed background loop.
  double period_s = 5.0;
  // Retention window: this many newest published versions are always kept
  // (>= 1; the latest published version is never pruned).
  uint32_t keep_last = 1;
};

struct RetentionStats {
  uint64_t passes = 0;
  uint64_t files_scanned = 0;
  uint64_t page_replicas_deleted = 0;
  uint64_t meta_nodes_deleted = 0;
  uint64_t bytes_reclaimed = 0;
  double finished_at = 0;

  void merge(const blob::GcStats& gc) {
    page_replicas_deleted += gc.page_replicas_deleted;
    meta_nodes_deleted += gc.meta_nodes_deleted;
    bytes_reclaimed += gc.bytes_reclaimed;
  }
  void merge(const RetentionStats& o) {
    passes += o.passes;
    files_scanned += o.files_scanned;
    page_replicas_deleted += o.page_replicas_deleted;
    meta_nodes_deleted += o.meta_nodes_deleted;
    bytes_reclaimed += o.bytes_reclaimed;
    finished_at = finished_at > o.finished_at ? finished_at : o.finished_at;
  }
};

class RetentionService {
 public:
  explicit RetentionService(bsfs::Bsfs& fs, RetentionConfig cfg = {});

  // One retention pass over the namespace, usable directly (tests,
  // benches) or from the background loop. Safe to run while jobs read
  // pinned versions and writers append: the watermark never crosses a
  // registered pin.
  sim::Task<RetentionStats> run_pass();

  // Spawns the periodic background loop (restartable after stop()).
  void start();
  // Stops the loop at its next wake-up, letting the simulation drain.
  void stop() { running_ = false; }
  bool running() const { return running_; }

  // Cumulative totals across every pass this service ran.
  const RetentionStats& total() const { return total_; }

 private:
  sim::Task<void> loop(uint64_t generation);

  bsfs::Bsfs& fs_;
  RetentionConfig cfg_;
  RetentionStats total_;
  bool running_ = false;
  uint64_t generation_ = 0;
  obs::Tracer* tracer_;
  obs::Counter* m_passes_;
  obs::Counter* m_replicas_deleted_;
  obs::Counter* m_bytes_reclaimed_;
};

}  // namespace bs::fault
