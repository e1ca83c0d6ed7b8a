// The seq-ordered unsynced window shared by the write sites that ack a
// record apart from syncing it: the blob provider's page flusher
// (blob/provider.h) and the HDFS DataNode's block syncer (hdfs/datanode.h).
//
// Records get consecutive seqs; synced_seq is the highest seq on the
// platter. One background flusher per window (spawned on the first push)
// writes batches through net::Network::try_disk_write, one positioning
// overhead per batch. The DurabilityPolicy alone sets the batch rule —
// kImmediate: batches of one as soon as the disk is free; kNone/kBatched:
// up to max_records per batch, sent when max_records records wait or the
// oldest has waited max_delay_s (max_records = 1 means one record per
// write and no timer) — and the ack rule (wait_acked): kNone on arrival,
// kBatched once at most max_records records are ahead of the platter,
// kImmediate once the record itself is synced.
//
// Power loss destroys exactly the unsynced window: power_loss() drops the
// queued records, and the batch in flight dies through the incarnation
// machinery when its write resolves; both are accounted here and in the
// kv/* group-commit metrics. What a record *is* stays with the site (Site):
// whether it is still stored (if not, it is skipped, not written) and
// what each fate does to its storage.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/durability.h"
#include "net/network.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace bs::kv {

// Obs handles for the group-commit durability plane, shared by every
// window. Cluster-wide aggregates; resolve once at construction per the obs
// cost rule.
struct GroupCommitObs {
  obs::Counter* batches;           // kv/group_commit_batches
  obs::Counter* records;           // kv/group_commit_records
  obs::Gauge* unsynced_bytes;      // kv/unsynced_bytes (acked or buffered, not yet on platter)
  obs::Histogram* flush_latency;   // kv/flush_latency_s (record arrival → batch synced)
  obs::Counter* bytes_lost;        // kv/bytes_lost_on_power_loss
  obs::Counter* acked_bytes_lost;  // kv/acked_bytes_lost_on_power_loss
  static GroupCommitObs resolve(sim::Simulator& sim);
};

template <typename Key>
class SyncWindow {
 public:
  struct Entry {
    Key key{};
    uint64_t size = 0;
    uint64_t seq = 0;
    double enqueued_at = 0;
  };

  enum class Fate {
    kSkipped,  // no longer stored when its batch formed; never written
    kSynced,   // its batch reached the platter
    kLost,     // power loss destroyed it before its batch did
  };

  class Site {
   public:
    virtual bool holds(const Key& key) const = 0;
    virtual void settle(const Entry& entry, Fate fate) = 0;
    // After a run of settle() calls (one skipped record, one synced batch,
    // one lost set) and the window's own bookkeeping for it.
    virtual void settled() {}

   protected:
    ~Site() = default;
  };

  // `down` is the site's fail-stop flag: an ack waiter whose site crashed
  // is refused even if the node's incarnation did not change.
  SyncWindow(sim::Simulator& sim, net::Network& net, net::NodeId node,
             DurabilityPolicy policy, const bool& down, Site& site);
  SyncWindow(const SyncWindow&) = delete;
  SyncWindow& operator=(const SyncWindow&) = delete;

  const DurabilityPolicy& policy() const { return policy_; }

  // Queues a record and returns its seq.
  uint64_t push(Key key, uint64_t size);
  // Wakes the flusher (starting it if needed) to re-check its trigger.
  void wake() {
    added_.notify_one();
    if (!running_) {
      running_ = true;
      sim_.spawn(flusher());
    }
  }
  // Resolves when `seq` is acked per the policy: true, or false if a power
  // loss (or site crash) came first. kNone never waits; callers skip the
  // call there.
  sim::Task<bool> wait_acked(uint64_t seq);
  // Forces batches out regardless of the trigger until the window is empty.
  sim::Task<void> drain();
  // Drops the queued records (the batch in flight fails on its own) and
  // releases every ack waiter.
  void power_loss();

  uint64_t unsynced() const { return queue_.size() + inflight_.size(); }
  uint64_t unsynced_bytes() const { return unsynced_bytes_; }
  uint64_t batches() const { return batches_; }
  uint64_t bytes_lost() const { return bytes_lost_; }
  uint64_t acked_bytes_lost() const { return acked_bytes_lost_; }

 private:
  bool seq_acked(uint64_t seq) const {
    switch (policy_.level) {
      case DurabilityLevel::kNone:
        return true;  // acked on arrival
      case DurabilityLevel::kBatched:
        return seq <= synced_seq_ + policy_.max_records;
      case DurabilityLevel::kImmediate:
        return seq <= synced_seq_;  // unsynced ⇒ never acked
    }
    return false;
  }
  void release(uint64_t size);
  void advance_synced(uint64_t seq) {
    if (seq > synced_seq_) {
      synced_seq_ = seq;
      synced_.notify_all();
    }
  }
  void drop(std::vector<Entry>& entries);
  sim::Task<void> timer(double deadline);
  sim::Task<void> flusher();

  sim::Simulator& sim_;
  net::Network& net_;
  net::NodeId node_;
  DurabilityPolicy policy_;
  const bool& down_;
  Site& site_;

  std::deque<Entry> queue_;
  std::vector<Entry> inflight_;  // the batch on the platter path
  std::vector<Entry> settling_;  // the batch whose write just resolved
  uint64_t next_seq_ = 0;        // last seq assigned
  uint64_t synced_seq_ = 0;      // highest seq durable on disk
  uint64_t unsynced_bytes_ = 0;
  uint64_t batches_ = 0;
  uint64_t bytes_lost_ = 0;
  uint64_t acked_bytes_lost_ = 0;
  sim::CondVar added_;
  sim::CondVar synced_;  // notified when synced_seq_ advances (and on power loss)
  sim::CondVar drained_;
  bool running_ = false;
  bool force_ = false;  // drain(): flush now, ignore the trigger
  GroupCommitObs gc_;
};

}  // namespace bs::kv
