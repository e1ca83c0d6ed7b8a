#include "kv/sync_window.h"

#include <algorithm>
#include <iterator>
#include <string>

#include "common/assert.h"
#include "obs/metrics.h"

namespace bs::kv {

GroupCommitObs GroupCommitObs::resolve(sim::Simulator& sim) {
  obs::MetricsRegistry& m = sim.metrics();
  return GroupCommitObs{
      .batches = &m.counter("kv/group_commit_batches"),
      .records = &m.counter("kv/group_commit_records"),
      .unsynced_bytes = &m.gauge("kv/unsynced_bytes"),
      .flush_latency = &m.histogram("kv/flush_latency_s"),
      .bytes_lost = &m.counter("kv/bytes_lost_on_power_loss"),
      .acked_bytes_lost = &m.counter("kv/acked_bytes_lost_on_power_loss"),
  };
}

template <typename Key>
SyncWindow<Key>::SyncWindow(sim::Simulator& sim, net::Network& net,
                            net::NodeId node, DurabilityPolicy policy,
                            const bool& down, Site& site)
    : sim_(sim), net_(net), node_(node), policy_(policy), down_(down),
      site_(site), added_(sim), synced_(sim), drained_(sim),
      gc_(GroupCommitObs::resolve(sim)) {
  BS_CHECK(policy_.max_records > 0);
}

template <typename Key>
void SyncWindow<Key>::release(uint64_t size) {
  unsynced_bytes_ -= size;
  gc_.unsynced_bytes->add(-static_cast<double>(size));
}

template <typename Key>
void SyncWindow<Key>::drop(std::vector<Entry>& entries) {
  for (const Entry& e : entries) {
    release(e.size);
    bytes_lost_ += e.size;
    gc_.bytes_lost->inc(static_cast<double>(e.size));
    if (seq_acked(e.seq)) {
      acked_bytes_lost_ += e.size;
      gc_.acked_bytes_lost->inc(static_cast<double>(e.size));
    }
    site_.settle(e, Fate::kLost);
  }
  entries.clear();
  site_.settled();
}

template <typename Key>
uint64_t SyncWindow<Key>::push(Key key, uint64_t size) {
  const uint64_t seq = ++next_seq_;
  queue_.push_back(Entry{std::move(key), size, seq, sim_.now()});
  unsynced_bytes_ += size;
  gc_.unsynced_bytes->add(static_cast<double>(size));
  wake();
  return seq;
}

template <typename Key>
sim::Task<bool> SyncWindow<Key>::wait_acked(uint64_t seq) {
  const uint64_t ahead =
      policy_.level == DurabilityLevel::kBatched ? policy_.max_records : 0;
  const uint64_t need = seq > ahead ? seq - ahead : 0;
  const uint64_t inc = net_.incarnation(node_);
  while (synced_seq_ < need) {
    if (down_ || net_.incarnation(node_) != inc) co_return false;
    co_await synced_.wait();
  }
  co_return !down_ && net_.incarnation(node_) == inc;
}

template <typename Key>
sim::Task<void> SyncWindow<Key>::drain() {
  force_ = true;
  added_.notify_all();
  while (!queue_.empty() || !inflight_.empty()) co_await drained_.wait();
  force_ = false;
}

template <typename Key>
void SyncWindow<Key>::power_loss() {
  std::vector<Entry> dropped(std::make_move_iterator(queue_.begin()),
                             std::make_move_iterator(queue_.end()));
  queue_.clear();
  drop(dropped);
  synced_.notify_all();  // ack waiters observe the loss
  added_.notify_all();   // the flusher re-checks its (now empty) queue
}

template <typename Key>
sim::Task<void> SyncWindow<Key>::timer(double deadline) {
  if (deadline > sim_.now()) co_await sim_.delay(deadline - sim_.now());
  added_.notify_all();  // wake the flusher to re-check its trigger
}

template <typename Key>
sim::Task<void> SyncWindow<Key>::flusher() {
  const bool immediate = policy_.level == DurabilityLevel::kImmediate;
  const uint64_t limit = immediate ? 1 : policy_.max_records;
  while (true) {
    while (queue_.empty()) {
      drained_.notify_all();
      co_await added_.wait();
    }
    if (!immediate && !force_) {
      const double deadline = queue_.front().enqueued_at + policy_.max_delay_s;
      if (sim_.now() < deadline && queue_.size() < limit) {
        sim_.spawn(timer(deadline));
        while (!force_ && !queue_.empty() && queue_.size() < limit &&
               sim_.now() < deadline) {
          co_await added_.wait();
        }
        if (queue_.empty()) continue;  // a power loss emptied the queue
      }
    }
    // Form the batch.
    uint64_t batch_bytes = 0;
    uint64_t last_seq = synced_seq_;
    const double opened_at = queue_.front().enqueued_at;
    while (!queue_.empty() && inflight_.size() < limit) {
      Entry e = std::move(queue_.front());
      queue_.pop_front();
      last_seq = std::max(last_seq, e.seq);
      if (!site_.holds(e.key)) {
        // Deleted while queued: nothing to write.
        release(e.size);
        site_.settle(e, Fate::kSkipped);
        site_.settled();
        continue;
      }
      batch_bytes += e.size;
      inflight_.push_back(std::move(e));
    }
    if (inflight_.empty()) {
      advance_synced(last_seq);  // every popped record was skipped
      continue;
    }
    const bool ok =
        co_await net_.try_disk_write(node_, static_cast<double>(batch_bytes));
    // Swap rather than move, so neither buffer is reallocated per batch.
    std::vector<Entry>& batch = settling_;
    batch.swap(inflight_);
    if (!ok) {
      // The node lost power under the batch: it never reached the platter.
      drop(batch);
      continue;
    }
    for (const Entry& e : batch) {
      release(e.size);
      site_.settle(e, Fate::kSynced);
    }
    ++batches_;
    gc_.batches->inc();
    gc_.records->inc(static_cast<double>(batch.size()));
    gc_.flush_latency->observe(sim_.now() - opened_at);
    batch.clear();
    advance_synced(last_seq);
    site_.settled();
  }
}

template class SyncWindow<std::string>;
template class SyncWindow<uint64_t>;

}  // namespace bs::kv
