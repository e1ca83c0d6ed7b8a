// Page provider — stores page replicas on one cluster node.
//
// Write path: the page body arrives over the network (a flow), lands in the
// provider's RAM buffer, and is acknowledged per the configured
// DurabilityPolicy (common/durability.h); a background flusher persists
// buffered pages to the local disk. If the RAM buffer is full, incoming
// writes block until the flusher drains — this is the backpressure that
// makes provider write throughput degrade to disk speed once RAM is
// exhausted, and it is why BlobSeer's load-balanced remote writes beat
// HDFS's synchronous local-disk writes in the paper's §IV.B write
// benchmark.
//
// The flusher is the shared unsynced window (kv/sync_window.h), so the
// policy alone sets the batch and ack rules (bench/ext8_group_commit.cpp
// measures the trade):
//   kNone       ack as soon as the page is in RAM; batches of up to
//               max_records pages on the count-or-time trigger. The default,
//               DurabilityPolicy::write_behind() (max_records = 1, no
//               delay), is the paper's write-behind model: one page per disk
//               write, as soon as the disk is free. A power loss destroys
//               every buffered page.
//   kBatched    ack when the page is in RAM *and* the acked-unsynced
//               window is at most max_records pages. A power loss destroys
//               at most max_records acked pages plus the batch in flight.
//   kImmediate  ack only after the page's own batch (of one) is on the
//               platter. A power loss destroys zero acked pages.
//
// Power loss discards exactly the unsynced window: pages whose batch
// reached the disk survive a plain crash; unsynced pages die with RAM, and
// the batch in flight dies via the incarnation machinery
// (net::Network::try_disk_write).
//
// Read path: RAM-resident pages (recently written or LRU-cached) are served
// from memory; otherwise the page is read from disk first. Either way the
// body then flows back over the network to the client.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "blob/types.h"
#include "common/container.h"
#include "common/dataspec.h"
#include "common/durability.h"
#include "common/stats.h"
#include "kv/sync_window.h"
#include "net/network.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace bs::blob {

struct ProviderConfig {
  net::NodeId node = 0;
  // RAM available for buffering dirty pages + caching clean ones.
  uint64_t ram_bytes = 1ULL << 30;
  // Whether clean pages stay cached in RAM after flush/read (LRU). The
  // paper-scale read benches run cold (data >> RAM), so this mostly serves
  // the cache ablation.
  bool read_cache = true;
  // When the write path acks relative to when it syncs (see file comment).
  // The default preserves the paper's write-behind semantics.
  DurabilityPolicy durability = DurabilityPolicy::write_behind();
};

class Provider final : private kv::SyncWindow<std::string>::Site {
 public:
  Provider(sim::Simulator& sim, net::Network& net, ProviderConfig cfg);

  net::NodeId node() const { return cfg_.node; }

  // Receives one page from `client` and stores it. Returns true once the
  // page is acknowledged per cfg_.durability (see file comment); false if
  // the provider is down — at request time (the caller waits out the
  // connection timeout), mid-transfer (the bytes are discarded), or if a
  // power loss destroyed the page before its durability settled.
  sim::Task<bool> put_page(net::NodeId client, PageKey key, DataSpec data);

  // Sends the page back to `client`; nullopt if unknown or down (a down
  // provider costs the caller the connection timeout).
  sim::Task<std::optional<DataSpec>> get_page(net::NodeId client,
                                              PageKey key);

  // Copies one page replica straight to another provider (repair traffic:
  // disk read here if not RAM-resident, then a provider→provider flow).
  // False if either end is down or the page is unknown here.
  sim::Task<bool> replicate_to(Provider& dst, PageKey key);

  // --- fault injection (called by the fault layer, not clients) ---
  //
  // A crash is fail-stop at the network level: every request fails until
  // recover(). Storage semantics: pages whose flush reached the disk
  // survive a plain crash; pages still in the unsynced window are
  // destroyed — exactly the window, no more, no less
  // (bytes_lost_on_power_loss accounts them). wipe_storage additionally
  // models a disk loss, after which only re-replication can restore the
  // data.
  void crash(bool wipe_storage = false);
  void recover();

  // Blocks until every buffered page is on disk, forcing batches out
  // regardless of the count-or-time trigger (used by tests/benches to
  // measure full-durability time).
  sim::Task<void> drain();

  // Deletes a page replica (garbage collection). Returns true if present.
  sim::Task<bool> erase_page(net::NodeId client, PageKey key);

  // Whether this provider's store holds the page (repair's "block report":
  // a wiped-and-recovered node is up but empty, and only this tells the
  // repair service the replica needs re-creating). Local, no modeled cost.
  bool has_page(const PageKey& key) const {
    return pages_.count(key.to_string()) > 0;
  }

  // --- introspection ---
  size_t page_count() const { return pages_.size(); }
  uint64_t ram_used() const { return ram_used_; }
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }
  // The durability spectrum's observable side: the unsynced window now, and
  // what power losses destroyed so far.
  uint64_t unsynced_pages() const { return window_.unsynced(); }
  uint64_t unsynced_bytes() const { return window_.unsynced_bytes(); }
  uint64_t flush_batches() const { return window_.batches(); }
  uint64_t bytes_lost_on_power_loss() const { return window_.bytes_lost(); }
  uint64_t acked_bytes_lost_on_power_loss() const {
    return window_.acked_bytes_lost();
  }

 private:
  using Window = kv::SyncWindow<std::string>;

  // LRU bookkeeping for RAM-resident *clean* pages.
  void cache_touch(const std::string& key, uint64_t size);
  void cache_evict_for(uint64_t need);
  void uncache(const std::string& key);
  bool ram_resident(const std::string& key) const;

  // Window::Site: a flushed page moves to the clean cache (or frees its
  // RAM); a skipped or lost one frees its RAM, and a lost one leaves the
  // store. Either way admission waiters re-check.
  bool holds(const std::string& key) const override {
    return pages_.count(key) > 0;
  }
  void settle(const Window::Entry& page, Window::Fate fate) override;
  void settled() override { ram_freed_.notify_all(); }

  sim::Simulator& sim_;
  net::Network& net_;
  ProviderConfig cfg_;
  std::map<std::string, DataSpec> pages_;  // stored pages (the "disk" contents)

  // dirty_seq_ maps key → window seq for every page that is dirty or in the
  // in-flight batch (an overwrite keeps its seq and its window slot).
  bs::unordered_map<std::string, uint64_t> dirty_seq_;
  uint64_t ram_used_ = 0;
  sim::CondVar ram_freed_;

  // Clean-page LRU (front = most recent).
  std::list<std::pair<std::string, uint64_t>> lru_;
  bs::unordered_map<std::string, std::list<std::pair<std::string, uint64_t>>::iterator>
      lru_index_;

  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  bool down_ = false;
  Window window_;

  // Obs handles (cluster-wide aggregates shared by all providers in the
  // registry; resolved once here so the data path stays lookup-free).
  obs::Tracer* tracer_;
  obs::Counter* m_put_pages_;
  obs::Counter* m_put_bytes_;
  obs::Counter* m_get_pages_;
  obs::Counter* m_get_bytes_;
  obs::Counter* m_cache_hits_;
  obs::Counter* m_cache_misses_;
  obs::Counter* m_replications_;
};

}  // namespace bs::blob
