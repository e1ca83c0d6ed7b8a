#include "blob/provider.h"

#include <cstdio>

#include "common/assert.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bs::blob {
namespace {

std::string page_args(const PageKey& key, uint64_t bytes) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"blob\":%llu,\"bytes\":%llu",
                static_cast<unsigned long long>(key.blob),
                static_cast<unsigned long long>(bytes));
  return buf;
}

}  // namespace

Provider::Provider(sim::Simulator& sim, net::Network& net, ProviderConfig cfg)
    : sim_(sim), net_(net), cfg_(cfg), ram_freed_(sim),
      window_(sim, net, cfg_.node, cfg_.durability, down_, *this) {
  obs::MetricsRegistry& m = sim_.metrics();
  tracer_ = &sim_.tracer();
  m_put_pages_ = &m.counter("blob/put_pages");
  m_put_bytes_ = &m.counter("blob/put_bytes");
  m_get_pages_ = &m.counter("blob/get_pages");
  m_get_bytes_ = &m.counter("blob/get_bytes");
  m_cache_hits_ = &m.counter("blob/cache_hits");
  m_cache_misses_ = &m.counter("blob/cache_misses");
  m_replications_ = &m.counter("blob/replications");
}

bool Provider::ram_resident(const std::string& key) const {
  return dirty_seq_.count(key) > 0 || lru_index_.count(key) > 0;
}

void Provider::cache_touch(const std::string& key, uint64_t size) {
  if (!cfg_.read_cache) return;
  auto it = lru_index_.find(key);
  if (it != lru_index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (size > cfg_.ram_bytes) return;  // page larger than RAM: don't cache
  cache_evict_for(size);
  lru_.emplace_front(key, size);
  lru_index_[key] = lru_.begin();
  ram_used_ += size;
}

void Provider::cache_evict_for(uint64_t need) {
  // Evict clean LRU pages until `need` bytes fit (dirty pages are pinned).
  while (ram_used_ + need > cfg_.ram_bytes && !lru_.empty()) {
    auto& [key, size] = lru_.back();
    ram_used_ -= size;
    lru_index_.erase(key);
    lru_.pop_back();
  }
}

void Provider::settle(const Window::Entry& page, Window::Fate fate) {
  dirty_seq_.erase(page.key);
  if (fate == Window::Fate::kSynced && cfg_.read_cache &&
      store_.contains(page.key)) {
    // Clean now: keep it cached. (A page GC'd or wiped mid-write just
    // releases its RAM.)
    lru_.emplace_front(page.key, page.size);
    lru_index_[page.key] = lru_.begin();
    return;
  }
  ram_used_ -= page.size;
  // Power loss: the page existed only in RAM (its flush never reached the
  // platter). False if a wipe already took it.
  if (fate == Window::Fate::kLost) store_.erase(page.key);
}

sim::Task<bool> Provider::put_page(net::NodeId client, PageKey key,
                                   DataSpec data, double rate_cap) {
  const uint64_t size = data.size();
  BS_CHECK(size > 0);
  BS_CHECK_MSG(size <= cfg_.ram_bytes,
               "page larger than provider RAM cannot be admitted");
  if (down_) {
    co_await sim_.delay(net_.config().rpc_timeout_s);
    co_return false;
  }
  const double t0 = sim_.now();
  // Page body travels client → provider.
  co_await net_.transfer(client, cfg_.node, static_cast<double>(size),
                         rate_cap);
  if (down_) co_return false;  // crashed mid-transfer: bytes discarded

  // Admission: wait until the page fits in RAM. Clean pages are evicted
  // first; if dirty pages alone exceed RAM we must wait for the flusher.
  const std::string skey = key.to_string();
  cache_evict_for(size);
  while (ram_used_ + size > cfg_.ram_bytes) {
    co_await ram_freed_.wait();
    cache_evict_for(size);
  }
  // Crashed while blocked on admission: the connection died with the node.
  if (down_) co_return false;
  ram_used_ += size;

  // The page is logically stored now (write-behind persistence); the ack
  // below settles per the durability policy.
  store_.put(skey, data.serialize());
  ++pages_stored_;
  uint64_t my_seq;
  auto dit = dirty_seq_.find(skey);
  if (dit != dirty_seq_.end()) {
    // Overwrite of a still-dirty page: it keeps its queue slot (and its
    // place in the unsynced window).
    my_seq = dit->second;
    window_.wake();
  } else {
    my_seq = window_.push(skey, size);
    dirty_seq_.emplace(skey, my_seq);
  }
  m_put_pages_->inc();
  m_put_bytes_->inc(static_cast<double>(size));

  // Ack per the durability policy (see provider.h).
  bool acked = true;
  if (cfg_.durability.level != DurabilityLevel::kNone) {
    acked = co_await window_.wait_acked(my_seq);
  }
  if (tracer_->enabled()) {
    tracer_->complete("blob", "blob", cfg_.node, "put_page", t0,
                      page_args(key, size));
  }
  co_return acked;
}

sim::Task<std::optional<DataSpec>> Provider::get_page(net::NodeId client,
                                                      PageKey key) {
  const std::string skey = key.to_string();
  if (down_) {
    co_await sim_.delay(net_.config().rpc_timeout_s);
    co_return std::nullopt;
  }
  const double t0 = sim_.now();
  // Request reaches the provider first.
  co_await net_.control(client, cfg_.node);
  auto raw = store_.get(skey);
  if (!raw.has_value()) {
    co_await net_.control(cfg_.node, client);
    co_return std::nullopt;
  }
  DataSpec data = DataSpec::deserialize(raw->data(), raw->size());
  if (ram_resident(skey)) {
    ++cache_hits_;
    m_cache_hits_->inc();
    // Refresh LRU position only for clean pages; dirty pages are pinned by
    // the flush queue and not in the LRU yet.
    if (dirty_seq_.count(skey) == 0) cache_touch(skey, data.size());
  } else {
    ++cache_misses_;
    m_cache_misses_->inc();
    co_await net_.disk(cfg_.node).read(static_cast<double>(data.size()));
    cache_touch(skey, data.size());
  }
  // Page body travels provider → client.
  co_await net_.transfer(cfg_.node, client, static_cast<double>(data.size()));
  // Crashed while serving (mid-read): the stream resets; the client fails
  // over to another replica (symmetric with put_page's mid-transfer check).
  if (down_) co_return std::nullopt;
  m_get_pages_->inc();
  m_get_bytes_->inc(static_cast<double>(data.size()));
  if (tracer_->enabled()) {
    tracer_->complete("blob", "blob", cfg_.node, "get_page", t0,
                      page_args(key, data.size()));
  }
  co_return data;
}

sim::Task<bool> Provider::replicate_to(Provider& dst, PageKey key,
                                       double rate_cap) {
  if (down_ || dst.down_) co_return false;
  const std::string skey = key.to_string();
  auto raw = store_.get(skey);
  if (!raw.has_value()) co_return false;
  DataSpec data = DataSpec::deserialize(raw->data(), raw->size());
  if (ram_resident(skey)) {
    if (dirty_seq_.count(skey) == 0) cache_touch(skey, data.size());
  } else {
    co_await net_.disk(cfg_.node).read(static_cast<double>(data.size()));
    cache_touch(skey, data.size());
  }
  // put_page pays the provider→provider flow (client = this node).
  const bool ok = co_await dst.put_page(cfg_.node, key, std::move(data),
                                        rate_cap);
  if (ok) m_replications_->inc();
  co_return ok;
}

void Provider::crash(bool wipe_storage) {
  down_ = true;
  // Power loss: every page still in the unsynced window dies with RAM —
  // exactly the window, no more, no less. (The batch in flight on the disk
  // is failed by the incarnation machinery and accounted by the flusher
  // when its write resolves; pages whose batch already synced survive via
  // journal replay unless the disk itself is wiped below.)
  window_.power_loss();
  if (wipe_storage) {
    // Disk loss: forget every persisted page. The clean-cache LRU must be
    // released here: a stale entry for a wiped key would otherwise
    // double-count RAM (and corrupt the LRU index) when the key is
    // re-stored after recovery, e.g. by the repair service.
    std::vector<std::string> keys;
    store_.scan("", "", [&](const std::string& k, const Bytes&) {
      keys.push_back(k);
      return true;
    });
    for (const auto& k : keys) store_.erase(k);
    for (const auto& [key, size] : lru_) ram_used_ -= size;
    lru_.clear();
    lru_index_.clear();
  }
}

void Provider::recover() { down_ = false; }

sim::Task<bool> Provider::erase_page(net::NodeId client, PageKey key) {
  const std::string skey = key.to_string();
  if (down_) {
    co_await sim_.delay(net_.config().rpc_timeout_s);
    co_return false;
  }
  co_await net_.control(client, cfg_.node);
  const bool present = store_.erase(skey);
  if (present) {
    auto it = lru_index_.find(skey);
    if (it != lru_index_.end()) {
      ram_used_ -= it->second->second;
      lru_.erase(it->second);
      lru_index_.erase(it);
    }
    // A still-dirty page keeps its queue slot; the flusher notices the
    // deletion, releases the RAM, and skips the disk write.
  }
  co_await net_.control(cfg_.node, client);
  co_return present;
}

sim::Task<void> Provider::drain() { return window_.drain(); }

}  // namespace bs::blob
