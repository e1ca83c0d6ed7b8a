#include "blob/provider.h"

#include <cstdio>

#include "common/assert.h"
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
    : sim_(sim), net_(net), cfg_(cfg), ram_freed_(sim), cache_(cfg_.ram_bytes),
      window_(sim, net, cfg_.node, cfg_.durability, *this) {
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

void Provider::settle(const Window::Entry& page, Window::Fate fate) {
  dirty_seq_.erase(page.key);
  dirty_bytes_ -= page.size;
  if (fate == Window::Fate::kSynced && cfg_.read_cache &&
      pages_.count(page.key) > 0) {
    // Clean now: keep it cached. (A page GC'd or wiped mid-write just
    // releases its RAM.)
    cache_.insert(page.key, page.size);
    return;
  }
  // Power loss: the page existed only in RAM (its flush never reached the
  // platter). False if a wipe already took it.
  if (fate == Window::Fate::kLost) pages_.erase(page.key);
}

sim::Task<bool> Provider::put_page(net::NodeId client, PageKey key,
                                   DataSpec data) {
  const uint64_t size = data.size();
  BS_CHECK(size > 0);
  BS_CHECK_MSG(size <= cfg_.ram_bytes,
               "page larger than provider RAM cannot be admitted");
  if (down()) {
    co_await sim_.delay(net_.config().rpc_timeout_s);
    co_return false;
  }
  const double t0 = sim_.now();
  // Page body travels client → provider.
  co_await net_.transfer(client, cfg_.node, static_cast<double>(size));
  if (down()) co_return false;  // crashed mid-transfer: bytes discarded

  // Admission: wait until the page fits in RAM. Clean pages are evicted
  // first; if dirty pages alone exceed RAM we must wait for the flusher.
  // A page this provider already holds (a repair can pick a recovered
  // holder) stays resident once: a clean cached copy leaves the LRU and is
  // admitted again, and a copy still in the window is not admitted twice.
  const std::string skey = key.to_string();
  while (true) {
    cache_.erase(skey);
    if (dirty_seq_.count(skey) > 0) break;
    if (cache_.make_room(size, dirty_bytes_)) break;
    co_await ram_freed_.wait();
  }
  // Crashed while blocked on admission: the connection died with the node.
  if (down()) co_return false;

  // The page is logically stored now (write-behind persistence); the ack
  // below settles per the durability policy.
  pages_.insert_or_assign(skey, std::move(data));
  uint64_t my_seq;
  auto dit = dirty_seq_.find(skey);
  if (dit != dirty_seq_.end()) {
    // Overwrite of a still-dirty page: it keeps its queue slot (and its
    // place in the unsynced window).
    my_seq = dit->second;
    window_.wake();
  } else {
    dirty_bytes_ += size;
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
  if (down()) {
    co_await sim_.delay(net_.config().rpc_timeout_s);
    co_return std::nullopt;
  }
  const double t0 = sim_.now();
  // Request reaches the provider first.
  co_await net_.control(client, cfg_.node);
  auto it = pages_.find(skey);
  if (it == pages_.end()) {
    co_await net_.control(cfg_.node, client);
    co_return std::nullopt;
  }
  DataSpec data = it->second;
  if (ram_resident(skey)) {
    ++cache_hits_;
    m_cache_hits_->inc();
    // Refresh LRU position only for clean pages; dirty pages are pinned by
    // the flush queue and not in the LRU yet.
    if (dirty_seq_.count(skey) == 0) touch_cache(skey, data.size());
  } else {
    ++cache_misses_;
    m_cache_misses_->inc();
    co_await net_.disk(cfg_.node).read(static_cast<double>(data.size()));
    touch_cache(skey, data.size());
  }
  // Page body travels provider → client.
  co_await net_.transfer(cfg_.node, client, static_cast<double>(data.size()));
  // Crashed while serving (mid-read): the stream resets; the client fails
  // over to another replica (symmetric with put_page's mid-transfer check).
  if (down()) co_return std::nullopt;
  m_get_pages_->inc();
  m_get_bytes_->inc(static_cast<double>(data.size()));
  if (tracer_->enabled()) {
    tracer_->complete("blob", "blob", cfg_.node, "get_page", t0,
                      page_args(key, data.size()));
  }
  co_return data;
}

sim::Task<bool> Provider::replicate_to(Provider& dst, PageKey key) {
  if (down() || dst.down()) co_return false;
  const std::string skey = key.to_string();
  auto it = pages_.find(skey);
  if (it == pages_.end()) co_return false;
  DataSpec data = it->second;
  // A repair read goes through the page cache like get_page, and is
  // counted with it.
  if (ram_resident(skey)) {
    ++cache_hits_;
    m_cache_hits_->inc();
    if (dirty_seq_.count(skey) == 0) touch_cache(skey, data.size());
  } else {
    ++cache_misses_;
    m_cache_misses_->inc();
    co_await net_.disk(cfg_.node).read(static_cast<double>(data.size()));
    touch_cache(skey, data.size());
  }
  // put_page pays the provider→provider flow (client = this node).
  const bool ok = co_await dst.put_page(cfg_.node, key, std::move(data));
  if (ok) m_replications_->inc();
  co_return ok;
}

void Provider::crash(bool wipe_storage) {
  // Power loss: every page still in the unsynced window dies with RAM —
  // exactly the window, no more, no less. (The batch in flight on the disk
  // is failed by the incarnation machinery and accounted by the flusher
  // when its write resolves; pages whose batch already synced survive
  // unless the disk itself is wiped below.)
  window_.power_loss();
  if (wipe_storage) {
    // Disk loss: forget every persisted page, and release the clean-cache
    // LRU with it.
    pages_.clear();
    cache_.clear();
  }
}

sim::Task<bool> Provider::erase_page(net::NodeId client, PageKey key) {
  const std::string skey = key.to_string();
  if (down()) {
    co_await sim_.delay(net_.config().rpc_timeout_s);
    co_return false;
  }
  co_await net_.control(client, cfg_.node);
  const bool present = pages_.erase(skey) > 0;
  // A still-dirty page keeps its queue slot; the flusher notices the
  // deletion, releases the RAM, and skips the disk write.
  if (present) cache_.erase(skey);
  co_await net_.control(cfg_.node, client);
  co_return present;
}

sim::Task<void> Provider::drain() { return window_.drain(); }

}  // namespace bs::blob
