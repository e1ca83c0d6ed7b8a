// The clean-page LRU of one storage node's RAM, shared by the blob provider
// (blob/provider.h, keyed by page) and the HDFS DataNode (hdfs/datanode.h,
// keyed by block). It holds clean pages only: bytes the owner keeps in RAM
// for other reasons (the provider's dirty pages) come in as `held` and are
// never evicted from here.
#pragma once

#include <cstdint>
#include <list>
#include <utility>

#include "common/container.h"

namespace bs::kv {

template <typename Key>
class PageCache {
 public:
  explicit PageCache(uint64_t ram_bytes) : ram_bytes_(ram_bytes) {}

  bool contains(const Key& key) const { return index_.count(key) > 0; }
  uint64_t bytes() const { return bytes_; }

  // A read of `key` (`size` bytes): a cached page moves to the front;
  // otherwise the page is admitted beside `held` bytes (a page larger than
  // RAM is never cached).
  void touch(const Key& key, uint64_t size, uint64_t held = 0) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (size > ram_bytes_) return;
    make_room(size, held);
    insert(key, size);
  }

  // Evicts least-recent pages until `size` more bytes fit beside `held`
  // bytes and the cache (or the cache is empty). True if they fit.
  bool make_room(uint64_t size, uint64_t held) {
    while (held + bytes_ + size > ram_bytes_ && !lru_.empty()) {
      bytes_ -= lru_.back().second;
      index_.erase(lru_.back().first);
      lru_.pop_back();
    }
    return held + bytes_ + size <= ram_bytes_;
  }

  // Puts a page already in RAM (a flushed dirty page) at the front,
  // evicting nothing.
  void insert(const Key& key, uint64_t size) {
    lru_.emplace_front(key, size);
    index_[key] = lru_.begin();
    bytes_ += size;
  }

  void erase(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return;
    bytes_ -= it->second->second;
    lru_.erase(it->second);
    index_.erase(it);
  }

  void clear() {
    lru_.clear();
    index_.clear();
    bytes_ = 0;
  }

 private:
  uint64_t ram_bytes_;
  uint64_t bytes_ = 0;
  std::list<std::pair<Key, uint64_t>> lru_;  // front = most recent
  bs::unordered_map<Key, typename std::list<std::pair<Key, uint64_t>>::iterator>
      index_;
};

}  // namespace bs::kv
