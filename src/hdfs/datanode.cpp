#include "hdfs/datanode.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/assert.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/parallel.h"

namespace bs::hdfs {
namespace {

std::string block_key(BlockId id) { return "b/" + std::to_string(id); }

std::string block_args(BlockId id, uint64_t bytes) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"block\":%llu,\"bytes\":%llu",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(bytes));
  return buf;
}

}  // namespace

DataNode::DataNode(sim::Simulator& sim, net::Network& net, net::NodeId node,
                   uint64_t ram_bytes, DurabilityPolicy durability)
    : sim_(sim), net_(net), node_(node), ram_bytes_(ram_bytes),
      window_(sim, net, node, durability, down_, *this) {
  obs::MetricsRegistry& m = sim_.metrics();
  tracer_ = &sim_.tracer();
  m_blocks_received_ = &m.counter("hdfs/blocks_received");
  m_bytes_received_ = &m.counter("hdfs/bytes_received");
  m_bytes_served_ = &m.counter("hdfs/bytes_served");
  m_cache_hits_ = &m.counter("hdfs/dn_cache_hits");
  m_cache_misses_ = &m.counter("hdfs/dn_cache_misses");
  m_replications_ = &m.counter("hdfs/replications");
}

void DataNode::cache_touch(BlockId id, uint64_t size) {
  auto it = lru_index_.find(id);
  if (it != lru_index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (size > ram_bytes_) return;
  while (ram_used_ + size > ram_bytes_ && !lru_.empty()) {
    ram_used_ -= lru_.back().second;
    lru_index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  lru_.emplace_front(id, size);
  lru_index_[id] = lru_.begin();
  ram_used_ += size;
}

sim::Task<bool> DataNode::receive_block(net::NodeId from, BlockId id,
                                        DataSpec data, double rate_cap) {
  if (down_) {
    co_await sim_.delay(net_.config().rpc_timeout_s);
    co_return false;
  }
  const double bytes = static_cast<double>(data.size());
  const double t0 = sim_.now();
  if (window_.policy().level == DurabilityLevel::kImmediate) {
    // Streaming write-through: the network transfer and the disk write run
    // concurrently; the block is acked when both finish (hsync per block).
    std::vector<sim::Task<void>> legs;
    legs.push_back(net_.transfer(from, node_, bytes, rate_cap));
    legs.push_back(net_.disk(node_).write(bytes));
    co_await sim::when_all(sim_, std::move(legs));
    if (down_) co_return false;  // crashed mid-transfer: bytes discarded
    store_.put(block_key(id), data.serialize());
    cache_touch(id, data.size());  // freshly written blocks sit in page cache
    ++blocks_stored_;
    m_blocks_received_->inc();
    m_bytes_received_->inc(bytes);
    if (tracer_->enabled()) {
      tracer_->complete("hdfs", "hdfs", node_, "recv_block", t0,
                        block_args(id, data.size()));
    }
    co_return true;
  }

  // hflush path (kBatched/kNone): the block completes on the transfer
  // alone; the background syncer hsyncs it later.
  co_await net_.transfer(from, node_, bytes, rate_cap);
  if (down_) co_return false;  // crashed mid-transfer: bytes discarded
  store_.put(block_key(id), data.serialize());
  cache_touch(id, data.size());
  ++blocks_stored_;
  const uint64_t my_seq = window_.push(id, data.size());
  m_blocks_received_->inc();
  m_bytes_received_->inc(bytes);

  // Ack per the durability policy: kNone immediately; kBatched once the
  // acked-unsynced window is at most max_records blocks.
  bool acked = true;
  if (window_.policy().level != DurabilityLevel::kNone) {
    acked = co_await window_.wait_acked(my_seq);
  }
  if (tracer_->enabled()) {
    tracer_->complete("hdfs", "hdfs", node_, "recv_block", t0,
                      block_args(id, data.size()));
  }
  co_return acked;
}

sim::Task<std::optional<DataSpec>> DataNode::read_block(net::NodeId client,
                                                        BlockId id,
                                                        uint64_t offset,
                                                        uint64_t length) {
  if (down_) {
    co_await sim_.delay(net_.config().rpc_timeout_s);
    co_return std::nullopt;
  }
  const double t0 = sim_.now();
  co_await net_.control(client, node_);
  auto raw = store_.get(block_key(id));
  if (!raw.has_value()) {
    co_await net_.control(node_, client);
    co_return std::nullopt;
  }
  DataSpec block = DataSpec::deserialize(raw->data(), raw->size());
  BS_CHECK(offset <= block.size());
  length = std::min(length, block.size() - offset);
  DataSpec out = block.slice(offset, length);
  if (cache_contains(id)) {
    // Served from the page cache: network only.
    ++cache_hits_;
    m_cache_hits_->inc();
    cache_touch(id, block.size());
    co_await net_.transfer(node_, client, static_cast<double>(length));
  } else {
    ++cache_misses_;
    m_cache_misses_->inc();
    // Disk read and network send overlap (streaming).
    std::vector<sim::Task<void>> legs;
    legs.push_back(net_.disk(node_).read(static_cast<double>(length)));
    legs.push_back(net_.transfer(node_, client, static_cast<double>(length)));
    co_await sim::when_all(sim_, std::move(legs));
    cache_touch(id, block.size());
  }
  // Crashed while serving (mid-read): the stream resets; the reader fails
  // over to another replica.
  if (down_) co_return std::nullopt;
  bytes_served_ += length;
  m_bytes_served_->inc(static_cast<double>(length));
  if (tracer_->enabled()) {
    tracer_->complete("hdfs", "hdfs", node_, "read_block", t0,
                      block_args(id, length));
  }
  co_return out;
}

sim::Task<bool> DataNode::replicate_to(DataNode& dst, BlockId id,
                                       double rate_cap) {
  if (down_ || dst.down_) co_return false;
  auto raw = store_.get(block_key(id));
  if (!raw.has_value()) co_return false;
  DataSpec block = DataSpec::deserialize(raw->data(), raw->size());
  if (cache_contains(id)) {
    ++cache_hits_;
    cache_touch(id, block.size());
  } else {
    ++cache_misses_;
    co_await net_.disk(node_).read(static_cast<double>(block.size()));
    cache_touch(id, block.size());
  }
  // receive_block pays the dn→dn flow and the destination disk write.
  const bool ok =
      co_await dst.receive_block(node_, id, std::move(block), rate_cap);
  if (ok) m_replications_->inc();
  co_return ok;
}

void DataNode::forget_block(BlockId id) {
  store_.erase(block_key(id));
  auto it = lru_index_.find(id);
  if (it != lru_index_.end()) {
    ram_used_ -= it->second->second;
    lru_.erase(it->second);
    lru_index_.erase(it);
  }
}

void DataNode::crash(bool wipe_storage) {
  down_ = true;
  // Power loss: the unsynced window dies with the page cache — exactly the
  // window, no more, no less. (The batch in flight is failed by the
  // incarnation machinery and accounted by the syncer when its disk write
  // resolves; synced blocks survive unless the disk is wiped below.)
  window_.power_loss();
  if (wipe_storage) {
    std::vector<std::string> keys;
    store_.scan("", "", [&](const std::string& k, const Bytes&) {
      keys.push_back(k);
      return true;
    });
    for (const auto& k : keys) store_.erase(k);
    lru_.clear();
    lru_index_.clear();
    ram_used_ = 0;
  }
}

bool DataNode::has_block(BlockId id) const {
  return store_.contains(block_key(id));
}

}  // namespace bs::hdfs
