#include "hdfs/hdfs.h"

#include <algorithm>
#include <numeric>

#include "common/assert.h"
#include "net/replica_order.h"
#include "sim/parallel.h"

namespace bs::hdfs {

// ---------- Hdfs ----------

Hdfs::Hdfs(sim::Simulator& sim, net::Network& net, HdfsConfig cfg,
           std::vector<net::NodeId> datanode_nodes)
    : sim_(sim), net_(net), cfg_(cfg) {
  if (datanode_nodes.empty()) {
    datanode_nodes.resize(net.config().num_nodes);
    std::iota(datanode_nodes.begin(), datanode_nodes.end(), 0);
  }
  namenode_ = std::make_unique<NameNode>(sim, net, datanode_nodes,
                                         cfg_.namenode);
  for (net::NodeId n : datanode_nodes) {
    datanodes_.emplace(n, std::make_unique<DataNode>(sim, net, n, cfg_.datanode_ram,
                                                     cfg_.datanode_durability));
  }
}

std::unique_ptr<fs::FsClient> Hdfs::make_client(net::NodeId node) {
  return std::make_unique<HdfsClient>(*this, node);
}

void Hdfs::set_liveness(const net::LivenessView* view) {
  liveness_ = view;
  namenode_->set_liveness(view);
}

sim::Task<void> Hdfs::drain_all() {
  // Deterministic launch order (datanodes_ is an unordered_map).
  std::vector<net::NodeId> nodes;
  nodes.reserve(datanodes_.size());
  for (auto& [node, dn] : datanodes_) nodes.push_back(node);
  std::sort(nodes.begin(), nodes.end());
  std::vector<sim::Task<void>> drains;
  drains.reserve(nodes.size());
  for (net::NodeId n : nodes) drains.push_back(datanodes_.at(n)->drain());
  co_await sim::when_all(sim_, std::move(drains));
}

void Hdfs::crash_datanode(net::NodeId node, bool wipe_storage) {
  net_.set_node_up(node, false);
  datanodes_.at(node)->crash(wipe_storage);
}

void Hdfs::recover_datanode(net::NodeId node) {
  net_.set_node_up(node, true);
  datanodes_.at(node)->recover();
}

sim::Task<void> Hdfs::repair_block(NameNode::UnderReplicated block,
                                   RepairStats* stats) {
  if (block.live.empty()) {
    // Every replica died: the block is lost until a node recovers un-wiped.
    ++stats->unrepairable;
    co_return;
  }
  std::vector<net::NodeId> healthy = block.live;
  if (block.missing > 0) {
    auto targets =
        namenode_->choose_replacements(block.live, block.missing);
    for (net::NodeId target : targets) {
      bool copied = false;
      for (net::NodeId src : block.live) {
        copied = co_await datanodes_.at(src)->replicate_to(
            *datanodes_.at(target), block.block);
        if (copied) break;
      }
      if (copied) {
        healthy.push_back(target);
        ++stats->replicas_restored;
        stats->bytes_copied += block.size;
      }
    }
  }
  namenode_->set_block_replicas(block.path, block.block, std::move(healthy));
}

sim::Task<Hdfs::RepairStats> Hdfs::repair_under_replicated(
    net::NodeId initiator, uint32_t copy_parallelism) {
  RepairStats stats;
  // One modeled round trip for the namespace scan (the NameNode owns all
  // block metadata, so the scan itself is a local walk there).
  co_await net_.control(initiator, cfg_.namenode.node);
  // Block reports: only replicas whose datanode actually holds the block
  // count (a wiped-and-recovered node is up but empty).
  auto under = namenode_->scan_under_replicated(
      [this](net::NodeId n, BlockId id) {
        return datanodes_.at(n)->has_block(id);
      });
  stats.under_replicated = under.size();
  co_await net_.control(cfg_.namenode.node, initiator);

  std::vector<sim::Task<void>> copies;
  copies.reserve(under.size());
  for (auto& u : under) {
    copies.push_back(repair_block(std::move(u), &stats));
  }
  co_await sim::when_all_limited(sim_, std::move(copies), copy_parallelism);
  stats.finished_at = sim_.now();
  co_return stats;
}

// ---------- HdfsClient ----------

sim::Task<std::unique_ptr<fs::FsWriter>> HdfsClient::create(
    const std::string& path) {
  return create_replicated(path, 0);
}

sim::Task<std::unique_ptr<fs::FsWriter>> HdfsClient::create_replicated(
    const std::string& path, uint32_t replication) {
  const bool ok = co_await owner_.namenode_->create(node_, path, replication);
  if (!ok) co_return nullptr;
  co_return std::make_unique<HdfsWriter>(owner_, node_, path);
}

sim::Task<std::unique_ptr<fs::FsReader>> HdfsClient::open(
    const std::string& path) {
  auto st = co_await owner_.namenode_->stat(node_, path);
  if (!st.has_value() || st->is_dir || st->under_construction) {
    co_return nullptr;
  }
  co_return std::make_unique<HdfsReader>(owner_, node_, path, st->size);
}

sim::Task<std::unique_ptr<fs::FsWriter>> HdfsClient::append(
    const std::string& path) {
  // "Once a file is created, written and closed, the data cannot be
  // overwritten or appended to." (paper §II.C)
  (void)path;
  co_return nullptr;
}

sim::Task<std::unique_ptr<fs::FsWriter>> HdfsClient::append_shared(
    const std::string& path) {
  (void)path;
  co_return nullptr;
}

sim::Task<std::optional<fs::FileStat>> HdfsClient::stat(
    const std::string& path) {
  auto st = co_await owner_.namenode_->stat(node_, path);
  if (!st.has_value()) co_return std::nullopt;
  fs::FileStat out;
  out.path = path;
  out.size = st->size;
  out.is_dir = st->is_dir;
  out.block_size = owner_.cfg_.namenode.block_size;
  co_return out;
}

sim::Task<std::vector<std::string>> HdfsClient::list(const std::string& dir) {
  co_return co_await owner_.namenode_->list(node_, dir);
}

sim::Task<bool> HdfsClient::remove(const std::string& path) {
  co_return co_await owner_.namenode_->remove(node_, path);
}

sim::Task<bool> HdfsClient::rename(const std::string& from,
                                   const std::string& to) {
  co_return co_await owner_.namenode_->rename(node_, from, to);
}

sim::Task<std::vector<fs::BlockLocation>> HdfsClient::locations(
    const std::string& path, uint64_t offset, uint64_t length) {
  auto blocks =
      co_await owner_.namenode_->block_locations(node_, path, offset, length);
  std::vector<fs::BlockLocation> out;
  uint64_t at = 0;
  // Recompute each block's file offset from the full block list order.
  auto all = co_await owner_.namenode_->block_locations(node_, path, 0,
                                                        UINT64_MAX);
  for (const auto& b : all) {
    if (std::find_if(blocks.begin(), blocks.end(), [&](const BlockInfo& x) {
          return x.id == b.id;
        }) != blocks.end()) {
      out.push_back(fs::BlockLocation{at, b.size, b.replicas});
    }
    at += b.size;
  }
  co_return out;
}

// ---------- HdfsWriter ----------

HdfsWriter::HdfsWriter(Hdfs& owner, net::NodeId node, std::string path)
    : owner_(owner), node_(node), path_(std::move(path)) {}

sim::Task<bool> HdfsWriter::write(DataSpec data) {
  BS_CHECK_MSG(!closed_, "write after close");
  if (data.size() == 0) co_return true;
  pending_bytes_ += data.size();
  bytes_written_ += data.size();
  pending_.push_back(std::move(data));
  co_return co_await flush(owner_.cfg_.namenode.block_size);
}

sim::Task<bool> HdfsWriter::flush(uint64_t threshold) {
  while (pending_bytes_ >= threshold && pending_bytes_ > 0) {
    const uint64_t take_target =
        std::min<uint64_t>(owner_.cfg_.namenode.block_size, pending_bytes_);
    std::vector<DataSpec> chunk;
    uint64_t taken = 0;
    while (taken < take_target) {
      DataSpec& front = pending_.front();
      const uint64_t need = take_target - taken;
      if (front.size() <= need) {
        taken += front.size();
        chunk.push_back(std::move(front));
        pending_.erase(pending_.begin());
      } else {
        chunk.push_back(front.slice(0, need));
        front = front.slice(need, front.size() - need);
        taken += need;
      }
    }
    pending_bytes_ -= taken;
    DataSpec block = concat(chunk);

    // Stream the block through the replica pipeline. In the fluid model all
    // hops run concurrently (cut-through); each hop is one network stream
    // (capped at stream efficiency) plus the receiver's disk write. A hop
    // whose datanode died truncates the pipeline there: downstream hops may
    // have streamed bytes before learning their upstream died (cut-through
    // again), but discard them at teardown. One retry asks the NameNode for
    // a fresh pipeline, which avoids nodes already detected dead.
    const double cap =
        owner_.cfg_.stream_efficiency * owner_.net_.config().nic_bps;
    bool stored_any = false;
    std::vector<net::NodeId> failed_nodes;  // excludedNodes on retry
    for (int attempt = 0; attempt < 2 && !stored_any; ++attempt) {
      auto binfo =
          co_await owner_.namenode_->add_block(node_, path_, failed_nodes);
      if (!binfo.has_value() || binfo->replicas.empty()) co_return false;
      std::vector<sim::Task<bool>> hops;
      net::NodeId from = node_;
      for (net::NodeId dn : binfo->replicas) {
        hops.push_back(owner_.datanodes_.at(dn)->receive_block(
            from, binfo->id, block, cap));
        from = dn;
      }
      auto acks = co_await sim::when_all(owner_.sim_, std::move(hops));
      std::vector<net::NodeId> stored;
      size_t prefix = 0;
      while (prefix < acks.size() && acks[prefix]) {
        stored.push_back(binfo->replicas[prefix]);
        ++prefix;
      }
      for (size_t j = prefix; j < acks.size(); ++j) {
        if (!acks[j]) failed_nodes.push_back(binfo->replicas[j]);
      }
      // Pipeline teardown: hops past the first failure discard what they
      // received (their upstream never forwarded a commit).
      for (size_t j = prefix + 1; j < acks.size(); ++j) {
        if (acks[j]) {
          owner_.datanodes_.at(binfo->replicas[j])->forget_block(binfo->id);
        }
      }
      stored_any = !stored.empty();
      if (stored_any) {
        const bool ok = co_await owner_.namenode_->complete_block(
            node_, path_, binfo->id, block.size(), stored);
        if (!ok) co_return false;
      } else {
        // Whole pipeline failed from the first hop: abandon the block and
        // ask for a fresh pipeline.
        co_await owner_.namenode_->abandon_block(node_, path_, binfo->id);
      }
    }
    if (!stored_any) co_return false;
  }
  co_return true;
}

sim::Task<bool> HdfsWriter::close() {
  if (closed_) co_return true;
  closed_ = true;
  // NB: never write `co_await` inside a condition — GCC 12 miscompiles it
  // (the callee's frame is never entered / SIGILL). Hoist to a local.
  const bool flushed = co_await flush(1);
  if (!flushed) co_return false;
  co_return co_await owner_.namenode_->close_file(node_, path_);
}

// ---------- HdfsReader ----------

HdfsReader::HdfsReader(Hdfs& owner, net::NodeId node, std::string path,
                       uint64_t size)
    : owner_(owner), node_(node), path_(std::move(path)), size_(size) {}

sim::Task<DataSpec> HdfsReader::read(uint64_t offset, uint64_t size) {
  if (offset >= size_ || size == 0) co_return DataSpec::from_bytes(Bytes{});
  size = std::min(size, size_ - offset);

  std::vector<DataSpec> parts;
  uint64_t at = offset;
  const uint64_t end = offset + size;
  while (at < end) {
    if (cached_start_ != UINT64_MAX && at >= cached_start_ &&
        at < cached_start_ + cached_data_.size()) {
      const uint64_t take =
          std::min(end, cached_start_ + cached_data_.size()) - at;
      parts.push_back(cached_data_.slice(at - cached_start_, take));
      at += take;
      continue;
    }
    // Resolve the block containing `at` at the NameNode (per-block lookup —
    // this is the centralized load BSFS avoids), then stream it from the
    // closest replica.
    auto blocks = co_await owner_.namenode_->block_locations(node_, path_, at, 1);
    BS_CHECK_MSG(!blocks.empty(), "hole in HDFS file");
    const BlockInfo& block = blocks[0];
    // Block's start offset: blocks are fixed-size except the last, so
    // derive from block size ordering via a full map lookup-free formula:
    // all blocks before it are full-sized.
    const uint64_t block_start =
        at / owner_.cfg_.namenode.block_size * owner_.cfg_.namenode.block_size;
    // Replica order: local → rack-local → hash-spread remainder; replicas
    // believed dead go last, and a failed fetch falls over to the next.
    BS_CHECK(!block.replicas.empty());
    const std::vector<net::NodeId> order = net::replica_order(
        block.replicas, node_, owner_.net_.config(), owner_.liveness_,
        block.id);
    std::optional<DataSpec> data;
    for (net::NodeId r : order) {
      data = co_await owner_.datanodes_.at(r)->read_block(node_, block.id, 0,
                                                          block.size);
      if (data.has_value()) break;
    }
    BS_CHECK_MSG(data.has_value(),
                 "read failed: every replica of the block is gone");
    cached_start_ = block_start;
    cached_data_ = *std::move(data);
  }
  co_return parts.size() == 1 ? std::move(parts[0]) : concat(parts);
}

}  // namespace bs::hdfs
