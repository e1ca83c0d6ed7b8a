#include "hdfs/namenode.h"

#include <algorithm>

#include "common/assert.h"
#include "fs/filesystem.h"
#include "net/replica_order.h"
#include "obs/metrics.h"

namespace bs::hdfs {

NameNode::NameNode(sim::Simulator& sim, net::Network& net,
                   std::vector<net::NodeId> datanode_nodes, NameNodeConfig cfg)
    : sim_(sim), net_(net), cfg_(cfg),
      svc_(net, cfg.node, cfg.service_time_s),
      datanodes_(std::move(datanode_nodes)), rng_(cfg.placement_seed) {
  BS_CHECK(!datanodes_.empty());
  BS_CHECK(cfg_.replication >= 1);
  entries_["/"] = FileEntry{true, false, 0, {}, 0};
  static const char* kOpNames[kOpCount] = {
      "create", "add_block", "complete_block", "abandon_block", "close",
      "stat", "block_locations", "list", "remove", "rename", "mkdir"};
  for (int op = 0; op < kOpCount; ++op) {
    m_op_[op] =
        &sim_.metrics().counter("hdfs/namenode_ops", {{"op", kOpNames[op]}});
  }
}

void NameNode::mkdirs_locked(const std::string& path) {
  if (path.empty() || path == "/") return;
  mkdirs_locked(fs::parent_path(path));
  if (entries_.count(path) == 0) {
    entries_[path] = FileEntry{true, false, 0, {}, 0};
  }
}

std::optional<net::NodeId> NameNode::pick_datanode(
    const std::vector<net::NodeId>& taken,
    const std::function<bool(net::NodeId)>& pred) {
  auto eligible = [&](net::NodeId n) {
    return std::find(taken.begin(), taken.end(), n) == taken.end() &&
           !node_dead(n) && pred(n);
  };
  for (int attempt = 0; attempt < 64; ++attempt) {
    const net::NodeId n = datanodes_[rng_.below(datanodes_.size())];
    if (eligible(n)) return n;
  }
  for (net::NodeId n : datanodes_) {  // deterministic fallback sweep
    if (eligible(n)) return n;
  }
  return std::nullopt;
}

std::vector<net::NodeId> NameNode::choose_replicas(
    net::NodeId client, const std::vector<net::NodeId>& exclude,
    uint32_t replication) {
  // Paper §IV.B: "the first replica of a chunk is always written locally;
  // ... the second replica is stored on a datanode in the same rack as the
  // first, and the third copy is sent to a datanode belonging to a
  // different rack (randomly chosen)."
  const auto& ncfg = net_.config();
  std::vector<net::NodeId> out;
  auto is_datanode = [&](net::NodeId n) {
    return std::find(datanodes_.begin(), datanodes_.end(), n) !=
           datanodes_.end();
  };
  auto pick_random = [&](auto&& pred) -> std::optional<net::NodeId> {
    std::vector<net::NodeId> taken = exclude;
    taken.insert(taken.end(), out.begin(), out.end());
    return pick_datanode(taken, pred);
  };
  auto excluded = [&](net::NodeId n) {
    return std::find(exclude.begin(), exclude.end(), n) != exclude.end();
  };

  // First replica: local if the writer runs a datanode, else random.
  if (is_datanode(client) && !node_dead(client) && !excluded(client)) {
    out.push_back(client);
  } else if (auto n = pick_random([](net::NodeId) { return true; })) {
    out.push_back(*n);
  }
  if (out.empty()) return out;  // every datanode believed dead
  if (out.size() >= replication) {
    out.resize(replication);
    return out;
  }
  const uint32_t first_rack = ncfg.rack_of(out[0]);
  // Second replica: same rack as the first.
  if (auto n = pick_random(
          [&](net::NodeId cand) { return ncfg.rack_of(cand) == first_rack; })) {
    out.push_back(*n);
  } else if (auto any = pick_random([](net::NodeId) { return true; })) {
    out.push_back(*any);
  }
  // Third and beyond: different rack (randomly chosen).
  while (out.size() < replication) {
    auto n = pick_random(
        [&](net::NodeId cand) { return ncfg.rack_of(cand) != first_rack; });
    if (!n) n = pick_random([](net::NodeId) { return true; });
    if (!n) break;  // fewer datanodes than replication
    out.push_back(*n);
  }
  return out;
}

net::Service::Call<bool> NameNode::create(net::NodeId client,
                                          const std::string& path,
                                          uint32_t replication) {
  return svc_.call(client, [this, client, &path, replication] {
    m_op_[kOpCreate]->inc();
    if (entries_.count(path) > 0) return false;
    mkdirs_locked(fs::parent_path(path));
    FileEntry entry;
    entry.under_construction = true;
    entry.lease_holder = client;
    entry.replication = replication;
    entries_[path] = std::move(entry);
    return true;
  });
}

net::Service::Call<std::optional<BlockInfo>> NameNode::add_block(
    net::NodeId client, const std::string& path,
    const std::vector<net::NodeId>& exclude) {
  return svc_.call(client, [this, client, &path, &exclude] {
    m_op_[kOpAddBlock]->inc();
    std::optional<BlockInfo> out;
    auto it = entries_.find(path);
    if (it != entries_.end() && it->second.under_construction &&
        it->second.lease_holder == client) {
      BlockInfo block;
      block.id = next_block_++;
      block.replicas = choose_replicas(client, exclude, degree_of(it->second));
      it->second.blocks.push_back(block);
      out = block;
    }
    return out;
  });
}

net::Service::Call<bool> NameNode::complete_block(
    net::NodeId client, const std::string& path, BlockId block, uint64_t size,
    const std::vector<net::NodeId>& stored) {
  return svc_.call(client, [this, client, &path, block, size, &stored] {
    m_op_[kOpCompleteBlock]->inc();
    auto it = entries_.find(path);
    if (it == entries_.end() || it->second.lease_holder != client) {
      return false;
    }
    for (auto& b : it->second.blocks) {
      if (b.id == block) {
        b.size = size;
        if (!stored.empty()) b.replicas = stored;
        it->second.size += size;
        return true;
      }
    }
    return false;
  });
}

net::Service::Call<bool> NameNode::abandon_block(net::NodeId client,
                                                 const std::string& path,
                                                 BlockId block) {
  return svc_.call(client, [this, client, &path, block] {
    m_op_[kOpAbandonBlock]->inc();
    auto it = entries_.find(path);
    if (it == entries_.end() || it->second.lease_holder != client) {
      return false;
    }
    auto& blocks = it->second.blocks;
    for (auto bit = blocks.begin(); bit != blocks.end(); ++bit) {
      if (bit->id == block) {
        blocks.erase(bit);
        return true;
      }
    }
    return false;
  });
}

std::vector<NameNode::UnderReplicated> NameNode::scan_under_replicated(
    const std::function<bool(net::NodeId, BlockId)>& holds) const {
  std::vector<UnderReplicated> out;
  for (const auto& [path, entry] : entries_) {
    if (entry.is_dir || entry.under_construction) continue;
    // MapReduce scratch (shuffle intermediates, attempt temp files) is
    // job-lifetime-only and never worth repair bandwidth — same policy as
    // the BSFS-side fault::RepairService::repair_namespace.
    if (path.find("/_intermediate/") != std::string::npos ||
        path.find("/_attempts/") != std::string::npos) {
      continue;
    }
    const uint32_t degree = degree_of(entry);
    for (const BlockInfo& b : entry.blocks) {
      std::vector<net::NodeId> live;
      for (net::NodeId r : b.replicas) {
        if (!node_dead(r) && (holds == nullptr || holds(r, b.id))) {
          live.push_back(r);
        }
      }
      if (live.size() >= degree && live.size() == b.replicas.size()) {
        continue;
      }
      UnderReplicated u;
      u.path = path;
      u.block = b.id;
      u.size = b.size;
      u.missing = degree > live.size()
                      ? degree - static_cast<uint32_t>(live.size())
                      : 0;
      u.live = std::move(live);
      out.push_back(std::move(u));
    }
  }
  return out;
}

std::vector<net::NodeId> NameNode::choose_replacements(
    const std::vector<net::NodeId>& exclude, uint32_t count) {
  const auto& ncfg = net_.config();
  std::vector<net::NodeId> out;
  while (out.size() < count) {
    std::vector<net::NodeId> taken = exclude;
    taken.insert(taken.end(), out.begin(), out.end());
    // Preserve rack diversity: while every replica (survivors + picks so
    // far) sits in one rack, prefer a different rack, so a later rack
    // failure cannot take out the whole set. Best-effort, like placement.
    const uint32_t crowded_rack = net::single_rack_of(taken, ncfg);
    std::optional<net::NodeId> pick;
    if (crowded_rack != UINT32_MAX) {
      pick = pick_datanode(taken, [&](net::NodeId n) {
        return ncfg.rack_of(n) != crowded_rack;
      });
    }
    if (!pick) pick = pick_datanode(taken, [](net::NodeId) { return true; });
    if (!pick) break;  // cluster too degraded
    out.push_back(*pick);
  }
  return out;
}

void NameNode::set_block_replicas(const std::string& path, BlockId block,
                                  std::vector<net::NodeId> replicas) {
  // The file (or block) may have been removed while repair copies were in
  // flight — the result is simply dropped, like a late block report.
  auto it = entries_.find(path);
  if (it == entries_.end()) return;
  for (auto& b : it->second.blocks) {
    if (b.id == block) {
      b.replicas = std::move(replicas);
      return;
    }
  }
}

net::Service::Call<bool> NameNode::close_file(net::NodeId client,
                                              const std::string& path) {
  return svc_.call(client, [this, client, &path] {
    m_op_[kOpClose]->inc();
    auto it = entries_.find(path);
    if (it == entries_.end() || !it->second.under_construction ||
        it->second.lease_holder != client) {
      return false;
    }
    it->second.under_construction = false;
    return true;
  });
}

net::Service::Call<std::optional<NameNode::Stat>> NameNode::stat(
    net::NodeId client, const std::string& path) {
  return svc_.call(client, [this, &path] {
    m_op_[kOpStat]->inc();
    std::optional<Stat> out;
    auto it = entries_.find(path);
    if (it != entries_.end()) {
      out = Stat{it->second.size, it->second.is_dir,
                 it->second.under_construction};
    }
    return out;
  });
}

net::Service::Call<std::vector<BlockInfo>> NameNode::block_locations(
    net::NodeId client, const std::string& path, uint64_t offset,
    uint64_t length) {
  return svc_.call(client, [this, &path, offset, length] {
    m_op_[kOpLocations]->inc();
    std::vector<BlockInfo> out;
    auto it = entries_.find(path);
    if (it != entries_.end() && !it->second.is_dir) {
      uint64_t at = 0;
      for (const auto& b : it->second.blocks) {
        const uint64_t b_end = at + b.size;
        if (b_end > offset && at < offset + length) out.push_back(b);
        at = b_end;
      }
    }
    return out;
  });
}

net::Service::Call<std::vector<std::string>> NameNode::list(
    net::NodeId client, const std::string& dir) {
  return svc_.call(client, [this, &dir] {
    m_op_[kOpList]->inc();
    std::vector<std::string> out;
    const std::string prefix = dir == "/" ? "/" : dir + "/";
    for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
      const std::string& p = it->first;
      if (p.compare(0, prefix.size(), prefix) != 0) break;
      if (p == dir) continue;  // the directory itself is not its own child
      if (p.find('/', prefix.size()) == std::string::npos) out.push_back(p);
    }
    return out;
  });
}

net::Service::Call<bool> NameNode::remove(net::NodeId client,
                                          const std::string& path) {
  return svc_.call(client, [this, &path] {
    m_op_[kOpRemove]->inc();
    return entries_.erase(path) > 0;
  });
}

net::Service::Call<bool> NameNode::rename(net::NodeId client,
                                          const std::string& from,
                                          const std::string& to) {
  return svc_.call(client, [this, &from, &to] {
    m_op_[kOpRename]->inc();
    auto it = entries_.find(from);
    if (it == entries_.end() || it->second.is_dir ||
        it->second.under_construction || entries_.count(to) > 0) {
      return false;
    }
    mkdirs_locked(fs::parent_path(to));
    entries_[to] = std::move(it->second);
    entries_.erase(from);
    return true;
  });
}

net::Service::Call<bool> NameNode::mkdir(net::NodeId client,
                                         const std::string& path) {
  return svc_.call(client, [this, &path] {
    m_op_[kOpMkdir]->inc();
    auto it = entries_.find(path);
    if (it != entries_.end()) return it->second.is_dir;
    mkdirs_locked(path);
    return true;
  });
}

}  // namespace bs::hdfs
