#include "bsfs/namespace.h"

#include "common/assert.h"
#include "common/hash.h"
#include "common/rng.h"
#include "fs/filesystem.h"
#include "obs/metrics.h"
#include "sim/parallel.h"

namespace bs::bsfs {

namespace {

std::vector<net::NodeId> effective_nodes(const NamespaceConfig& cfg) {
  if (cfg.shard_nodes.empty()) return {cfg.node};
  return cfg.shard_nodes;
}

}  // namespace

NamespaceManager::NamespaceManager(sim::Simulator& sim, net::Network& net,
                                   NamespaceConfig cfg)
    : sim_(sim), net_(net), cfg_(std::move(cfg)),
      ring_(effective_nodes(cfg_)) {
  obs::MetricsRegistry& m = sim_.metrics();
  const std::vector<net::NodeId> nodes = effective_nodes(cfg_);
  shards_.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    Shard s;
    s.node = nodes[i];
    s.queue = std::make_unique<net::ServiceQueue>(sim_, cfg_.service_time_s);
    s.m_requests =
        &m.counter("bsfs/ns_requests", {{"shard", std::to_string(i)}});
    BS_CHECK_MSG(shard_index_.emplace(s.node, i).second,
                 "duplicate namespace shard node");
    shards_.push_back(std::move(s));
  }
  entries_["/"] = NsEntry{true, 0, 0, false};
}

size_t NamespaceManager::shard_of(const std::string& path) const {
  if (shards_.size() == 1) return 0;
  // The splitmix64 finalizer avalanches FNV's weakly-mixed tail bytes —
  // sibling paths ("/d/f1", "/d/f2", ...) otherwise cluster on a few arcs.
  return shard_index_.at(ring_.primary(splitmix64(fnv1a64(path))));
}

net::NodeId NamespaceManager::shard_node(const std::string& path) const {
  return shards_[shard_of(path)].node;
}

uint64_t NamespaceManager::total_requests() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) total += s.requests;
  return total;
}

std::map<net::NodeId, uint64_t> NamespaceManager::requests_per_shard() const {
  std::map<net::NodeId, uint64_t> out;
  for (const Shard& s : shards_) out[s.node] += s.requests;
  return out;
}

uint64_t NamespaceManager::mutation_epoch(const std::string& path) const {
  auto it = epochs_.find(path);
  return it == epochs_.end() ? 0 : it->second;
}

void NamespaceManager::bump_epoch(const std::string& path) {
  ++epochs_[path];
}

sim::Task<void> NamespaceManager::visit(net::NodeId from, size_t shard) {
  Shard& s = shards_[shard];
  co_await net_.control(from, s.node);
  co_await s.queue->process();
  ++s.requests;
  s.m_requests->inc();
}

void NamespaceManager::mkdirs_locked(const std::string& path) {
  if (path.empty() || path == "/") return;
  mkdirs_locked(fs::parent_path(path));
  auto it = entries_.find(path);
  if (it == entries_.end()) {
    entries_[path] = NsEntry{true, 0, 0, false};
    bump_epoch(path);
  }
}

sim::Task<bool> NamespaceManager::add_file(net::NodeId client,
                                           const std::string& path,
                                           blob::BlobId blob,
                                           uint64_t block_size) {
  const size_t shard = shard_of(path);
  co_await visit(client, shard);
  bool ok = false;
  if (entries_.count(path) == 0) {
    // Parent directories piggyback on this request: they are pure presence
    // markers, so the entry owner creates them and their owners learn of
    // them lazily (no extra round trips — Hadoop-style implicit mkdirs).
    mkdirs_locked(fs::parent_path(path));
    entries_[path] = NsEntry{false, blob, block_size, true};
    bump_epoch(path);
    ok = true;
  }
  co_await net_.control(shards_[shard].node, client);
  co_return ok;
}

sim::Task<bool> NamespaceManager::finalize(net::NodeId client,
                                           const std::string& path) {
  const size_t shard = shard_of(path);
  co_await visit(client, shard);
  auto it = entries_.find(path);
  // Idempotent: closing an append writer (the file was already finalized
  // once) succeeds; only directories and missing paths fail.
  const bool ok = it != entries_.end() && !it->second.is_dir;
  if (ok) {
    it->second.under_construction = false;
    bump_epoch(path);
  }
  co_await net_.control(shards_[shard].node, client);
  co_return ok;
}

sim::Task<bool> NamespaceManager::reopen_for_append(net::NodeId client,
                                                    const std::string& path) {
  const size_t shard = shard_of(path);
  co_await visit(client, shard);
  auto it = entries_.find(path);
  const bool ok = it != entries_.end() && !it->second.is_dir;
  // Note: no lease is taken — BlobSeer serializes concurrent appends
  // internally (version manager), so multiple appenders are legal.
  co_await net_.control(shards_[shard].node, client);
  co_return ok;
}

sim::Task<std::optional<NsEntry>> NamespaceManager::lookup(
    net::NodeId client, const std::string& path) {
  const size_t shard = shard_of(path);
  co_await visit(client, shard);
  std::optional<NsEntry> out;
  auto it = entries_.find(path);
  if (it != entries_.end()) out = it->second;
  co_await net_.control(shards_[shard].node, client);
  co_return out;
}

sim::Task<bool> NamespaceManager::mkdir(net::NodeId client,
                                        const std::string& path) {
  const size_t shard = shard_of(path);
  co_await visit(client, shard);
  bool ok = false;
  auto it = entries_.find(path);
  if (it == entries_.end()) {
    mkdirs_locked(path);
    ok = true;
  } else {
    ok = it->second.is_dir;
  }
  co_await net_.control(shards_[shard].node, client);
  co_return ok;
}

sim::Task<std::vector<std::string>> NamespaceManager::list(
    net::NodeId client, const std::string& dir) {
  // Fan out: every shard owns a slice of the directory's children, so each
  // owner scans its partition and the client merges. The visits run in
  // parallel — a listing costs one round trip plus the busiest shard's
  // queueing, not the sum.
  std::vector<sim::Task<void>> visits;
  visits.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    auto roundtrip = [](NamespaceManager* self, net::NodeId from,
                        size_t shard) -> sim::Task<void> {
      co_await self->visit(from, shard);
      co_await self->net_.control(self->shards_[shard].node, from);
    };
    visits.push_back(roundtrip(this, client, i));
  }
  co_await sim::when_all(sim_, std::move(visits));
  // The merged scan over the (globally sorted) entry map: determinism and
  // output order are unchanged from the centralized manager.
  std::vector<std::string> out;
  const std::string prefix = dir == "/" ? "/" : dir + "/";
  for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
    const std::string& p = it->first;
    if (p.compare(0, prefix.size(), prefix) != 0) break;
    if (p == dir) continue;  // the directory itself is not its own child
    // Direct children only.
    if (p.find('/', prefix.size()) == std::string::npos) out.push_back(p);
  }
  co_return out;
}

sim::Task<bool> NamespaceManager::remove(net::NodeId client,
                                         const std::string& path) {
  const size_t shard = shard_of(path);
  co_await visit(client, shard);
  const bool ok = entries_.erase(path) > 0;
  if (ok) bump_epoch(path);
  co_await net_.control(shards_[shard].node, client);
  co_return ok;
}

sim::Task<bool> NamespaceManager::rename(net::NodeId client,
                                         const std::string& from,
                                         const std::string& to) {
  // Owner-ordered two-phase: visit both entry owners in ascending shard
  // order (the deadlock-free lock order), decide and mutate atomically at
  // the second owner — which, in the real protocol, is the point where
  // both entry locks are held. Racing renames of one source therefore
  // still leave exactly one winner: every contender's check runs at its
  // final serial point with no suspension before the mutation.
  const size_t sa = shard_of(from);
  const size_t sb = shard_of(to);
  const size_t first = sa < sb ? sa : sb;
  const size_t second = sa < sb ? sb : sa;
  co_await visit(client, first);
  if (second != first) {
    co_await visit(shards_[first].node, second);
  }
  bool ok = false;
  auto it = entries_.find(from);
  // Same contract as the HDFS NameNode (fs::FsClient::rename): only a
  // closed file moves — this is the MapReduce task-output commit
  // primitive, and both back-ends must agree on its preconditions.
  if (it != entries_.end() && !it->second.is_dir &&
      !it->second.under_construction && entries_.count(to) == 0) {
    mkdirs_locked(fs::parent_path(to));
    entries_[to] = it->second;
    entries_.erase(it);
    bump_epoch(from);
    bump_epoch(to);
    ok = true;
  }
  co_await net_.control(shards_[second].node, client);
  co_return ok;
}

}  // namespace bs::bsfs
