#include "bsfs/namespace.h"

#include <algorithm>

#include "common/hash.h"
#include "common/rng.h"
#include "fs/filesystem.h"
#include "sim/parallel.h"

namespace bs::bsfs {

namespace {

// Per-request service time at a namespace shard.
constexpr double kServiceTimeS = 60e-6;

// The splitmix64 finalizer avalanches FNV's weakly-mixed tail bytes —
// sibling paths ("/d/f1", "/d/f2", ...) otherwise cluster on a few arcs.
uint64_t ring_key(const std::string& path) {
  return splitmix64(fnv1a64(path));
}

}  // namespace

NamespaceManager::NamespaceManager(sim::Simulator& sim, net::Network& net,
                                   NamespaceConfig cfg)
    : sim_(sim),
      ring_(net,
            cfg.shard_nodes.empty() ? std::vector<net::NodeId>{cfg.node}
                                    : cfg.shard_nodes,
            kServiceTimeS, "bsfs/ns_requests") {
  entries_["/"] = NsEntry{true, 0, 0, false};
}

net::NodeId NamespaceManager::shard_node(const std::string& path) const {
  return ring_.owner(ring_key(path)).node();
}

uint64_t NamespaceManager::mutation_epoch(const std::string& path) const {
  auto it = epochs_.find(path);
  return it == epochs_.end() ? 0 : it->second;
}

void NamespaceManager::bump_epoch(const std::string& path) {
  ++epochs_[path];
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

net::Service::Call<bool> NamespaceManager::add_file(net::NodeId client,
                                                    const std::string& path,
                                                    blob::BlobId blob,
                                                    uint64_t block_size) {
  return ring_.owner(ring_key(path)).call(
      client, [this, &path, blob, block_size] {
        if (entries_.count(path) > 0) return false;
        // Parent directories piggyback on this request: they are pure
        // presence markers, so the entry owner creates them and their owners
        // learn of them lazily (no extra round trips — Hadoop-style implicit
        // mkdirs).
        mkdirs_locked(fs::parent_path(path));
        entries_[path] = NsEntry{false, blob, block_size, true};
        bump_epoch(path);
        return true;
      });
}

net::Service::Call<bool> NamespaceManager::finalize(net::NodeId client,
                                                    const std::string& path) {
  return ring_.owner(ring_key(path)).call(client, [this, &path] {
    auto it = entries_.find(path);
    // Idempotent: closing an append writer (the file was already finalized
    // once) succeeds; only directories and missing paths fail.
    const bool ok = it != entries_.end() && !it->second.is_dir;
    if (ok) {
      it->second.under_construction = false;
      bump_epoch(path);
    }
    return ok;
  });
}

net::Service::Call<bool> NamespaceManager::reopen_for_append(
    net::NodeId client, const std::string& path) {
  return ring_.owner(ring_key(path)).call(client, [this, &path] {
    auto it = entries_.find(path);
    // Note: no lease is taken — BlobSeer serializes concurrent appends
    // internally (version manager), so multiple appenders are legal.
    return it != entries_.end() && !it->second.is_dir;
  });
}

net::Service::Call<std::optional<NsEntry>> NamespaceManager::lookup(
    net::NodeId client, const std::string& path) {
  return ring_.owner(ring_key(path)).call(client, [this, &path] {
    std::optional<NsEntry> out;
    auto it = entries_.find(path);
    if (it != entries_.end()) out = it->second;
    return out;
  });
}

net::Service::Call<bool> NamespaceManager::mkdir(net::NodeId client,
                                                 const std::string& path) {
  return ring_.owner(ring_key(path)).call(client, [this, &path] {
    auto it = entries_.find(path);
    if (it != entries_.end()) return it->second.is_dir;
    mkdirs_locked(path);
    return true;
  });
}

sim::Task<std::vector<std::string>> NamespaceManager::list(
    net::NodeId client, const std::string& dir) {
  // Fan out: every shard owns a slice of the directory's children, so each
  // owner scans its partition and the client merges. The visits run in
  // parallel — a listing costs one round trip plus the busiest shard's
  // queueing, not the sum.
  std::vector<sim::Task<void>> visits;
  visits.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    auto roundtrip = [](net::Service* s, net::NodeId from) -> sim::Task<void> {
      co_await s->request(from);
      co_await s->reply(from);
    };
    visits.push_back(roundtrip(&ring_.at(i), client));
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

net::Service::Call<bool> NamespaceManager::remove(net::NodeId client,
                                                  const std::string& path) {
  return ring_.owner(ring_key(path)).call(client, [this, &path] {
    const bool ok = entries_.erase(path) > 0;
    if (ok) bump_epoch(path);
    return ok;
  });
}

sim::Task<bool> NamespaceManager::rename(net::NodeId client,
                                         const std::string& from,
                                         const std::string& to) {
  // Owner-ordered two-phase: visit both entry owners in ascending ring
  // position (the deadlock-free lock order), decide and mutate atomically
  // at the second owner — which, in the real protocol, is the point where
  // both entry locks are held. Racing renames of one source therefore
  // still leave exactly one winner: every contender's check runs at its
  // final serial point with no suspension before the mutation.
  const size_t a = ring_.position(ring_key(from));
  const size_t b = ring_.position(ring_key(to));
  net::Service& first = ring_.at(std::min(a, b));
  net::Service& second = ring_.at(std::max(a, b));
  co_await first.request(client);
  if (&second != &first) co_await second.request(first.node());
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
  co_await second.reply(client);
  co_return ok;
}

}  // namespace bs::bsfs
