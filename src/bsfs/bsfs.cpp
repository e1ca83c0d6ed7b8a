#include "bsfs/bsfs.h"

#include <algorithm>
#include <map>

#include "common/assert.h"
#include "obs/metrics.h"

namespace bs::bsfs {

// ---------- Bsfs ----------

Bsfs::Bsfs(sim::Simulator& sim, net::Network& net,
           blob::BlobSeerCluster& cluster, NamespaceManager& ns,
           BsfsConfig cfg)
    : sim_(sim), net_(net), cluster_(cluster), ns_(ns), cfg_(cfg) {
  BS_CHECK_MSG(cfg_.block_size % cfg_.page_size == 0,
               "block size must be a multiple of the page size");
  // Lease instruments are registered here, in the constructor — never
  // inside a coroutine body (the PR-6 labeled-registration rule).
  obs::MetricsRegistry& m = sim_.metrics();
  m_ns_hits_ = &m.counter("bsfs/lease_hits", {{"kind", "ns"}});
  m_ns_misses_ = &m.counter("bsfs/lease_misses", {{"kind", "ns"}});
  m_vm_hits_ = &m.counter("bsfs/lease_hits", {{"kind", "vm"}});
  m_vm_misses_ = &m.counter("bsfs/lease_misses", {{"kind", "vm"}});
  g_ns_hit_rate_ = &m.gauge("bsfs/lease_hit_rate", {{"kind", "ns"}});
  g_vm_hit_rate_ = &m.gauge("bsfs/lease_hit_rate", {{"kind", "vm"}});
}

std::unique_ptr<fs::FsClient> Bsfs::make_client(net::NodeId node) {
  return std::make_unique<BsfsClient>(*this, node);
}

sim::Task<std::optional<NsEntry>> Bsfs::cached_lookup(net::NodeId node,
                                                      const std::string& path) {
  if (!leases_on()) co_return co_await ns_.lookup(node, path);
  NodeLeases& cache = leases_[node];
  auto it = cache.ns.find(path);
  if (it != cache.ns.end()) {
    const NsLease& lease = it->second;
    // Valid = inside the TTL window AND no invalidation arrived (the
    // owner's mutation epoch for this path is unchanged since grant).
    if (sim_.now() < lease.expires_at &&
        ns_.mutation_epoch(path) == lease.epoch) {
      ++ns_lease_hits_;
      m_ns_hits_->inc();
      g_ns_hit_rate_->set(static_cast<double>(ns_lease_hits_) /
                          static_cast<double>(ns_lease_hits_ + ns_lease_misses_));
      co_return lease.entry;
    }
    cache.ns.erase(it);
  }
  ++ns_lease_misses_;
  m_ns_misses_->inc();
  g_ns_hit_rate_->set(static_cast<double>(ns_lease_hits_) /
                      static_cast<double>(ns_lease_hits_ + ns_lease_misses_));
  auto entry = co_await ns_.lookup(node, path);
  if (entry.has_value()) {
    // Negative answers are never cached: a create would have to invalidate
    // a lease on a path that was never granted one.
    cache.ns[path] = NsLease{*entry, sim_.now() + cfg_.lease_ttl_s,
                             ns_.mutation_epoch(path)};
  }
  co_return entry;
}

sim::Task<blob::VersionInfo> Bsfs::cached_latest(net::NodeId node,
                                                 blob::BlobId blob) {
  blob::VersionManager& vm = cluster_.version_manager();
  if (!leases_on()) co_return co_await vm.latest(node, blob);
  NodeLeases& cache = leases_[node];
  auto it = cache.vm.find(blob);
  if (it != cache.vm.end()) {
    const VmLease& lease = it->second;
    // Valid = inside the TTL window AND no publish invalidated it (the
    // cached version is still the published one — the shard's push
    // channel, checked against shared state at zero modeled cost). A
    // lease therefore can never serve a version behind the published one.
    if (sim_.now() < lease.expires_at &&
        vm.published_version(blob) == lease.info.version) {
      ++vm_lease_hits_;
      m_vm_hits_->inc();
      g_vm_hit_rate_->set(static_cast<double>(vm_lease_hits_) /
                          static_cast<double>(vm_lease_hits_ + vm_lease_misses_));
      co_return lease.info;
    }
    cache.vm.erase(it);
  }
  ++vm_lease_misses_;
  m_vm_misses_->inc();
  g_vm_hit_rate_->set(static_cast<double>(vm_lease_hits_) /
                      static_cast<double>(vm_lease_hits_ + vm_lease_misses_));
  const blob::VersionInfo info = co_await vm.latest(node, blob);
  cache.vm[blob] = VmLease{info, sim_.now() + cfg_.lease_ttl_s};
  co_return info;
}

sim::Task<blob::Version> Bsfs::snapshot(net::NodeId node,
                                        const std::string& path) {
  auto entry = co_await cached_lookup(node, path);
  BS_CHECK_MSG(entry.has_value() && !entry->is_dir, "snapshot of a non-file");
  const auto info = co_await cached_latest(node, entry->blob);
  co_return info.version;
}

std::pair<std::string, blob::Version> parse_versioned_path(
    const std::string& path) {
  // One scanner for the "@v<digits>, final component only" rule:
  // fs::snapshot_base_size, which the SnapshotRegistry also uses to let a
  // pre-resolution pin on a decorated name guard its base path. Layering
  // on it keeps the two sides of that contract in lockstep ("/logs@v2/f"
  // stays a plain path — the '/' fails the digits scan).
  const size_t at = fs::snapshot_base_size(path);
  if (at == path.size()) return {path, blob::kNoVersion};
  blob::Version v = 0;
  for (size_t i = at + 2; i < path.size(); ++i) {
    v = v * 10 + static_cast<blob::Version>(path[i] - '0');
  }
  return {path.substr(0, at), v};
}

std::string versioned_path(const std::string& base, blob::Version version) {
  // "@v0" would decode back to kNoVersion (= latest), silently unpinning
  // the caller's intent; version 0 has no decorated name — the latest IS
  // the undecorated path.
  BS_CHECK_MSG(version != blob::kNoVersion,
               "version 0 names no snapshot; use the plain path for latest");
  return base + "@v" + std::to_string(version);
}

// ---------- BsfsClient ----------

namespace {

// Whether `path` names a version ("<path>@v<N>"), without copying it.
bool is_versioned(const std::string& path) {
  return fs::snapshot_base_size(path) != path.size();
}

}  // namespace

BsfsClient::BsfsClient(Bsfs& owner, net::NodeId node)
    : owner_(owner), node_(node) {}

sim::Task<std::unique_ptr<fs::FsWriter>> BsfsClient::create(
    const std::string& path) {
  return create_replicated(path, 0);
}

sim::Task<std::unique_ptr<fs::FsWriter>> BsfsClient::create_replicated(
    const std::string& path, uint32_t replication) {
  auto blob_client = owner_.cluster_.make_client(node_);
  const auto desc = co_await blob_client->create(
      owner_.cfg_.page_size,
      replication > 0 ? replication : owner_.cfg_.replication);
  const bool ok =
      co_await owner_.ns_.add_file(node_, path, desc.id, owner_.cfg_.block_size);
  if (!ok) co_return nullptr;
  auto writer = std::make_unique<BsfsWriter>(owner_, std::move(blob_client),
                                             path, desc.id);
  writer->set_known_end(0);  // fresh blob
  co_return writer;
}

sim::Task<std::pair<std::string, blob::Version>> BsfsClient::resolve_name(
    const std::string& path) {
  auto [base, version] = parse_versioned_path(path);
  if (version != blob::kNoVersion) {
    // Literal-first: a namespace entry whose name happens to end in
    // "@v<N>" shadows the versioned interpretation of its prefix.
    auto literal = co_await owner_.cached_lookup(node_, path);
    if (literal.has_value()) co_return std::pair{path, blob::kNoVersion};
  }
  co_return std::pair{std::move(base), version};
}

sim::Task<std::unique_ptr<fs::FsReader>> BsfsClient::open(
    const std::string& path) {
  if (!is_versioned(path)) return open_at_version(path, blob::kNoVersion);
  return open_versioned(path);
}

sim::Task<std::unique_ptr<fs::FsReader>> BsfsClient::open_versioned(
    const std::string& path) {
  auto [base, version] = co_await resolve_name(path);
  co_return co_await open_at_version(base, version);
}

sim::Task<std::unique_ptr<fs::FsReader>> BsfsClient::open_at_version(
    const std::string& path, blob::Version version) {
  // open() and stat() are the metadata storm's operations: with leases off
  // they await the namespace and version-manager calls in this frame, not
  // through cached_lookup/cached_latest.
  std::optional<NsEntry> entry;
  if (owner_.leases_on()) {
    entry = co_await owner_.cached_lookup(node_, path);
  } else {
    entry = co_await owner_.ns_.lookup(node_, path);
  }
  if (!entry.has_value() || entry->is_dir || entry->under_construction) {
    co_return nullptr;
  }
  auto blob_client = owner_.cluster_.make_client(node_);
  blob::VersionInfo pinned;
  if (version != blob::kNoVersion) {
    auto maybe = co_await owner_.cluster_.version_manager().version_info(
        node_, entry->blob, version);
    if (!maybe.has_value()) co_return nullptr;
    pinned = *maybe;
  } else if (owner_.leases_on()) {
    pinned = co_await owner_.cached_latest(node_, entry->blob);
  } else {
    pinned = co_await owner_.cluster_.version_manager().latest(node_,
                                                               entry->blob);
  }
  co_return std::make_unique<BsfsReader>(owner_, std::move(blob_client),
                                         entry->blob, pinned);
}

sim::Task<std::unique_ptr<fs::FsWriter>> BsfsClient::append(
    const std::string& path) {
  auto entry = co_await owner_.ns_.lookup(node_, path);
  if (!entry.has_value() || entry->is_dir) co_return nullptr;
  const bool ok = co_await owner_.ns_.reopen_for_append(node_, path);
  if (!ok) co_return nullptr;
  auto blob_client = owner_.cluster_.make_client(node_);
  co_return std::make_unique<BsfsWriter>(owner_, std::move(blob_client), path,
                                         entry->blob);
}

sim::Task<std::unique_ptr<fs::FsWriter>> BsfsClient::append_shared(
    const std::string& path) {
  // Same namespace handshake as append() — BlobSeer takes no lease, so any
  // number of these writers may coexist — but the writer commits every
  // chunk through the version manager's append-offset assignment instead
  // of tracking the file end locally (which only one writer could do).
  auto writer = co_await append(path);
  if (writer != nullptr) {
    static_cast<BsfsWriter*>(writer.get())->set_shared_append();
  }
  co_return writer;
}

sim::Task<std::optional<fs::Snapshot>> BsfsClient::snapshot(
    const std::string& path) {
  auto [base, version] = co_await resolve_name(path);
  auto entry = co_await owner_.cached_lookup(node_, base);
  std::optional<fs::Snapshot> out;
  if (!entry.has_value() || entry->is_dir || entry->under_construction) {
    co_return out;
  }
  blob::VersionInfo info;
  if (version == blob::kNoVersion) {
    info = co_await owner_.cached_latest(node_, entry->blob);
  } else {
    auto maybe = co_await owner_.cluster_.version_manager().version_info(
        node_, entry->blob, version);
    if (!maybe.has_value()) co_return out;  // unpublished or pruned
    info = *maybe;
  }
  out = fs::Snapshot{base, info.version, info.size, entry->block_size,
                     entry->blob};
  co_return out;
}

// Resolves the snapshot's blob: the recorded identity when present (a pin
// outlives namespace mutation — a removed-and-recreated path must not
// serve the NEW file's bytes at the old version number), the namespace
// entry otherwise (hand-built path-only snapshots).
sim::Task<std::optional<blob::BlobId>> BsfsClient::snapshot_blob(
    const fs::Snapshot& snap) {
  if (snap.object != 0) {
    co_return static_cast<blob::BlobId>(snap.object);
  }
  auto entry = co_await owner_.cached_lookup(node_, snap.path);
  if (!entry.has_value() || entry->is_dir || entry->under_construction) {
    co_return std::nullopt;
  }
  co_return entry->blob;
}

sim::Task<std::unique_ptr<fs::FsReader>> BsfsClient::open_snapshot(
    const fs::Snapshot& snap) {
  auto blob = co_await snapshot_blob(snap);
  if (!blob.has_value()) co_return nullptr;
  auto blob_client = owner_.cluster_.make_client(node_);
  blob::VersionInfo pinned;  // version 0: a pre-first-publish (empty) pin
  if (snap.version != blob::kNoVersion) {
    auto maybe = co_await owner_.cluster_.version_manager().version_info(
        node_, *blob, static_cast<blob::Version>(snap.version));
    if (!maybe.has_value()) co_return nullptr;  // pruned
    pinned = *maybe;
  }
  co_return std::make_unique<BsfsReader>(owner_, std::move(blob_client),
                                         *blob, pinned);
}

sim::Task<std::vector<fs::BlockLocation>> BsfsClient::snapshot_locations(
    const fs::Snapshot& snap, uint64_t offset, uint64_t length) {
  auto blob = co_await snapshot_blob(snap);
  if (!blob.has_value()) co_return std::vector<fs::BlockLocation>{};
  co_return co_await locate_blocks(
      *blob, static_cast<blob::Version>(snap.version), offset, length);
}

sim::Task<std::optional<fs::FileStat>> BsfsClient::stat(
    const std::string& path) {
  // Only a decorated name needs resolve_name (its literal-first lookup).
  std::pair<std::string, blob::Version> name{path, blob::kNoVersion};
  if (is_versioned(path)) name = co_await resolve_name(path);
  const auto& [base, version] = name;
  // Leases branch here, as in open_at_version.
  std::optional<NsEntry> entry;
  if (owner_.leases_on()) {
    entry = co_await owner_.cached_lookup(node_, base);
  } else {
    entry = co_await owner_.ns_.lookup(node_, base);
  }
  if (!entry.has_value()) co_return std::nullopt;
  fs::FileStat st;
  st.path = path;
  st.is_dir = entry->is_dir;
  st.block_size = entry->block_size;
  if (entry->is_dir) co_return st;
  blob::VersionInfo info;
  if (version != blob::kNoVersion) {
    auto maybe = co_await owner_.cluster_.version_manager().version_info(
        node_, entry->blob, version);
    if (!maybe.has_value()) co_return std::nullopt;
    info = *maybe;
  } else if (owner_.leases_on()) {
    info = co_await owner_.cached_latest(node_, entry->blob);
  } else {
    info = co_await owner_.cluster_.version_manager().latest(node_,
                                                             entry->blob);
  }
  st.size = info.size;
  co_return st;
}

sim::Task<std::vector<std::string>> BsfsClient::list(const std::string& dir) {
  return owner_.ns_.list(node_, dir);
}

sim::Task<bool> BsfsClient::remove(const std::string& path) {
  co_return co_await owner_.ns_.remove(node_, path);
}

sim::Task<bool> BsfsClient::rename(const std::string& from,
                                   const std::string& to) {
  return owner_.ns_.rename(node_, from, to);
}

sim::Task<std::vector<fs::BlockLocation>> BsfsClient::locations(
    const std::string& path, uint64_t offset, uint64_t length) {
  auto [base, version] = co_await resolve_name(path);
  auto entry = co_await owner_.cached_lookup(node_, base);
  if (!entry.has_value() || entry->is_dir) {
    co_return std::vector<fs::BlockLocation>{};
  }
  co_return co_await locate_blocks(entry->blob, version, offset, length);
}

sim::Task<std::vector<fs::BlockLocation>> BsfsClient::locate_blocks(
    blob::BlobId blob, blob::Version version, uint64_t offset,
    uint64_t length) {
  std::vector<fs::BlockLocation> out;
  auto blob_client = owner_.cluster_.make_client(node_);
  auto pages = co_await blob_client->locate(blob, version, offset, length);
  if (pages.empty()) co_return out;

  // Group pages into Hadoop blocks; a block's hosts are the providers
  // holding its pages, most-loaded first (the scheduler treats any of them
  // as "local" for this block).
  const uint64_t block = owner_.cfg_.block_size;
  const uint64_t pages_per_block = block / owner_.cfg_.page_size;
  std::map<uint64_t, std::map<net::NodeId, int>> per_block;
  std::map<uint64_t, uint64_t> block_bytes;
  for (const auto& page : pages) {
    const uint64_t b = page.index / pages_per_block;
    for (net::NodeId host : page.providers) per_block[b][host] += 1;
    block_bytes[b] += page.length;
  }
  for (const auto& [b, hosts] : per_block) {
    fs::BlockLocation loc;
    loc.offset = b * block;
    loc.length = block_bytes[b];
    std::vector<std::pair<int, net::NodeId>> ranked;
    for (const auto& [host, count] : hosts) ranked.emplace_back(count, host);
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b2) {
      return a.first != b2.first ? a.first > b2.first : a.second < b2.second;
    });
    for (const auto& [count, host] : ranked) {
      loc.hosts.push_back(host);
      if (loc.hosts.size() == 3) break;  // Hadoop reports up to replication
    }
    out.push_back(std::move(loc));
  }
  co_return out;
}

// ---------- BsfsWriter ----------

BsfsWriter::BsfsWriter(Bsfs& owner,
                       std::unique_ptr<blob::BlobClient> blob_client,
                       std::string path, blob::BlobId blob)
    : owner_(owner), client_(std::move(blob_client)), path_(std::move(path)),
      blob_(blob) {}

void BsfsWriter::set_known_end(uint64_t end) { end_bytes_ = end; }

sim::Task<bool> BsfsWriter::write(DataSpec data) {
  BS_CHECK_MSG(!closed_, "write after close");
  if (data.size() == 0) co_return true;
  pending_bytes_ += data.size();
  bytes_written_ += data.size();
  pending_.push_back(std::move(data));
  // Write-behind: commit only once a whole block has accumulated (or every
  // call when the cache is disabled — the ablation's write-through mode).
  const uint64_t threshold =
      owner_.cfg_.enable_cache ? owner_.cfg_.block_size : 1;
  co_await flush(threshold);
  co_return true;
}

sim::Task<void> BsfsWriter::flush(uint64_t threshold) {
  if (pending_bytes_ < threshold || pending_bytes_ == 0) co_return;
  if (end_bytes_ == UINT64_MAX && !shared_append_) {
    end_bytes_ = co_await client_->size(blob_);  // append: resolve the end
  }
  while (pending_bytes_ >= threshold && pending_bytes_ > 0) {
    // Assemble min(block, pending) bytes into one append.
    const uint64_t take_target =
        std::min<uint64_t>(owner_.cfg_.block_size, pending_bytes_);
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
    const uint64_t page = owner_.cfg_.page_size;
    if (shared_append_) {
      // Concurrent-append mode: the version manager assigns this chunk a
      // disjoint range at the blob's assigned end, so interleaved writers
      // never collide. The end must stay page-aligned for the *next*
      // appender, hence the whole-block precondition on callers.
      BS_CHECK_MSG(taken % page == 0,
                   "shared appends must be page-aligned (append whole blocks)");
      co_await client_->append(blob_, concat(chunk));
      continue;
    }
    const uint64_t pad = end_bytes_ % page;
    if (pad == 0) {
      co_await client_->append(blob_, concat(chunk));
    } else {
      // The blob ends mid-page: merge the existing tail with the new data
      // and overwrite from the page boundary (single-writer RMW).
      const uint64_t aligned = end_bytes_ - pad;
      DataSpec tail =
          co_await client_->read(blob_, blob::kNoVersion, aligned, pad);
      std::vector<DataSpec> merged;
      merged.push_back(std::move(tail));
      for (auto& part : chunk) merged.push_back(std::move(part));
      co_await client_->write(blob_, aligned, concat(merged));
    }
    end_bytes_ += taken;
  }
}

sim::Task<bool> BsfsWriter::close() {
  if (closed_) co_return true;
  closed_ = true;
  co_await flush(1);  // whatever remains, as the final (possibly short) block
  co_return co_await owner_.ns_.finalize(client_->node(), path_);
}

// ---------- BsfsReader ----------

BsfsReader::BsfsReader(Bsfs& owner,
                       std::unique_ptr<blob::BlobClient> blob_client,
                       blob::BlobId blob, blob::VersionInfo pinned)
    : owner_(owner), client_(std::move(blob_client)), blob_(blob),
      pinned_(pinned) {}

sim::Task<DataSpec> BsfsReader::read(uint64_t offset, uint64_t size) {
  if (offset >= pinned_.size || size == 0) {
    co_return DataSpec::from_bytes(Bytes{});
  }
  size = std::min(size, pinned_.size - offset);

  if (!owner_.cfg_.enable_cache) {
    ++cache_misses_;
    co_return co_await client_->read(blob_, pinned_.version, offset, size);
  }

  const uint64_t block = owner_.cfg_.block_size;
  std::vector<DataSpec> parts;
  uint64_t at = offset;
  const uint64_t end = offset + size;
  while (at < end) {
    const uint64_t b = at / block;
    const uint64_t block_start = b * block;
    const uint64_t block_len = std::min(block, pinned_.size - block_start);
    if (cached_block_ != b) {
      // Miss: prefetch the whole containing block (paper §III.B).
      ++cache_misses_;
      cached_data_ =
          co_await client_->read(blob_, pinned_.version, block_start, block_len);
      cached_block_ = b;
    } else {
      ++cache_hits_;
    }
    const uint64_t take =
        std::min(end, block_start + cached_data_.size()) - at;
    BS_CHECK(take > 0);
    parts.push_back(cached_data_.slice(at - block_start, take));
    at += take;
  }
  co_return parts.size() == 1 ? std::move(parts[0]) : concat(parts);
}

}  // namespace bs::bsfs
