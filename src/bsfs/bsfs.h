// BSFS — the BlobSeer File System (paper §III.B): the layer that lets
// BlobSeer serve as Hadoop's storage back-end.
//
// Files map 1:1 to BLOBs (namespace manager). The client adds the caching
// the paper describes for Hadoop's small-record access pattern (~4 KB
// reads/writes):
//   * readers prefetch a whole block on a cache miss and serve subsequent
//     reads from memory;
//   * writers buffer until a whole block accumulates, then commit it as a
//     single BlobSeer append (write-behind).
// A block is a Hadoop-sized chunk (64 MB) made of several BlobSeer pages,
// so each block read/write is striped over `block/page` providers in
// parallel — the load-balancing that drives the paper's throughput results.
//
// Readers pin the blob version observed at open (BlobSeer snapshots), which
// is what makes concurrent MapReduce workflows over different snapshots of
// one dataset possible (paper §V) — see Bsfs::snapshot().
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "blob/cluster.h"
#include "bsfs/namespace.h"
#include "fs/filesystem.h"

namespace bs::bsfs {

struct BsfsConfig {
  uint64_t block_size = 64ULL << 20;  // Hadoop chunk
  uint64_t page_size = 8ULL << 20;    // BlobSeer page (block = 8 pages)
  uint32_t replication = 1;
  // Client-side cache on/off (ablation A3); when off, reads go straight to
  // BlobSeer at request granularity and writes flush per call.
  bool enable_cache = true;
  // Metadata lease TTL (0 = leases off). When set, read paths cache
  // namespace entries and latest-published-version answers per client
  // node for up to this long; a publish or namespace mutation invalidates
  // the lease early (the owner's invalidation channel — modeled as a
  // zero-cost shared-state check), so a lease never serves a stale entry
  // or a version behind the published one. Read-mostly metadata storms
  // then hit the local cache instead of the wire (PR 10).
  double lease_ttl_s = 0;
};

class Bsfs;

class BsfsWriter final : public fs::FsWriter {
 public:
  BsfsWriter(Bsfs& owner, std::unique_ptr<blob::BlobClient> blob_client,
             std::string path, blob::BlobId blob);

  sim::Task<bool> write(DataSpec data) override;
  sim::Task<bool> close() override;
  uint64_t bytes_written() const override { return bytes_written_; }
  // Declares the blob's current end (skips the size lookup at first flush).
  void set_known_end(uint64_t end);
  // Switches this writer to shared-append mode (FsClient::append_shared):
  // every flush commits through BlobSeer's append-offset assignment, so
  // concurrent writers get disjoint ranges. Each flushed chunk must be a
  // page multiple (callers append whole blocks; block % page == 0).
  void set_shared_append() { shared_append_ = true; }

 private:
  sim::Task<void> flush(uint64_t threshold);

  Bsfs& owner_;
  std::unique_ptr<blob::BlobClient> client_;
  std::string path_;
  blob::BlobId blob_;
  std::vector<DataSpec> pending_;
  uint64_t pending_bytes_ = 0;
  uint64_t bytes_written_ = 0;
  // Current end of the blob; UINT64_MAX until resolved at first flush.
  // When the end is not page-aligned (a short final page), the next flush
  // re-writes that page (read-modify-write) so appends of any size work.
  // NOTE: the RMW path is single-writer by nature — concurrent appenders
  // must use shared-append mode, which never tracks the end locally.
  uint64_t end_bytes_ = UINT64_MAX;
  bool shared_append_ = false;
  bool closed_ = false;
};

class BsfsReader final : public fs::FsReader {
 public:
  BsfsReader(Bsfs& owner, std::unique_ptr<blob::BlobClient> blob_client,
             blob::BlobId blob, blob::VersionInfo pinned);
  sim::Task<DataSpec> read(uint64_t offset, uint64_t size) override;
  uint64_t size() const override { return pinned_.size; }

  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }

 private:
  Bsfs& owner_;
  std::unique_ptr<blob::BlobClient> client_;
  blob::BlobId blob_;
  blob::VersionInfo pinned_;
  // One cached (prefetched) block — MapReduce access is sequential.
  uint64_t cached_block_ = UINT64_MAX;
  DataSpec cached_data_;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
};

class BsfsClient final : public fs::FsClient {
 public:
  BsfsClient(Bsfs& owner, net::NodeId node);
  net::NodeId node() const override { return node_; }

  sim::Task<std::unique_ptr<fs::FsWriter>> create(const std::string& path) override;
  // Per-file replication: the file's blob is created with its own degree
  // (BlobSeer replication is a per-blob property), so transient data can
  // ride a different degree than the configured default.
  sim::Task<std::unique_ptr<fs::FsWriter>> create_replicated(
      const std::string& path, uint32_t replication) override;
  sim::Task<std::unique_ptr<fs::FsReader>> open(const std::string& path) override;
  sim::Task<std::unique_ptr<fs::FsWriter>> append(const std::string& path) override;
  sim::Task<std::unique_ptr<fs::FsWriter>> append_shared(
      const std::string& path) override;
  // True version pinning (the §V snapshot seam): snapshot() records the
  // file's current published blob version, open_snapshot() opens exactly
  // that version, and snapshot_locations() exposes that version's own page
  // layout — concurrent writers never show through, unlike the base
  // class's length-pinning fallback. snapshot() also accepts "<path>@v<N>"
  // names, pinning version N instead of the latest (how a job re-runs over
  // a historical snapshot).
  sim::Task<std::optional<fs::Snapshot>> snapshot(
      const std::string& path) override;
  sim::Task<std::unique_ptr<fs::FsReader>> open_snapshot(
      const fs::Snapshot& snap) override;
  sim::Task<std::vector<fs::BlockLocation>> snapshot_locations(
      const fs::Snapshot& snap, uint64_t offset, uint64_t length) override;
  sim::Task<std::optional<fs::FileStat>> stat(const std::string& path) override;
  sim::Task<std::vector<std::string>> list(const std::string& dir) override;
  sim::Task<bool> remove(const std::string& path) override;
  sim::Task<bool> rename(const std::string& from,
                         const std::string& to) override;
  sim::Task<std::vector<fs::BlockLocation>> locations(
      const std::string& path, uint64_t offset, uint64_t length) override;

  // BSFS extension: opens a reader pinned to a specific published version
  // of the file's blob (a snapshot), not just the latest.
  sim::Task<std::unique_ptr<fs::FsReader>> open_at_version(
      const std::string& path, blob::Version version);

 private:
  // Decodes a possibly-versioned name, literal entries first: if the full
  // path names a real namespace entry (a file literally called "f@v2"),
  // that entry wins and no version is parsed — which is what makes
  // versioned_path/parse_versioned_path round-trip safely.
  sim::Task<std::pair<std::string, blob::Version>> resolve_name(
      const std::string& path);
  // open() of a decorated name: resolve_name, then open_at_version.
  sim::Task<std::unique_ptr<fs::FsReader>> open_versioned(
      const std::string& path);
  // The blob a snapshot pins: its recorded identity (immune to namespace
  // mutation), or the current namespace entry for path-only snapshots.
  sim::Task<std::optional<blob::BlobId>> snapshot_blob(
      const fs::Snapshot& snap);
  // Groups a version's page locations into Hadoop-block BlockLocations.
  sim::Task<std::vector<fs::BlockLocation>> locate_blocks(
      blob::BlobId blob, blob::Version version, uint64_t offset,
      uint64_t length);

  Bsfs& owner_;
  net::NodeId node_;
};

// BSFS versioned-path convention: "<path>@v<N>" names version N of <path>.
// open/stat/locations resolve it against that snapshot, which lets the
// unmodified MapReduce framework run concurrent workflows over different
// snapshots of one dataset (paper §V). Returns kNoVersion for plain paths.
//
// Only the FINAL component's "@v<digits>" tail is version syntax:
// "/logs@v2/f" is a plain path (the directory merely contains "@v"), and a
// literal namespace entry named "f@v2" always wins over the versioned
// interpretation of "f" (see the literal-first lookups in BsfsClient), so
// versioned_path/parse_versioned_path round-trip for every legal path.
std::pair<std::string, blob::Version> parse_versioned_path(
    const std::string& path);

// Composes the "<path>@v<N>" name parse_versioned_path decodes. Requires
// version >= 1: version 0 (kNoVersion = latest) has no decorated name.
std::string versioned_path(const std::string& base, blob::Version version);

class Bsfs final : public fs::FileSystem {
 public:
  Bsfs(sim::Simulator& sim, net::Network& net, blob::BlobSeerCluster& cluster,
       NamespaceManager& ns, BsfsConfig cfg = {});

  std::string name() const override { return "BSFS"; }
  uint64_t block_size() const override { return cfg_.block_size; }
  std::unique_ptr<fs::FsClient> make_client(net::NodeId node) override;

  // Current published version of a file's blob — a snapshot handle usable
  // with BsfsClient::open_at_version (paper §V versioning extension).
  sim::Task<blob::Version> snapshot(net::NodeId node, const std::string& path);

  const BsfsConfig& config() const { return cfg_; }
  NamespaceManager& ns() { return ns_; }
  blob::BlobSeerCluster& blobs() { return cluster_; }
  sim::Simulator& simulator() override { return sim_; }

  // Lease traffic counters (also exported as obs counters + hit-rate
  // gauges); all zero when lease_ttl_s == 0.
  uint64_t ns_lease_hits() const { return ns_lease_hits_; }
  uint64_t ns_lease_misses() const { return ns_lease_misses_; }
  uint64_t vm_lease_hits() const { return vm_lease_hits_; }
  uint64_t vm_lease_misses() const { return vm_lease_misses_; }

 private:
  friend class BsfsClient;
  friend class BsfsReader;
  friend class BsfsWriter;

  // A leased namespace entry / latest-version answer, held per client
  // NODE (BsfsClients are throwaway per-op stubs; the node is the stable
  // cache domain, like a DFS client process).
  struct NsLease {
    NsEntry entry;
    double expires_at = 0;
    uint64_t epoch = 0;  // NamespaceManager::mutation_epoch at grant time
  };
  struct VmLease {
    blob::VersionInfo info;
    double expires_at = 0;
  };
  struct NodeLeases {
    bs::unordered_map<std::string, NsLease> ns;
    bs::unordered_map<blob::BlobId, VmLease> vm;
  };

  bool leases_on() const { return cfg_.lease_ttl_s > 0; }
  // lookup()/latest() through the lease cache. A hit costs zero simulated
  // time (the answer is local); validity = TTL not expired AND the
  // invalidation channel is quiet (namespace epoch unchanged / cached
  // version still the published one). Negative lookups are never cached.
  // With leases off they await the namespace's or version manager's call.
  sim::Task<std::optional<NsEntry>> cached_lookup(net::NodeId node,
                                                  const std::string& path);
  sim::Task<blob::VersionInfo> cached_latest(net::NodeId node,
                                             blob::BlobId blob);

  sim::Simulator& sim_;
  net::Network& net_;
  blob::BlobSeerCluster& cluster_;
  NamespaceManager& ns_;
  BsfsConfig cfg_;

  bs::unordered_map<net::NodeId, NodeLeases> leases_;
  uint64_t ns_lease_hits_ = 0;
  uint64_t ns_lease_misses_ = 0;
  uint64_t vm_lease_hits_ = 0;
  uint64_t vm_lease_misses_ = 0;
  obs::Counter* m_ns_hits_ = nullptr;
  obs::Counter* m_ns_misses_ = nullptr;
  obs::Counter* m_vm_hits_ = nullptr;
  obs::Counter* m_vm_misses_ = nullptr;
  obs::Gauge* g_ns_hit_rate_ = nullptr;
  obs::Gauge* g_vm_hit_rate_ = nullptr;
};

}  // namespace bs::bsfs
