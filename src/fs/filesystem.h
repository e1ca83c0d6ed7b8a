// Abstract file-system interface — the seam between the MapReduce framework
// and its storage back-end, mirroring Hadoop's FileSystem abstraction that
// let the paper swap HDFS for BSFS without touching the framework.
//
// A FileSystem is cluster-wide; per-node access goes through FsClient stubs
// (one per simulated process/node). Writers are strictly sequential
// (Hadoop's create-write-close discipline); readers are positional.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/dataspec.h"
#include "net/cluster.h"
#include "sim/task.h"

namespace bs::sim {
class Simulator;
}  // namespace bs::sim

namespace bs::fs {

struct FileStat {
  std::string path;
  uint64_t size = 0;
  bool is_dir = false;
  uint64_t block_size = 0;
};

// A pinned view of one file, taken at a single instant: the version token
// and length a job (or any reader) resolved once and keeps consuming, no
// matter what writers do to the live file afterwards (paper §V: MapReduce
// workflows over consistent snapshots of a dataset under continuous
// ingest).
//
// The guarantee is back-end-dependent, and that asymmetry is the point of
// the comparison:
//  * BSFS pins a published BlobSeer version (`version` > 0): reads serve
//    that version's bytes forever — true snapshot isolation.
//  * Back-ends without versioning (HDFS) get the length-pinning fallback
//    (`version` == 0): reads are truncated to the pinned length, but the
//    content under it is whatever the live file holds — a concurrent
//    re-writer is visibly stale through the snapshot.
struct Snapshot {
  std::string path;       // base path (no version decoration)
  uint64_t version = 0;   // back-end version token; 0 = length pin only
  uint64_t size = 0;      // pinned length in bytes
  uint64_t block_size = 0;
  // Back-end object identity (BSFS: the blob id); 0 = path-only pin. A
  // versioned pin that records it is immune to namespace mutation: if the
  // path is removed and recreated mid-pin, reads keep serving the ORIGINAL
  // object rather than the new file's bytes at the same version number.
  uint64_t object = 0;

  bool valid() const { return !path.empty(); }
};

// One storage block/chunk of a file and the nodes that can serve it
// locally — the layout-exposure information the MapReduce scheduler uses.
struct BlockLocation {
  uint64_t offset = 0;
  uint64_t length = 0;
  std::vector<net::NodeId> hosts;
};

// Sequential writer for one file. write() may buffer; close() flushes and
// makes the file durable/visible (Hadoop semantics).
class FsWriter {
 public:
  virtual ~FsWriter() = default;
  virtual sim::Task<bool> write(DataSpec data) = 0;
  virtual sim::Task<bool> close() = 0;
  virtual uint64_t bytes_written() const = 0;
};

// Positional reader for one file (snapshot: the size/content seen is fixed
// at open time where the back-end supports it).
class FsReader {
 public:
  virtual ~FsReader() = default;
  virtual sim::Task<DataSpec> read(uint64_t offset, uint64_t size) = 0;
  virtual uint64_t size() const = 0;
};

// The length-pinning fallback behind the default FsClient::open_snapshot:
// clamps every read to the pinned length (and to the live file, which may
// have been re-written shorter — the fallback cannot conjure bytes the
// live file lost). Content under the pinned length is served from the
// LIVE file: a concurrent re-writer shows through, which is exactly the
// isolation gap bench/ext7_snapshot_isolation quantifies against BSFS's
// true version pinning.
class ClampedReader final : public FsReader {
 public:
  ClampedReader(std::unique_ptr<FsReader> inner, uint64_t pinned_size)
      : inner_(std::move(inner)), pinned_(pinned_size) {}

  sim::Task<DataSpec> read(uint64_t offset, uint64_t size) override {
    const uint64_t end = this->size();
    if (offset >= end || size == 0) {
      co_return DataSpec::from_bytes(Bytes{});
    }
    co_return co_await inner_->read(offset, std::min(size, end - offset));
  }
  uint64_t size() const override { return std::min(pinned_, inner_->size()); }

 private:
  std::unique_ptr<FsReader> inner_;
  uint64_t pinned_;
};

// Per-node access stub.
class FsClient {
 public:
  virtual ~FsClient() = default;
  virtual net::NodeId node() const = 0;

  // Creates the file and opens it for writing; fails if it already exists
  // or (HDFS) another writer holds it.
  virtual sim::Task<std::unique_ptr<FsWriter>> create(const std::string& path) = 0;
  // create() with an explicit replication degree for this one file
  // (0 = the back-end's configured default). Both back-ends support
  // per-file degrees — BlobSeer blobs carry their own replication, HDFS
  // files record it at the NameNode — which is what lets MapReduce keep
  // its intermediate data at a different degree than job input/output
  // (mr/shuffle.h, IntermediateMode::kDfs).
  virtual sim::Task<std::unique_ptr<FsWriter>> create_replicated(
      const std::string& path, uint32_t replication) {
    (void)replication;
    return create(path);
  }
  // Opens an existing, closed file for reading; null if absent.
  virtual sim::Task<std::unique_ptr<FsReader>> open(const std::string& path) = 0;
  // Appends to an existing file. Back-ends without append support (HDFS,
  // per the paper) return null.
  virtual sim::Task<std::unique_ptr<FsWriter>> append(const std::string& path) = 0;
  // Opens the file for a CONCURRENT append (paper §V: many reduce tasks
  // appending their output to one shared job file). Unlike append(), many
  // writers may hold one of these at once: every flushed chunk gets its
  // own disjoint byte range assigned centrally (BlobSeer's version
  // manager), so interleaved appenders never overwrite each other.
  // Precondition: the file's size stays storage-block-aligned — each
  // writer must append whole blocks (the MapReduce engine pads reduce
  // output up to the block size). Back-ends without append support return
  // null and callers fall back to per-writer files plus a serialized
  // concat (see MapReduceCluster's shared-output commit path).
  virtual sim::Task<std::unique_ptr<FsWriter>> append_shared(
      const std::string& path) = 0;

  // --- the snapshot seam (paper §V) ---
  // Pins the file's current version and length into a Snapshot handle.
  // The default is the length-pinning fallback (one stat; version stays
  // 0); BSFS overrides it with true version pinning against the version
  // manager. Nullopt for missing paths and directories.
  virtual sim::Task<std::optional<Snapshot>> snapshot(const std::string& path) {
    auto st = co_await stat(path);
    std::optional<Snapshot> out;
    if (st.has_value() && !st->is_dir) {
      out = Snapshot{path, 0, st->size, st->block_size};
    }
    co_return out;
  }
  // Opens a reader serving the pinned view. The default wraps open() in a
  // ClampedReader (length pinning: truncated, but live content); BSFS
  // overrides it to open the pinned version itself. Null if the live file
  // is gone or unreadable.
  virtual sim::Task<std::unique_ptr<FsReader>> open_snapshot(
      const Snapshot& snap) {
    auto inner = co_await open(snap.path);
    std::unique_ptr<FsReader> out;
    if (inner != nullptr) {
      out = std::make_unique<ClampedReader>(std::move(inner), snap.size);
    }
    co_return out;
  }
  // Block locations of the pinned view (what the MapReduce split planner
  // consumes). The default resolves against the live file — correct for
  // immutable back-ends; BSFS overrides it to resolve the pinned version's
  // own page layout.
  virtual sim::Task<std::vector<BlockLocation>> snapshot_locations(
      const Snapshot& snap, uint64_t offset, uint64_t length) {
    return locations(snap.path, offset, length);
  }

  virtual sim::Task<std::optional<FileStat>> stat(const std::string& path) = 0;
  virtual sim::Task<std::vector<std::string>> list(const std::string& dir) = 0;
  virtual sim::Task<bool> remove(const std::string& path) = 0;
  // Atomically moves a closed file to a new path (metadata-only, like
  // HDFS's rename). Fails if `from` is missing or under construction, or
  // `to` exists. This is the task-output commit primitive the MapReduce
  // engine relies on: speculative attempts write to attempt-private temp
  // paths and the first finisher renames into place.
  virtual sim::Task<bool> rename(const std::string& from,
                                 const std::string& to) = 0;
  virtual sim::Task<std::vector<BlockLocation>> locations(
      const std::string& path, uint64_t offset, uint64_t length) = 0;
};

// Lexical helper: the length of `path` without its "<path>@v<N>" version
// decoration (final component only, all-digits suffix), or path.size()
// when it carries none. The "@v" convention is implemented by the BSFS
// back-end (bsfs::parse_versioned_path agrees with this rule), but the
// registry must understand it too: a pre-resolution pin_all on a
// decorated input name has to protect the BASE path's history, which is
// what retention looks up.
inline size_t snapshot_base_size(const std::string& path) {
  const size_t at = path.rfind("@v");
  if (at == std::string::npos || at + 2 >= path.size()) return path.size();
  for (size_t i = at + 2; i < path.size(); ++i) {
    if (path[i] < '0' || path[i] > '9') return path.size();
  }
  return at;
}

// The base path itself: `path` unchanged when it carries no decoration.
inline std::string snapshot_base_path(const std::string& path) {
  return path.substr(0, snapshot_base_size(path));
}

// Registry of live snapshot pins, one per FileSystem. A pin is a promise
// that some consumer (a running MapReduce job, an operator hold) still
// reads the pinned version: retention/GC services consult oldest_pinned()
// before pruning history, so a job never loses its pinned version mid-run.
//
// Pinning is a two-step handshake to close the resolve-time race: pin_all
// takes a lease that protects EVERY version of the path while the concrete
// version is being resolved (a version-manager round trip away), then
// resolve() narrows the lease to the resolved snapshot. The registry is
// pure bookkeeping — no modeled cost — mirroring how a real deployment
// would piggyback pin state on job-submission metadata.
class SnapshotRegistry {
 public:
  // Leases a pin covering every version of `path` (pre-resolution hold).
  uint64_t pin_all(std::string path) {
    const uint64_t lease = next_lease_++;
    pins_.emplace(lease, Pin{std::move(path), 0, 0, true});
    return lease;
  }
  // Narrows an existing lease to the resolved snapshot.
  void resolve(uint64_t lease, const Snapshot& snap) {
    auto it = pins_.find(lease);
    if (it == pins_.end()) return;
    it->second = Pin{snap.path, snap.version, snap.object, false};
  }
  // Leases a pin on an already-resolved snapshot.
  uint64_t pin(const Snapshot& snap) {
    const uint64_t lease = next_lease_++;
    pins_.emplace(lease, Pin{snap.path, snap.version, snap.object, false});
    return lease;
  }
  void unpin(uint64_t lease) { pins_.erase(lease); }

  // Smallest version a live pin still needs for this file; nullopt when no
  // pin matches. 0 means "keep everything" (an unresolved pin_all lease,
  // or a pinned unversioned/empty snapshot). Matching rules:
  //  * by path — the common case;
  //  * an unresolved lease on a version-decorated name ("<path>@v<N>")
  //    guards the BASE path: that is the name retention walks, and the
  //    decorated pin exists to keep version N alive until resolution;
  //  * by back-end object identity when the caller knows it (`object` !=
  //    0) — pins survive a rename of the pinned file, which moves the
  //    namespace entry but not the object the pin protects.
  std::optional<uint64_t> oldest_pinned(const std::string& path,
                                        uint64_t object = 0) const {
    std::optional<uint64_t> out;
    for (const auto& [lease, pin] : pins_) {
      const bool matches =
          pin.path == path ||
          (pin.all && snapshot_base_path(pin.path) == path) ||
          (object != 0 && pin.object == object);
      if (!matches) continue;
      const uint64_t v = pin.all ? 0 : pin.version;
      if (!out.has_value() || v < *out) out = v;
    }
    return out;
  }
  size_t live_pins() const { return pins_.size(); }

 private:
  struct Pin {
    std::string path;
    uint64_t version = 0;
    uint64_t object = 0;  // back-end object identity (Snapshot::object)
    bool all = false;     // unresolved: protect every version
  };
  std::map<uint64_t, Pin> pins_;
  uint64_t next_lease_ = 1;
};

// Cluster-wide file system: a factory of per-node clients.
class FileSystem {
 public:
  virtual ~FileSystem() = default;
  virtual std::string name() const = 0;
  virtual uint64_t block_size() const = 0;
  virtual std::unique_ptr<FsClient> make_client(net::NodeId node) = 0;
  // The simulated world this file system lives in — lets generic layers
  // (mr::Dataset) fan concurrent metadata lookups out with sim::when_all
  // without knowing the back-end.
  virtual sim::Simulator& simulator() = 0;

  // Live snapshot pins against this file system (jobs register here; the
  // retention service consults it before pruning version history).
  SnapshotRegistry& registry() { return registry_; }
  const SnapshotRegistry& registry() const { return registry_; }

 private:
  SnapshotRegistry registry_;
};

// Path helpers shared by both back-ends (flat hierarchical namespace with
// '/'-separated components; no relative paths).
inline std::string parent_path(const std::string& path) {
  const size_t pos = path.find_last_of('/');
  if (pos == std::string::npos || pos == 0) return "/";
  return path.substr(0, pos);
}

inline std::string join_path(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir == "/") return "/" + name;
  return dir + "/" + name;
}

}  // namespace bs::fs
