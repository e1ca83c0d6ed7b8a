// Core BlobSeer types: blobs, versions, pages, write history records.
//
// A BLOB is a huge byte sequence split into fixed-size pages. Data is never
// overwritten: each write/append creates a new *version* (snapshot); old
// versions stay readable. The version manager records, for every assigned
// version, which page range it touched and the blob size afterwards — this
// write history is what lets concurrent writers build their metadata trees
// without reading each other's unpublished state (see metadata.h).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "net/cluster.h"

namespace bs::blob {

using BlobId = uint32_t;
// Version 0 is "empty blob at creation"; the first write produces version 1.
using Version = uint32_t;
constexpr Version kNoVersion = 0;

// A page-granular range [first, first + count).
struct PageRange {
  uint64_t first = 0;
  uint64_t count = 0;

  uint64_t end() const { return first + count; }
  bool empty() const { return count == 0; }
  bool intersects(const PageRange& o) const {
    return count > 0 && o.count > 0 && first < o.end() && o.first < end();
  }
  bool operator==(const PageRange& o) const {
    return first == o.first && count == o.count;
  }
};

// One entry of a blob's write history, kept by the version manager.
struct WriteRecord {
  Version version = kNoVersion;
  PageRange range;          // pages touched by this write
  uint64_t size_after = 0;  // blob size in bytes once this version publishes
  uint64_t cap_after = 0;   // tree capacity in pages at this version
};

// Static per-blob parameters fixed at creation.
struct BlobDescriptor {
  BlobId id = 0;
  uint64_t page_size = 0;
  uint32_t replication = 1;  // page replication degree
};

// Published-version info returned by the version manager to readers.
struct VersionInfo {
  Version version = kNoVersion;
  uint64_t size = 0;       // bytes
  uint64_t cap_pages = 0;  // tree capacity (power of two), 0 for empty blob
};

// The records of versions 1..n of one blob, ascending by version: the
// version manager's write log as it stood when this was taken, shared
// instead of copied. The manager appends to a log only within its reserved
// capacity and replaces a full log with a larger copy, so the records
// taken here never move or change, and holding the log keeps them alive.
class WriteHistory {
 public:
  WriteHistory() = default;
  explicit WriteHistory(std::shared_ptr<const std::vector<WriteRecord>> log)
      : log_(std::move(log)), records_(log_->data(), log_->size()) {}

  std::span<const WriteRecord> records() const { return records_; }
  size_t size() const { return records_.size(); }
  const WriteRecord& operator[](size_t i) const { return records_[i]; }
  auto begin() const { return records_.begin(); }
  auto end() const { return records_.end(); }

 private:
  std::shared_ptr<const std::vector<WriteRecord>> log_;
  std::span<const WriteRecord> records_;
};

// Everything a writer needs to perform an assigned write: its version, the
// resolved byte offset (appends are resolved against the latest assigned
// size), and the history of versions 1..version-1.
struct WriteTicket {
  BlobId blob = 0;
  Version version = kNoVersion;
  uint64_t offset = 0;      // bytes, page-aligned
  uint64_t size_after = 0;  // bytes
  uint64_t cap_pages = 0;   // tree capacity for this version
  WriteHistory prior;       // records for versions < version

  std::span<const WriteRecord> history() const { return prior.records(); }
};

// Identifies one stored page replica: which version wrote page `index` of
// blob `blob`, and where it lives.
struct PageKey {
  BlobId blob = 0;
  uint64_t index = 0;
  Version version = kNoVersion;

  std::string to_string() const {
    return "p/" + std::to_string(blob) + "/" + std::to_string(index) + "/" +
           std::to_string(version);
  }
  bool operator==(const PageKey& o) const {
    return blob == o.blob && index == o.index && version == o.version;
  }
};

// Location of one page at a given version: the writing version plus the
// provider nodes holding replicas. Returned by the layout-exposure
// primitive (paper §III.B) so the MapReduce scheduler can place tasks.
struct PageLocation {
  uint64_t index = 0;
  Version version = kNoVersion;
  uint32_t length = 0;  // bytes actually stored (last page may be partial)
  std::vector<net::NodeId> providers;
};

inline uint64_t next_pow2(uint64_t x) {
  if (x <= 1) return 1;
  uint64_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

inline uint64_t pages_for_bytes(uint64_t bytes, uint64_t page_size) {
  return (bytes + page_size - 1) / page_size;
}

}  // namespace bs::blob
