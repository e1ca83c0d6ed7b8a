// DataSpec — dual-mode page payloads.
//
// The paper's experiments move up to 250 GB through the storage layer. At
// test/example scale we carry real bytes end-to-end so reads can be verified
// byte-exactly; at bench scale a payload is a *pattern descriptor*
// (generator seed + logical offset + length) whose bytes are deterministic
// and can be materialized or checksummed on demand without ever holding the
// full dataset in memory. Every storage path (providers, datanodes, caches)
// stores and forwards DataSpecs, so both modes exercise identical code.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.h"

namespace bs {

using Bytes = std::vector<uint8_t>;

// Deterministic byte generator: byte at logical position `pos` of stream
// `seed` is a function of (seed, pos) only, so any sub-range can be
// generated independently.
uint8_t pattern_byte(uint64_t seed, uint64_t pos);
void fill_pattern(uint64_t seed, uint64_t pos, uint8_t* out, size_t len);

class DataSpec {
 public:
  enum class Kind : uint8_t { kBytes = 0, kPattern = 1 };

  DataSpec() : kind_(Kind::kPattern), seed_(0), offset_(0), length_(0) {}

  static DataSpec from_bytes(Bytes bytes);
  static DataSpec from_string(const std::string& s);
  // Pattern payload: `length` bytes of stream `seed` starting at `offset`.
  static DataSpec pattern(uint64_t seed, uint64_t offset, uint64_t length);

  Kind kind() const { return kind_; }
  uint64_t size() const { return kind_ == Kind::kBytes ? bytes_.size() : length_; }
  bool is_pattern() const { return kind_ == Kind::kPattern; }

  // Real-bytes accessors (kBytes only).
  const Bytes& bytes() const {
    BS_CHECK(kind_ == Kind::kBytes);
    return bytes_;
  }

  // Pattern accessors (kPattern only).
  uint64_t seed() const { return seed_; }
  uint64_t offset() const { return offset_; }

  // Produces the concrete bytes of [pos, pos+len) within this payload.
  Bytes materialize(uint64_t pos, uint64_t len) const;
  Bytes materialize() const { return materialize(0, size()); }

  // Sub-range view as a new DataSpec; cheap for patterns, copies for bytes.
  DataSpec slice(uint64_t pos, uint64_t len) const;

  // CRC32C of the payload. Patterns compute without materializing more than
  // a small scratch block.
  uint32_t checksum() const;

  // Byte-level equality (materializes patterns lazily in blocks).
  bool content_equals(const DataSpec& other) const;

 private:
  Kind kind_;
  Bytes bytes_;      // kBytes
  uint64_t seed_;    // kPattern
  uint64_t offset_;  // kPattern
  uint64_t length_;  // kPattern
};

// Concatenates payloads. If all inputs are patterns of the same seed and
// contiguous offsets the result stays a (cheap) pattern; otherwise bytes.
DataSpec concat(const std::vector<DataSpec>& parts);

}  // namespace bs
