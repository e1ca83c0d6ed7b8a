#include "common/dataspec.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"
#include "common/rng.h"

namespace bs {

uint8_t pattern_byte(uint64_t seed, uint64_t pos) {
  // One SplitMix64 mix per 8-byte lane keeps generation cheap while making
  // every byte depend on both seed and position.
  const uint64_t lane = splitmix64(seed ^ (pos >> 3) * 0x9e3779b97f4a7c15ULL);
  return static_cast<uint8_t>(lane >> ((pos & 7) * 8));
}

void fill_pattern(uint64_t seed, uint64_t pos, uint8_t* out, size_t len) {
  size_t i = 0;
  // Head: align to an 8-byte lane boundary.
  while (i < len && ((pos + i) & 7) != 0) {
    out[i] = pattern_byte(seed, pos + i);
    ++i;
  }
  // Body: whole lanes.
  while (i + 8 <= len) {
    const uint64_t lane =
        splitmix64(seed ^ ((pos + i) >> 3) * 0x9e3779b97f4a7c15ULL);
    std::memcpy(out + i, &lane, 8);
    i += 8;
  }
  // Tail.
  while (i < len) {
    out[i] = pattern_byte(seed, pos + i);
    ++i;
  }
}

DataSpec DataSpec::from_bytes(Bytes bytes) {
  DataSpec d;
  d.kind_ = Kind::kBytes;
  d.bytes_ = std::move(bytes);
  return d;
}

DataSpec DataSpec::from_string(const std::string& s) {
  return from_bytes(Bytes(s.begin(), s.end()));
}

DataSpec DataSpec::pattern(uint64_t seed, uint64_t offset, uint64_t length) {
  DataSpec d;
  d.kind_ = Kind::kPattern;
  d.seed_ = seed;
  d.offset_ = offset;
  d.length_ = length;
  return d;
}

Bytes DataSpec::materialize(uint64_t pos, uint64_t len) const {
  BS_CHECK(pos + len <= size());
  if (kind_ == Kind::kBytes) {
    return Bytes(bytes_.begin() + static_cast<ptrdiff_t>(pos),
                 bytes_.begin() + static_cast<ptrdiff_t>(pos + len));
  }
  Bytes out(len);
  fill_pattern(seed_, offset_ + pos, out.data(), len);
  return out;
}

DataSpec DataSpec::slice(uint64_t pos, uint64_t len) const {
  BS_CHECK(pos + len <= size());
  if (kind_ == Kind::kPattern) {
    return pattern(seed_, offset_ + pos, len);
  }
  return from_bytes(materialize(pos, len));
}

uint32_t DataSpec::checksum() const {
  if (kind_ == Kind::kBytes) {
    return crc32c(bytes_.data(), bytes_.size());
  }
  // Stream the pattern through a scratch block.
  constexpr size_t kBlock = 1 << 16;
  Bytes scratch(std::min<uint64_t>(kBlock, length_));
  uint32_t crc = 0;
  uint64_t done = 0;
  while (done < length_) {
    const size_t n = static_cast<size_t>(std::min<uint64_t>(kBlock, length_ - done));
    fill_pattern(seed_, offset_ + done, scratch.data(), n);
    crc = crc32c(scratch.data(), n, crc);
    done += n;
  }
  return crc;
}

bool DataSpec::content_equals(const DataSpec& other) const {
  if (size() != other.size()) return false;
  if (kind_ == Kind::kPattern && other.kind_ == Kind::kPattern &&
      seed_ == other.seed_ && offset_ == other.offset_) {
    return true;
  }
  constexpr uint64_t kBlock = 1 << 16;
  for (uint64_t pos = 0; pos < size(); pos += kBlock) {
    const uint64_t n = std::min<uint64_t>(kBlock, size() - pos);
    if (materialize(pos, n) != other.materialize(pos, n)) return false;
  }
  return true;
}

DataSpec concat(const std::vector<DataSpec>& parts) {
  if (parts.empty()) return DataSpec::pattern(0, 0, 0);
  // Fast path: contiguous pattern pieces of one stream.
  bool contiguous_pattern = parts[0].is_pattern();
  for (size_t i = 1; contiguous_pattern && i < parts.size(); ++i) {
    contiguous_pattern = parts[i].is_pattern() &&
                         parts[i].seed() == parts[0].seed() &&
                         parts[i].offset() ==
                             parts[i - 1].offset() + parts[i - 1].size();
  }
  if (contiguous_pattern) {
    uint64_t total = 0;
    for (const auto& p : parts) total += p.size();
    return DataSpec::pattern(parts[0].seed(), parts[0].offset(), total);
  }
  Bytes out;
  for (const auto& p : parts) {
    Bytes b = p.materialize();
    out.insert(out.end(), b.begin(), b.end());
  }
  return DataSpec::from_bytes(std::move(out));
}

}  // namespace bs
