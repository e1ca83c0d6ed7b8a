#include "blob/metadata.h"

#include <algorithm>

#include "common/assert.h"

namespace bs::blob {
namespace {

void put_u64(Bytes& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (i * 8)));
}

uint64_t get_u64(const Bytes& in, size_t& at) {
  BS_CHECK(at + 8 <= in.size());
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(in[at + i]) << (i * 8);
  at += 8;
  return v;
}

}  // namespace

Bytes MetaNode::serialize() const {
  Bytes out;
  out.reserve(8 * (7 + providers.size()));
  put_u64(out, range.first);
  put_u64(out, range.count);
  put_u64(out, version);
  put_u64(out, left);
  put_u64(out, right);
  put_u64(out, page_length);
  put_u64(out, providers.size());
  for (net::NodeId p : providers) put_u64(out, p);
  return out;
}

MetaNode MetaNode::deserialize(const Bytes& raw) {
  MetaNode n;
  size_t at = 0;
  n.range.first = get_u64(raw, at);
  n.range.count = get_u64(raw, at);
  n.version = static_cast<Version>(get_u64(raw, at));
  n.left = static_cast<Version>(get_u64(raw, at));
  n.right = static_cast<Version>(get_u64(raw, at));
  n.page_length = static_cast<uint32_t>(get_u64(raw, at));
  const uint64_t np = get_u64(raw, at);
  n.providers.reserve(np);
  for (uint64_t i = 0; i < np; ++i) {
    n.providers.push_back(static_cast<net::NodeId>(get_u64(raw, at)));
  }
  return n;
}

std::string meta_key(BlobId blob, const PageRange& range, Version version) {
  return "m/" + std::to_string(blob) + "/" + std::to_string(range.first) + "/" +
         std::to_string(range.count) + "/" + std::to_string(version);
}

bool node_exists(const PageRange& node, const PageRange& write_range,
                 uint64_t cap_pages, uint64_t cap_before) {
  if (node.end() > cap_pages) return false;
  if (node.intersects(write_range)) return true;
  // Growth chain: root-anchored inner nodes new at this capacity.
  return node.first == 0 && node.count >= 2 && node.count > cap_before;
}

Version latest_owner(const PageRange& node,
                     std::span<const WriteRecord> history, Version before) {
  // History is ascending by version; scan backwards for the first match.
  for (size_t i = history.size(); i-- > 0;) {
    const WriteRecord& rec = history[i];
    if (rec.version >= before) continue;
    const uint64_t cap_before = i > 0 ? history[i - 1].cap_after : 0;
    if (node_exists(node, rec.range, rec.cap_after, cap_before)) {
      return rec.version;
    }
  }
  return kNoVersion;
}

std::vector<MetaNode> build_write_nodes(
    const PageRange& write_range, uint64_t cap_pages, Version v,
    std::span<const WriteRecord> history) {
  BS_CHECK(!write_range.empty());
  BS_CHECK(cap_pages >= next_pow2(write_range.end()));
  BS_CHECK((cap_pages & (cap_pages - 1)) == 0);
  const uint64_t cap_before = history.empty() ? 0 : history.back().cap_after;

  auto created_by_v = [&](const PageRange& node) {
    return node_exists(node, write_range, cap_pages, cap_before);
  };

  std::vector<MetaNode> out;
  // Leaves, in page order (leaves are only ever created for written pages;
  // the growth-chain clause in node_exists matches inner nodes only).
  for (uint64_t p = write_range.first; p < write_range.end(); ++p) {
    MetaNode leaf;
    leaf.range = PageRange{p, 1};
    leaf.version = v;
    out.push_back(leaf);
  }
  // Inner levels, bottom-up: ancestors of written pages plus the growth
  // chain [0, sz) for capacities new at this version.
  for (uint64_t sz = 2; sz <= cap_pages; sz <<= 1) {
    uint64_t first_node = write_range.first / sz;
    const uint64_t last_node = (write_range.end() - 1) / sz;
    const bool chain = sz > cap_before;  // [0, sz) is new at this version
    if (chain) first_node = 0;
    for (uint64_t k = first_node; k <= last_node; ++k) {
      const PageRange range{k * sz, sz};
      if (!range.intersects(write_range) && !(chain && k == 0)) continue;
      MetaNode inner;
      inner.range = range;
      inner.version = v;
      const PageRange lc = left_child(range);
      const PageRange rc = right_child(range);
      inner.left = created_by_v(lc) ? v : latest_owner(lc, history, v);
      inner.right = created_by_v(rc) ? v : latest_owner(rc, history, v);
      out.push_back(inner);
    }
  }
  return out;
}

}  // namespace bs::blob
