// BlobSeer's versioned distributed segment tree (the paper's key metadata
// structure, described in [10]).
//
// For a blob with capacity `cap` pages (a power of two), version v's
// metadata is a complete binary tree over [0, cap): the node at (first,
// count) covers pages [first, first+count); leaves cover single pages and
// point at the provider holding that page; inner nodes point at their two
// children *by version number*. Subtrees untouched by a write are shared
// with an older version simply by storing that older version in the child
// pointer — nothing is copied.
//
// Existence rule (the invariant everything rests on): node (S, u) was
// created by version u  ⟺  S ⊆ [0, cap_u) and
//     (a) S ∩ range(u) ≠ ∅                    — leaf→root paths of the write
//  or (b) S = [0, c) with c > cap_{u-1}, c ≥ 2 — "growth chain": when u grows
//         the capacity, it creates every new root-anchored inner node so
//         that pre-existing data stays reachable even if u's own write
//         doesn't touch the left half (e.g. a sparse write far past the
//         end).
// A writer assigned version v computes, for any border subtree S it must
// reference, the *latest* u < v satisfying the rule — using only the write
// history handed out by the version manager, never reading other writers'
// (possibly unpublished, possibly not yet stored) tree nodes. This is what
// makes concurrent writes to one blob metadata-safe.
//
// DHT keys are deterministic: "m/<blob>/<first>/<count>/<version>".
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "blob/types.h"
#include "common/dataspec.h"

namespace bs::blob {

// One tree node as stored in the DHT.
struct MetaNode {
  PageRange range;
  Version version = kNoVersion;  // the version that created this node

  // Inner node: child pointers (version that owns each child's subtree;
  // kNoVersion = hole, i.e. never-written pages that read as zeros).
  Version left = kNoVersion;
  Version right = kNoVersion;

  // Leaf node (range.count == 1): where the page lives.
  std::vector<net::NodeId> providers;
  uint32_t page_length = 0;  // bytes stored (≤ page_size; last page may be short)

  bool is_leaf() const { return range.count == 1; }

  Bytes serialize() const;
  static MetaNode deserialize(const Bytes& raw);
};

// DHT key for a node.
std::string meta_key(BlobId blob, const PageRange& range, Version version);

// --- Pure tree math (unit-tested exhaustively) ---

// True iff version u created node S, given u's write range, its capacity,
// and the capacity before u (cap_{u-1}; 0 for the first version).
bool node_exists(const PageRange& node, const PageRange& write_range,
                 uint64_t cap_pages, uint64_t cap_before);

// Latest version < `before` whose tree contains node S, per the existence
// rule, searching the history (records for versions 1..before-1, ascending).
// Returns kNoVersion if no prior version created S.
Version latest_owner(const PageRange& node,
                     std::span<const WriteRecord> history, Version before);

// All canonical nodes version v must create for a write of `write_range`
// into a tree of capacity `cap_pages` (history = records of versions < v;
// the pre-write capacity is taken from its last entry): leaves first, then
// inner levels bottom-up, each inner node with resolved child pointers.
// Leaf provider/length fields are left empty for the caller to fill.
std::vector<MetaNode> build_write_nodes(const PageRange& write_range,
                                        uint64_t cap_pages, Version v,
                                        std::span<const WriteRecord> history);

// The children of an inner node.
inline PageRange left_child(const PageRange& r) {
  return PageRange{r.first, r.count / 2};
}
inline PageRange right_child(const PageRange& r) {
  return PageRange{r.first + r.count / 2, r.count / 2};
}

}  // namespace bs::blob
