// Unit tests for the versioned segment-tree math (blob/metadata.h) — the
// pure functions behind BlobSeer's concurrent-write metadata scheme.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "blob/metadata.h"
#include "common/rng.h"

namespace bs::blob {
namespace {

TEST(PageRange, Intersection) {
  const PageRange a{0, 4}, b{2, 4}, c{4, 2}, empty{3, 0};
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
  EXPECT_TRUE(b.intersects(c));
  EXPECT_FALSE(a.intersects(empty));
  EXPECT_EQ(a.end(), 4u);
}

TEST(NextPow2, Values) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

TEST(NodeExists, Rule) {
  // Node exists iff within capacity and intersecting the write...
  EXPECT_TRUE(node_exists({0, 2}, {1, 1}, 4, 4));
  EXPECT_FALSE(node_exists({2, 2}, {1, 1}, 4, 4));  // no intersection
  EXPECT_FALSE(node_exists({0, 8}, {1, 1}, 4, 4));  // beyond capacity
  EXPECT_TRUE(node_exists({0, 4}, {3, 1}, 4, 4));   // root always intersects
  // ...or part of the growth chain when capacity grew past cap_before.
  EXPECT_TRUE(node_exists({0, 2}, {3, 1}, 4, 1));   // new root-anchored node
  EXPECT_TRUE(node_exists({0, 4}, {3, 1}, 4, 1));
  EXPECT_FALSE(node_exists({0, 2}, {3, 1}, 4, 2));  // [0,2) existed before
  EXPECT_FALSE(node_exists({2, 2}, {0, 1}, 4, 1));  // chain is root-anchored
  EXPECT_FALSE(node_exists({0, 1}, {3, 1}, 4, 0));  // leaves are never chain
}

TEST(NodeExists, GrowthChainAcrossMultipleDoublings) {
  // A sparse write far past the end: one page at index 30 grows a cap-2
  // tree straight to cap 32. The growth chain must create every new
  // root-anchored node — [0,4), [0,8), [0,16), [0,32) — even though the
  // write itself only touches the right half.
  const PageRange write{30, 1};
  for (uint64_t c : {4ull, 8ull, 16ull, 32ull}) {
    EXPECT_TRUE(node_exists({0, c}, write, 32, 2)) << "chain node [0," << c << ")";
  }
  // [0,2) existed before the growth: not re-created.
  EXPECT_FALSE(node_exists({0, 2}, write, 32, 2));
  // Non-root-anchored nodes in the untouched gap are NOT part of the chain.
  EXPECT_FALSE(node_exists({4, 4}, write, 32, 2));
  EXPECT_FALSE(node_exists({8, 8}, write, 32, 2));
  EXPECT_FALSE(node_exists({2, 2}, write, 32, 2));
  // Ancestors of the written page exist by intersection as usual.
  EXPECT_TRUE(node_exists({30, 1}, write, 32, 2));
  EXPECT_TRUE(node_exists({30, 2}, write, 32, 2));
  EXPECT_TRUE(node_exists({28, 4}, write, 32, 2));
  EXPECT_TRUE(node_exists({24, 8}, write, 32, 2));
  EXPECT_TRUE(node_exists({16, 16}, write, 32, 2));
}

TEST(NodeExists, FirstWriteHasNoChainBelowItsOwnPaths) {
  // cap_before = 0 (first version): every root-anchored inner node within
  // the new capacity is chain-created, but single-page "roots" are leaves
  // and never chain nodes.
  const PageRange write{5, 1};
  EXPECT_TRUE(node_exists({0, 2}, write, 8, 0));
  EXPECT_TRUE(node_exists({0, 4}, write, 8, 0));
  EXPECT_TRUE(node_exists({0, 8}, write, 8, 0));
  EXPECT_FALSE(node_exists({0, 1}, write, 8, 0));  // leaf, not chain
  EXPECT_FALSE(node_exists({2, 2}, write, 8, 0));  // not root-anchored
}

TEST(NodeExists, NoChainWhenCapacityUnchanged) {
  // Same sparse write, but the tree was already cap 32: only the
  // intersecting paths exist.
  const PageRange write{30, 1};
  EXPECT_FALSE(node_exists({0, 4}, write, 32, 32));
  EXPECT_FALSE(node_exists({0, 8}, write, 32, 32));
  EXPECT_FALSE(node_exists({0, 16}, write, 32, 32));
  EXPECT_TRUE(node_exists({0, 32}, write, 32, 32));  // root intersects
  EXPECT_TRUE(node_exists({28, 4}, write, 32, 32));
}

TEST(LatestOwner, GrowthChainNodesResolveAcrossDoublings) {
  // v1 fills a cap-4 tree; v2 writes page 25, growing capacity 4 → 32.
  std::vector<WriteRecord> history = {
      {1, {0, 4}, 0, 4},
      {2, {25, 1}, 0, 32},
  };
  // All new root-anchored nodes belong to v2 (chain), including [0,8) and
  // [0,16) which v2's write range does not intersect.
  EXPECT_EQ(latest_owner({0, 8}, history, 3), 2u);
  EXPECT_EQ(latest_owner({0, 16}, history, 3), 2u);
  EXPECT_EQ(latest_owner({0, 32}, history, 3), 2u);
  // [0,4) was v1's root; v2 didn't touch pages 0-3, so v1 still owns it.
  EXPECT_EQ(latest_owner({0, 4}, history, 3), 1u);
  // Untouched non-anchored subtrees in the gap belong to nobody (holes).
  EXPECT_EQ(latest_owner({4, 4}, history, 3), kNoVersion);
  EXPECT_EQ(latest_owner({8, 8}, history, 3), kNoVersion);
  EXPECT_EQ(latest_owner({16, 8}, history, 3), kNoVersion);  // pages 16-23
  EXPECT_EQ(latest_owner({24, 8}, history, 3), 2u);  // contains page 25
}

TEST(BuildWriteNodes, SparseWriteFarPastEndBuildsReachableTree) {
  // v1 wrote pages 0-1 (cap 2); v2 writes page 30 (cap 32). The produced
  // node set must contain the full leaf→root path for page 30 AND the
  // growth chain, with child pointers that keep v1's data reachable.
  std::vector<WriteRecord> history = {{1, {0, 2}, 0, 2}};
  auto nodes = build_write_nodes({30, 1}, 32, 2, history);
  // leaf 30, [30,32), [28,32), [24,32), [16,32) — plus chain [0,4), [0,8),
  // [0,16), [0,32).
  ASSERT_EQ(nodes.size(), 9u);
  std::map<std::pair<uint64_t, uint64_t>, const MetaNode*> by_range;
  for (const auto& n : nodes) by_range[{n.range.first, n.range.count}] = &n;
  ASSERT_TRUE(by_range.count({30, 1}));
  ASSERT_TRUE(by_range.count({0, 32}));
  // Chain node [0,4): left child is v1's old root [0,2), right is a hole.
  const MetaNode* chain4 = by_range.at({0, 4});
  EXPECT_EQ(chain4->left, 1u);
  EXPECT_EQ(chain4->right, kNoVersion);
  // Chain nodes above it point left at the chain node below (also v2's).
  EXPECT_EQ(by_range.at({0, 8})->left, 2u);
  EXPECT_EQ(by_range.at({0, 8})->right, kNoVersion);
  EXPECT_EQ(by_range.at({0, 16})->left, 2u);
  // Root: left half is the chain, right half holds the new write.
  EXPECT_EQ(by_range.at({0, 32})->left, 2u);
  EXPECT_EQ(by_range.at({0, 32})->right, 2u);
  // Down the write path, the untouched siblings are holes.
  EXPECT_EQ(by_range.at({16, 16})->left, kNoVersion);
  EXPECT_EQ(by_range.at({16, 16})->right, 2u);
  EXPECT_EQ(by_range.at({28, 4})->left, kNoVersion);
  EXPECT_EQ(by_range.at({30, 2})->left, 2u);
  EXPECT_EQ(by_range.at({30, 2})->right, kNoVersion);
}

TEST(BuildWriteNodes, RepeatedDoublingChainsStayConsistent) {
  // Capacity doubles on three consecutive appends; each version's chain
  // must point at the previous version's root.
  std::vector<WriteRecord> history;
  uint64_t cap = 1;
  for (Version v = 1; v <= 4; ++v) {
    const PageRange range{cap == 1 && v == 1 ? 0 : cap, v == 1 ? 1 : cap};
    const uint64_t new_cap = v == 1 ? 1 : cap * 2;
    auto nodes = build_write_nodes(range, new_cap, v, history);
    if (v > 1) {
      const MetaNode& root = nodes.back();
      EXPECT_EQ(root.range, (PageRange{0, new_cap}));
      EXPECT_EQ(root.left, v - 1) << "root.left must be prior root at v=" << v;
      EXPECT_EQ(root.right, v);
    }
    history.push_back({v, range, 0, new_cap});
    cap = new_cap;
  }
}

TEST(LatestOwner, PicksNewestMatchingVersion) {
  std::vector<WriteRecord> history = {
      {1, {0, 2}, 0, 4},  // v1 wrote pages 0-1, cap 4
      {2, {2, 2}, 0, 4},  // v2 wrote pages 2-3, cap 4
      {3, {0, 1}, 0, 4},  // v3 rewrote page 0
  };
  EXPECT_EQ(latest_owner({0, 1}, history, 4), 3u);
  EXPECT_EQ(latest_owner({1, 1}, history, 4), 1u);
  EXPECT_EQ(latest_owner({2, 2}, history, 4), 2u);
  EXPECT_EQ(latest_owner({0, 2}, history, 4), 3u);
  EXPECT_EQ(latest_owner({0, 4}, history, 4), 3u);
  // `before` bounds the search.
  EXPECT_EQ(latest_owner({0, 1}, history, 3), 1u);
  EXPECT_EQ(latest_owner({2, 2}, history, 2), kNoVersion);
}

TEST(LatestOwner, RespectsCapacityGrowth) {
  std::vector<WriteRecord> history = {
      {1, {0, 1}, 0, 1},  // cap 1
      {2, {1, 1}, 0, 2},  // cap grew to 2
  };
  // Node [0,2) only exists from v2 onward (v1's tree was cap 1).
  EXPECT_EQ(latest_owner({0, 2}, history, 3), 2u);
  EXPECT_EQ(latest_owner({0, 2}, history, 2), kNoVersion);
}

TEST(BuildWriteNodes, FirstWriteBuildsFullPaths) {
  // v1 writes pages 0-2 of a cap-4 tree.
  auto nodes = build_write_nodes({0, 3}, 4, 1, {});
  // 3 leaves + [0,2) + [2,4) + [0,4) = 6 nodes.
  ASSERT_EQ(nodes.size(), 6u);
  EXPECT_TRUE(nodes[0].is_leaf());
  EXPECT_EQ(nodes[0].range, (PageRange{0, 1}));
  EXPECT_EQ(nodes[2].range, (PageRange{2, 1}));
  // Inner [2,4): left child (page 2) written by v1, right child hole.
  const MetaNode& n24 = nodes[4];
  EXPECT_EQ(n24.range, (PageRange{2, 2}));
  EXPECT_EQ(n24.left, 1u);
  EXPECT_EQ(n24.right, kNoVersion);
  // Root.
  const MetaNode& root = nodes[5];
  EXPECT_EQ(root.range, (PageRange{0, 4}));
  EXPECT_EQ(root.left, 1u);
  EXPECT_EQ(root.right, 1u);
}

TEST(BuildWriteNodes, SecondWriteSharesUntouchedSubtree) {
  std::vector<WriteRecord> history = {{1, {0, 4}, 0, 4}};
  // v2 rewrites page 3 only.
  auto nodes = build_write_nodes({3, 1}, 4, 2, history);
  // Leaf 3, [2,4), [0,4).
  ASSERT_EQ(nodes.size(), 3u);
  const MetaNode& n24 = nodes[1];
  EXPECT_EQ(n24.left, 1u);   // page 2 shared with v1
  EXPECT_EQ(n24.right, 2u);  // page 3 rewritten
  const MetaNode& root = nodes[2];
  EXPECT_EQ(root.left, 1u);  // subtree [0,2) shared wholesale with v1
  EXPECT_EQ(root.right, 2u);
}

TEST(BuildWriteNodes, AppendGrowsRootChain) {
  std::vector<WriteRecord> history = {
      {1, {0, 4}, 0, 4},  // v1 filled pages 0-3
      {2, {4, 4}, 0, 8},  // v2 appended pages 4-7
  };
  // v3 appends pages 8-9: capacity grows to 16.
  auto nodes = build_write_nodes({8, 2}, 16, 3, history);
  // Leaves 8,9; [8,10)... canonical: [8,10) is not canonical (size 2 at
  // offset 8 is canonical: 8/2=4 ✓). Nodes: leaf8, leaf9, [8,10), [8,12),
  // [8,16), [0,16).
  ASSERT_EQ(nodes.size(), 6u);
  const MetaNode& root = nodes.back();
  EXPECT_EQ(root.range, (PageRange{0, 16}));
  EXPECT_EQ(root.left, 2u);   // [0,8) owned by v2 (its root)
  EXPECT_EQ(root.right, 3u);  // [8,16) created now
  const MetaNode& n816 = nodes[4];
  EXPECT_EQ(n816.range, (PageRange{8, 8}));
  EXPECT_EQ(n816.left, 3u);
  EXPECT_EQ(n816.right, kNoVersion);  // pages 12-15 never written
  const MetaNode& n812 = nodes[3];
  EXPECT_EQ(n812.left, 3u);            // [8,10)
  EXPECT_EQ(n812.right, kNoVersion);   // [10,12) hole
}

TEST(BuildWriteNodes, ConcurrentWritersProduceConsistentTrees) {
  // Two writers assigned v2 and v3 concurrently over a v1 base; each builds
  // from the same history prefix rule. Verify v3's border pointers name v2
  // where ranges overlap — without ever "reading" v2's nodes.
  std::vector<WriteRecord> h1 = {{1, {0, 8}, 0, 8}};
  auto v2_nodes = build_write_nodes({0, 2}, 8, 2, h1);
  std::vector<WriteRecord> h2 = h1;
  h2.push_back({2, {0, 2}, 0, 8});
  auto v3_nodes = build_write_nodes({1, 2}, 8, 3, h2);
  // v3's leaf 1 and leaf 2 exist; node [0,2): left = v2's page 0.
  const auto& n02 = *std::find_if(v3_nodes.begin(), v3_nodes.end(),
                                  [](const MetaNode& n) {
                                    return n.range == PageRange{0, 2};
                                  });
  EXPECT_EQ(n02.left, 2u);
  EXPECT_EQ(n02.right, 3u);
  // node [2,4): left = v3's page 2, right = v1's page 3.
  const auto& n24 = *std::find_if(v3_nodes.begin(), v3_nodes.end(),
                                  [](const MetaNode& n) {
                                    return n.range == PageRange{2, 2};
                                  });
  EXPECT_EQ(n24.left, 3u);
  EXPECT_EQ(n24.right, 1u);
  (void)v2_nodes;
}

TEST(MetaNode, SerializeRoundtrip) {
  MetaNode n;
  n.range = {12, 4};
  n.version = 9;
  n.left = 7;
  n.right = kNoVersion;
  n.page_length = 4096;
  n.providers = {3, 250, 17};
  auto raw = n.serialize();
  MetaNode back = MetaNode::deserialize(raw);
  EXPECT_EQ(back.range, n.range);
  EXPECT_EQ(back.version, n.version);
  EXPECT_EQ(back.left, n.left);
  EXPECT_EQ(back.right, n.right);
  EXPECT_EQ(back.page_length, n.page_length);
  EXPECT_EQ(back.providers, n.providers);
}

TEST(MetaKey, IsUniquePerNode) {
  std::set<std::string> keys;
  for (uint64_t f : {0ull, 1ull, 2ull}) {
    for (uint64_t c : {1ull, 2ull, 4ull}) {
      for (Version v : {1u, 2u}) {
        keys.insert(meta_key(7, {f, c}, v));
      }
    }
  }
  EXPECT_EQ(keys.size(), 18u);
  // Different blob → different key.
  EXPECT_NE(meta_key(1, {0, 1}, 1), meta_key(2, {0, 1}, 1));
}

// Property: simulate a random write history and verify that, for every
// version v and every page p < pages(v), following child pointers from v's
// root reaches exactly the version that last wrote p as of v (or a hole if
// never written). This checks the whole existence/ownership scheme without
// any storage: build_write_nodes output for all versions forms the "DHT".
class TreeOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(TreeOracleTest, PointerChasingMatchesHistoryOracle) {
  Rng rng(GetParam());
  const uint64_t max_pages = 64;

  std::vector<WriteRecord> history;
  std::map<std::string, MetaNode> dht;  // key → node
  uint64_t size_pages = 0;

  const int num_versions = 30;
  for (Version v = 1; v <= num_versions; ++v) {
    PageRange range;
    if (size_pages == 0 || rng.chance(0.4)) {
      // Append 1..8 pages, sometimes sparsely (leaving a hole).
      const uint64_t gap = rng.chance(0.3) ? rng.below(6) : 0;
      range = {size_pages + gap, 1 + rng.below(8)};
    } else {
      // Overwrite a random existing range.
      range.first = rng.below(size_pages);
      range.count = 1 + rng.below(std::min<uint64_t>(8, size_pages - range.first));
    }
    if (range.end() > max_pages) range = {0, 1 + rng.below(4)};
    size_pages = std::max(size_pages, range.end());
    const uint64_t cap = next_pow2(size_pages);
    auto nodes = build_write_nodes(range, cap, v, history);
    for (const auto& n : nodes) {
      dht[meta_key(1, n.range, n.version)] = n;
    }
    history.push_back({v, range, size_pages /*bytes unused*/, cap});
  }

  // Oracle: last_writer[v][p].
  for (Version v = 1; v <= num_versions; ++v) {
    const WriteRecord& rec = history[v - 1];
    const uint64_t cap = rec.cap_after;
    for (uint64_t p = 0; p < cap; ++p) {
      // Expected owner of page p at version v.
      Version expected = kNoVersion;
      for (Version u = v; u >= 1; --u) {
        if (history[u - 1].range.first <= p && p < history[u - 1].range.end()) {
          expected = u;
          break;
        }
      }
      // Chase pointers from the root.
      PageRange node_range{0, cap};
      Version node_version = v;  // root created by v (it intersects)
      while (node_range.count > 1 && node_version != kNoVersion) {
        auto it = dht.find(meta_key(1, node_range, node_version));
        ASSERT_NE(it, dht.end())
            << "missing node " << meta_key(1, node_range, node_version);
        const MetaNode& n = it->second;
        const PageRange lc = left_child(node_range);
        if (p < lc.end()) {
          node_range = lc;
          node_version = n.left;
        } else {
          node_range = right_child(node_range);
          node_version = n.right;
        }
      }
      if (node_version == kNoVersion) {
        EXPECT_EQ(expected, kNoVersion) << "v=" << v << " p=" << p;
      } else {
        EXPECT_EQ(node_version, expected) << "v=" << v << " p=" << p;
        // The leaf itself must exist.
        EXPECT_TRUE(dht.count(meta_key(1, {p, 1}, node_version)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeOracleTest, ::testing::Range(1, 11));

}  // namespace
}  // namespace bs::blob
