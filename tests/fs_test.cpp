// File-system layer tests.
//
// The generic suite runs against BOTH back-ends through the fs::FileSystem
// interface (parameterized), verifying identical observable semantics for
// everything the MapReduce framework relies on. Back-end-specific suites
// check BSFS's cache/prefetch/versioning and HDFS's single-writer,
// no-append, and placement policy.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "blob/cluster.h"
#include "bsfs/bsfs.h"
#include "fs/filesystem.h"
#include "hdfs/hdfs.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace bs {
namespace {

constexpr uint64_t kBlock = 4096;  // small blocks exercise multi-block paths
constexpr uint64_t kPage = 1024;

net::ClusterConfig test_net() {
  net::ClusterConfig cfg;
  cfg.num_nodes = 16;
  cfg.nodes_per_rack = 4;
  return cfg;
}

bsfs::BsfsConfig bsfs_config() {
  bsfs::BsfsConfig cfg;
  cfg.block_size = kBlock;
  cfg.page_size = kPage;
  return cfg;
}

hdfs::HdfsConfig hdfs_config() {
  hdfs::HdfsConfig cfg;
  cfg.namenode.block_size = kBlock;
  cfg.namenode.replication = 1;
  return cfg;
}

// A world holding both file systems over one simulated cluster.
struct FsWorld {
  sim::Simulator sim;
  net::Network net;
  blob::BlobSeerCluster blobs;
  bsfs::NamespaceManager ns;
  bsfs::Bsfs bsfs;
  hdfs::Hdfs hdfs;

  FsWorld()
      : net(sim, test_net()), blobs(sim, net, {}),
        ns(sim, net, bsfs::NamespaceConfig{}),
        bsfs(sim, net, blobs, ns, bsfs_config()),
        hdfs(sim, net, hdfs_config()) {}

  fs::FileSystem& get(const std::string& name) {
    if (name == "BSFS") return bsfs;
    return hdfs;
  }
};

// Writes `data` to `path` as one call and closes. Returns success.
sim::Task<bool> write_file(fs::FsClient& client, std::string path,
                           DataSpec data) {
  auto writer = co_await client.create(path);
  if (!writer) co_return false;
  const bool wrote = co_await writer->write(std::move(data));
  if (!wrote) co_return false;
  co_return co_await writer->close();
}

sim::Task<std::optional<Bytes>> read_file(fs::FsClient& client,
                                          std::string path) {
  auto reader = co_await client.open(path);
  if (!reader) co_return std::nullopt;
  DataSpec all = co_await reader->read(0, reader->size());
  co_return all.materialize();
}

class FsInterfaceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FsInterfaceTest, CreateWriteReadRoundtrip) {
  FsWorld w;
  auto client = w.get(GetParam()).make_client(3);
  bool ok = false;
  auto proc = [](fs::FsClient& c, bool* out) -> sim::Task<void> {
    const std::string content = "the quick brown fox\n";
    const bool wrote =
        co_await write_file(c, "/data/f1", DataSpec::from_string(content));
    if (!wrote) co_return;
    auto got = co_await read_file(c, "/data/f1");
    *out = got.has_value() &&
           std::string(got->begin(), got->end()) == content;
  };
  w.sim.spawn(proc(*client, &ok));
  w.sim.run();
  EXPECT_TRUE(ok);
}

TEST_P(FsInterfaceTest, MultiBlockFileRoundtrip) {
  FsWorld w;
  auto client = w.get(GetParam()).make_client(0);
  bool ok = false;
  auto proc = [](fs::FsClient& c, bool* out) -> sim::Task<void> {
    auto payload = DataSpec::pattern(9, 0, kBlock * 5 + 123);
    const bool wrote = co_await write_file(c, "/big", payload);
    if (!wrote) co_return;
    auto st = co_await c.stat("/big");
    if (!st || st->size != kBlock * 5 + 123) co_return;
    auto reader = co_await c.open("/big");
    if (!reader) co_return;
    auto all = co_await reader->read(0, reader->size());
    *out = all.content_equals(payload);
  };
  w.sim.spawn(proc(*client, &ok));
  w.sim.run();
  EXPECT_TRUE(ok);
}

TEST_P(FsInterfaceTest, SubrangeReadsAcrossBlockBoundaries) {
  FsWorld w;
  auto client = w.get(GetParam()).make_client(1);
  int failures = -1;
  auto proc = [](fs::FsClient& c, int* fails) -> sim::Task<void> {
    auto payload = DataSpec::pattern(4, 0, kBlock * 3);
    const bool wrote = co_await write_file(c, "/f", payload);
    if (!wrote) co_return;
    auto reader = co_await c.open("/f");
    if (!reader) co_return;
    *fails = 0;
    const uint64_t offs[] = {0, 1, kBlock - 1, kBlock, kBlock + 1,
                             2 * kBlock + 77};
    const uint64_t lens[] = {1, 100, kBlock, kBlock + 33};
    for (uint64_t off : offs) {
      for (uint64_t len : lens) {
        if (off + len > kBlock * 3) continue;
        auto got = co_await reader->read(off, len);
        if (!got.content_equals(payload.slice(off, len))) ++*fails;
      }
    }
  };
  w.sim.spawn(proc(*client, &failures));
  w.sim.run();
  EXPECT_EQ(failures, 0);
}

TEST_P(FsInterfaceTest, ManySmallWritesAccumulate) {
  FsWorld w;
  auto client = w.get(GetParam()).make_client(2);
  bool ok = false;
  auto proc = [](fs::FsClient& c, bool* out) -> sim::Task<void> {
    auto writer = co_await c.create("/chunks");
    if (!writer) co_return;
    // 4 KB-ish records, the paper's record size relative to blocks.
    const uint64_t total = kBlock * 2 + 500;
    uint64_t written = 0;
    while (written < total) {
      const uint64_t n = std::min<uint64_t>(257, total - written);
      const bool ok2 = co_await writer->write(DataSpec::pattern(11, written, n));
      if (!ok2) co_return;
      written += n;
    }
    const bool closed = co_await writer->close();
    if (!closed) co_return;
    auto got = co_await read_file(c, "/chunks");
    *out = got.has_value() &&
           DataSpec::from_bytes(*got).content_equals(
               DataSpec::pattern(11, 0, total));
  };
  w.sim.spawn(proc(*client, &ok));
  w.sim.run();
  EXPECT_TRUE(ok);
}

TEST_P(FsInterfaceTest, CreateFailsIfExists) {
  FsWorld w;
  auto client = w.get(GetParam()).make_client(0);
  bool first = false, second = true;
  auto proc = [](fs::FsClient& c, bool* a, bool* b) -> sim::Task<void> {
    *a = co_await write_file(c, "/dup", DataSpec::from_string("x"));
    auto writer = co_await c.create("/dup");
    *b = writer != nullptr;
  };
  w.sim.spawn(proc(*client, &first, &second));
  w.sim.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
}

TEST_P(FsInterfaceTest, OpenMissingReturnsNull) {
  FsWorld w;
  auto client = w.get(GetParam()).make_client(0);
  bool null_reader = false;
  auto proc = [](fs::FsClient& c, bool* out) -> sim::Task<void> {
    auto reader = co_await c.open("/no/such/file");
    *out = reader == nullptr;
  };
  w.sim.spawn(proc(*client, &null_reader));
  w.sim.run();
  EXPECT_TRUE(null_reader);
}

TEST_P(FsInterfaceTest, FileInvisibleUntilClosed) {
  FsWorld w;
  auto client = w.get(GetParam()).make_client(0);
  auto client2 = w.get(GetParam()).make_client(1);
  bool invisible = false, visible = false;
  auto proc = [](fs::FsClient& c, fs::FsClient& c2, bool* inv,
                 bool* vis) -> sim::Task<void> {
    auto writer = co_await c.create("/wip");
    co_await writer->write(DataSpec::pattern(1, 0, kBlock));
    auto reader = co_await c2.open("/wip");
    *inv = reader == nullptr;  // under construction
    co_await writer->close();
    auto reader2 = co_await c2.open("/wip");
    *vis = reader2 != nullptr;
  };
  w.sim.spawn(proc(*client, *client2, &invisible, &visible));
  w.sim.run();
  EXPECT_TRUE(invisible);
  EXPECT_TRUE(visible);
}

TEST_P(FsInterfaceTest, ListAndRemove) {
  FsWorld w;
  auto client = w.get(GetParam()).make_client(0);
  std::vector<std::string> listed;
  bool removed = false, gone = false;
  auto proc = [](fs::FsClient& c, std::vector<std::string>* ls, bool* rm,
                 bool* g) -> sim::Task<void> {
    co_await write_file(c, "/dir/a", DataSpec::from_string("1"));
    co_await write_file(c, "/dir/b", DataSpec::from_string("2"));
    co_await write_file(c, "/dir/sub/c", DataSpec::from_string("3"));
    *ls = co_await c.list("/dir");
    *rm = co_await c.remove("/dir/a");
    auto st = co_await c.stat("/dir/a");
    *g = !st.has_value();
  };
  w.sim.spawn(proc(*client, &listed, &removed, &gone));
  w.sim.run();
  // Direct children only: a, b, and the sub directory.
  std::set<std::string> set(listed.begin(), listed.end());
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.count("/dir/a"));
  EXPECT_TRUE(set.count("/dir/b"));
  EXPECT_TRUE(set.count("/dir/sub"));
  EXPECT_TRUE(removed);
  EXPECT_TRUE(gone);
}

TEST_P(FsInterfaceTest, LocationsCoverWholeFile) {
  FsWorld w;
  auto client = w.get(GetParam()).make_client(0);
  std::vector<fs::BlockLocation> locs;
  uint64_t size = 0;
  auto proc = [](fs::FsClient& c, std::vector<fs::BlockLocation>* out,
                 uint64_t* sz) -> sim::Task<void> {
    const uint64_t total = kBlock * 4 + 17;
    co_await write_file(c, "/located", DataSpec::pattern(3, 0, total));
    *out = co_await c.locations("/located", 0, total);
    auto st = co_await c.stat("/located");
    *sz = st->size;
  };
  w.sim.spawn(proc(*client, &locs, &size));
  w.sim.run();
  ASSERT_EQ(locs.size(), 5u);
  uint64_t covered = 0;
  for (const auto& l : locs) {
    EXPECT_FALSE(l.hosts.empty());
    covered += l.length;
  }
  EXPECT_EQ(covered, size);
  // Blocks are reported in file order.
  for (size_t i = 1; i < locs.size(); ++i) {
    EXPECT_GT(locs[i].offset, locs[i - 1].offset);
  }
}

TEST_P(FsInterfaceTest, RenameOntoExistingDestinationFails) {
  // The MapReduce commit primitive: a rename must never overwrite an
  // existing destination — both back-ends have to agree, or a task commit
  // that lost a speculative race on one system would silently clobber the
  // winner's output on the other.
  FsWorld w;
  auto client = w.get(GetParam()).make_client(0);
  bool renamed = true;
  std::optional<Bytes> dst_after, src_after;
  auto proc = [](fs::FsClient& c, bool* rn, std::optional<Bytes>* dst,
                 std::optional<Bytes>* src) -> sim::Task<void> {
    co_await write_file(c, "/out/part", DataSpec::from_string("winner"));
    co_await write_file(c, "/out/tmp", DataSpec::from_string("latecomer"));
    *rn = co_await c.rename("/out/tmp", "/out/part");
    *dst = co_await read_file(c, "/out/part");
    *src = co_await read_file(c, "/out/tmp");
  };
  w.sim.spawn(proc(*client, &renamed, &dst_after, &src_after));
  w.sim.run();
  EXPECT_FALSE(renamed);
  ASSERT_TRUE(dst_after.has_value());
  EXPECT_EQ(std::string(dst_after->begin(), dst_after->end()), "winner");
  // The failed rename leaves the source in place for the loser to remove.
  ASSERT_TRUE(src_after.has_value());
  EXPECT_EQ(std::string(src_after->begin(), src_after->end()), "latecomer");
}

TEST_P(FsInterfaceTest, RacingCommitsToOnePartFileLeaveOneWinner) {
  // Two attempts commit the same part file concurrently; exactly one
  // rename may win, and the surviving file is exactly the winner's bytes.
  FsWorld w;
  auto c1 = w.get(GetParam()).make_client(1);
  auto c2 = w.get(GetParam()).make_client(2);
  bool won1 = false, won2 = false;
  auto committer = [](fs::FsClient& c, std::string tmp,
                      std::string text, bool* won) -> sim::Task<void> {
    co_await write_file(c, tmp, DataSpec::from_string(std::move(text)));
    *won = co_await c.rename(tmp, "/out/part-r-00000");
    if (!*won) co_await c.remove(tmp);
  };
  w.sim.spawn(committer(*c1, "/out/_attempts/a0", "attempt-zero", &won1));
  w.sim.spawn(committer(*c2, "/out/_attempts/a1", "attempt-one!", &won2));
  w.sim.run();
  EXPECT_NE(won1, won2) << "exactly one racing rename must win";
  std::optional<Bytes> final_bytes;
  std::vector<std::string> leftovers;
  auto check = [](fs::FsClient& c, std::optional<Bytes>* out,
                  std::vector<std::string>* tmp) -> sim::Task<void> {
    *out = co_await read_file(c, "/out/part-r-00000");
    *tmp = co_await c.list("/out/_attempts");
  };
  w.sim.spawn(check(*c1, &final_bytes, &leftovers));
  w.sim.run();
  ASSERT_TRUE(final_bytes.has_value());
  const std::string got(final_bytes->begin(), final_bytes->end());
  EXPECT_EQ(got, won1 ? "attempt-zero" : "attempt-one!");
  EXPECT_TRUE(leftovers.empty());
}

TEST_P(FsInterfaceTest, VersionedNamesResolveLiteralEntriesFirst) {
  // A file whose name literally ends in "@v<N>" must behave like any other
  // file on BOTH back-ends: stat/open/remove resolve the literal entry, and
  // the versioned-path interpretation never shadows it (round-trip safety
  // for the BSFS "@v" convention; plain characters on HDFS).
  FsWorld w;
  auto client = w.get(GetParam()).make_client(0);
  std::optional<fs::FileStat> st;
  std::optional<Bytes> content;
  bool removed = false, gone = false;
  auto proc = [](fs::FsClient& c, std::optional<fs::FileStat>* s,
                 std::optional<Bytes>* data, bool* rm,
                 bool* g) -> sim::Task<void> {
    co_await write_file(c, "/out/f@v2", DataSpec::from_string("literal"));
    *s = co_await c.stat("/out/f@v2");
    *data = co_await read_file(c, "/out/f@v2");
    *rm = co_await c.remove("/out/f@v2");
    auto after = co_await c.stat("/out/f@v2");
    *g = !after.has_value();
  };
  w.sim.spawn(proc(*client, &st, &content, &removed, &gone));
  w.sim.run();
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->size, 7u);
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(std::string(content->begin(), content->end()), "literal");
  EXPECT_TRUE(removed);
  EXPECT_TRUE(gone);
}

TEST_P(FsInterfaceTest, DirectoryComponentsContainingVersionSyntaxAreLiteral) {
  // "@v<digits>" is version syntax only in the FINAL component: a
  // directory named "logs@v2" is an ordinary directory, and paths through
  // it stat/list/read identically on both back-ends.
  FsWorld w;
  auto client = w.get(GetParam()).make_client(1);
  std::optional<fs::FileStat> dir_st, file_st;
  std::vector<std::string> listed;
  std::optional<Bytes> content;
  auto proc = [](fs::FsClient& c, std::optional<fs::FileStat>* ds,
                 std::optional<fs::FileStat>* fst,
                 std::vector<std::string>* ls,
                 std::optional<Bytes>* data) -> sim::Task<void> {
    co_await write_file(c, "/logs@v2/f", DataSpec::from_string("payload"));
    *ds = co_await c.stat("/logs@v2");
    *fst = co_await c.stat("/logs@v2/f");
    *ls = co_await c.list("/logs@v2");
    *data = co_await read_file(c, "/logs@v2/f");
  };
  w.sim.spawn(proc(*client, &dir_st, &file_st, &listed, &content));
  w.sim.run();
  ASSERT_TRUE(dir_st.has_value());
  EXPECT_TRUE(dir_st->is_dir);
  ASSERT_TRUE(file_st.has_value());
  EXPECT_EQ(file_st->size, 7u);
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0], "/logs@v2/f");
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(std::string(content->begin(), content->end()), "payload");
}

TEST_P(FsInterfaceTest, RemoveOfAVersionedNameNeverDropsHistory) {
  // remove("<path>@v<N>") with no literal entry of that name must fail on
  // both back-ends — versions are pruned by GC/retention policy, never by
  // a path-level remove — and the base file stays fully intact.
  FsWorld w;
  const bool bsfs = std::string(GetParam()) == "BSFS";
  auto client = w.get(GetParam()).make_client(0);
  bool removed = true;
  std::optional<fs::FileStat> base_st, v1_st;
  auto proc = [](fs::FsClient& c, bool* rm, std::optional<fs::FileStat>* base,
                 std::optional<fs::FileStat>* v1) -> sim::Task<void> {
    co_await write_file(c, "/keep", DataSpec::pattern(8, 0, kBlock));
    *rm = co_await c.remove("/keep@v1");
    *base = co_await c.stat("/keep");
    *v1 = co_await c.stat("/keep@v1");
  };
  w.sim.spawn(proc(*client, &removed, &base_st, &v1_st));
  w.sim.run();
  EXPECT_FALSE(removed);
  ASSERT_TRUE(base_st.has_value());
  EXPECT_EQ(base_st->size, kBlock);
  if (bsfs) {
    // The version history is untouched: version 1 still stats.
    ASSERT_TRUE(v1_st.has_value());
    EXPECT_EQ(v1_st->size, kBlock);
  } else {
    // HDFS has no versions: the name is just an absent literal path.
    EXPECT_FALSE(v1_st.has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, FsInterfaceTest,
                         ::testing::Values("BSFS", "HDFS"));

// ---------------- BSFS-specific ----------------

TEST(BsfsSpecific, PrefetchMakesRecordReadsCacheHits) {
  FsWorld w;
  auto client = w.bsfs.make_client(2);
  uint64_t hits = 0, misses = 0;
  auto proc = [](fs::FsClient& c, uint64_t* h, uint64_t* m) -> sim::Task<void> {
    co_await write_file(c, "/rec", DataSpec::pattern(5, 0, kBlock * 2));
    auto reader = co_await c.open("/rec");
    // 4 KB-style sequential record reads (here 256 B against 4 KB blocks).
    for (uint64_t off = 0; off < kBlock * 2; off += 256) {
      co_await reader->read(off, 256);
    }
    auto* br = static_cast<bsfs::BsfsReader*>(reader.get());
    *h = br->cache_hits();
    *m = br->cache_misses();
  };
  w.sim.spawn(proc(*client, &hits, &misses));
  w.sim.run();
  EXPECT_EQ(misses, 2u);  // one prefetch per block
  EXPECT_EQ(hits, 30u);   // every other record served from cache
}

TEST(BsfsSpecific, WriteBehindCommitsWholeBlocks) {
  FsWorld w;
  auto client = w.bsfs.make_client(2);
  auto proc = [](fs::FsClient& c) -> sim::Task<void> {
    auto writer = co_await c.create("/wb");
    for (int i = 0; i < 32; ++i) {
      co_await writer->write(DataSpec::pattern(1, i * 256, 256));  // 8 KB total
    }
    co_await writer->close();
  };
  w.sim.spawn(proc(*client));
  w.sim.run();
  // 8 KB over 4 KB blocks = 2 appends = 2 published versions of the blob.
  EXPECT_EQ(w.blobs.version_manager().published_version(1), 2u);
}

TEST(BsfsSpecific, AppendReopensFile) {
  FsWorld w;
  auto client = w.bsfs.make_client(2);
  bool ok = false;
  auto proc = [](fs::FsClient& c, bool* out) -> sim::Task<void> {
    co_await write_file(c, "/app", DataSpec::pattern(7, 0, kBlock));
    auto writer = co_await c.append("/app");
    if (!writer) co_return;
    co_await writer->write(DataSpec::pattern(7, kBlock, kBlock));
    co_await writer->close();
    auto got = co_await read_file(c, "/app");
    *out = got.has_value() && DataSpec::from_bytes(*got).content_equals(
                                  DataSpec::pattern(7, 0, 2 * kBlock));
  };
  w.sim.spawn(proc(*client, &ok));
  w.sim.run();
  EXPECT_TRUE(ok);
}

TEST(BsfsSpecific, UnalignedAppendsReadModifyWriteTheTail) {
  // Appending to a file whose size is mid-page must preserve the old tail
  // byte-exactly (the writer re-writes the short final page).
  FsWorld w;
  auto client = w.bsfs.make_client(2);
  bool ok = false;
  auto proc = [](fs::FsClient& c, bool* out) -> sim::Task<void> {
    co_await write_file(c, "/raw", DataSpec::from_string("hello"));
    for (int round = 0; round < 3; ++round) {
      auto writer = co_await c.append("/raw");
      if (!writer) co_return;
      co_await writer->write(DataSpec::from_string(" again"));
      co_await writer->close();
    }
    auto got = co_await read_file(c, "/raw");
    *out = got.has_value() &&
           std::string(got->begin(), got->end()) == "hello again again again";
  };
  w.sim.spawn(proc(*client, &ok));
  w.sim.run();
  EXPECT_TRUE(ok);
}

TEST(BsfsSpecific, UnalignedAppendAcrossPageBoundary) {
  FsWorld w;
  auto client = w.bsfs.make_client(1);
  bool ok = false;
  auto proc = [](fs::FsClient& c, bool* out) -> sim::Task<void> {
    // First write ends mid-page; the append spans several pages and blocks.
    auto head = DataSpec::pattern(50, 0, kPage + 37);
    co_await write_file(c, "/x", head);
    auto writer = co_await c.append("/x");
    if (!writer) co_return;
    auto tail = DataSpec::pattern(50, kPage + 37, kBlock * 2 + 11);
    co_await writer->write(tail);
    co_await writer->close();
    auto got = co_await read_file(c, "/x");
    *out = got.has_value() &&
           DataSpec::from_bytes(*got).content_equals(
               DataSpec::pattern(50, 0, kPage + 37 + kBlock * 2 + 11));
  };
  w.sim.spawn(proc(*client, &ok));
  w.sim.run();
  EXPECT_TRUE(ok);
}

TEST(BsfsSpecific, ConcurrentSharedAppendersNeverOverwrite) {
  // The §V primitive behind OutputMode::kSharedAppend: many writers hold
  // append_shared() writers on ONE file at once, each appending a whole
  // block. Every block must land exactly once — the version manager
  // assigns disjoint ranges, so no interleaving may lose or duplicate a
  // writer's data (the plain append() RMW path would).
  constexpr int kWriters = 6;
  FsWorld w;
  auto setup = w.bsfs.make_client(0);
  auto seed_file = [](fs::FsClient& c) -> sim::Task<void> {
    auto writer = co_await c.create("/shared");
    co_await writer->close();
  };
  w.sim.spawn(seed_file(*setup));
  w.sim.run();

  std::vector<std::unique_ptr<fs::FsClient>> clients;
  for (int i = 0; i < kWriters; ++i) {
    clients.push_back(w.bsfs.make_client(1 + i));
  }
  auto appender = [](fs::FsClient& c, uint64_t seed) -> sim::Task<void> {
    auto writer = co_await c.append_shared("/shared");
    if (writer == nullptr) co_return;  // asserted via the final size check
    co_await writer->write(DataSpec::pattern(seed, 0, kBlock));
    co_await writer->close();
  };
  for (int i = 0; i < kWriters; ++i) {
    w.sim.spawn(appender(*clients[i], 100 + i));
  }
  w.sim.run();

  std::optional<Bytes> all;
  auto read_back = [](fs::FsClient& c, std::optional<Bytes>* out)
      -> sim::Task<void> { *out = co_await read_file(c, "/shared"); };
  w.sim.spawn(read_back(*setup, &all));
  w.sim.run();
  ASSERT_TRUE(all.has_value());
  ASSERT_EQ(all->size(), kWriters * kBlock);
  // Each writer's block appears exactly once, intact.
  std::set<uint64_t> seen;
  for (int b = 0; b < kWriters; ++b) {
    const uint64_t base = static_cast<uint64_t>(b) * kBlock;
    uint64_t matched = 0;
    for (int i = 0; i < kWriters; ++i) {
      const uint64_t seed = 100 + i;
      bool match = true;
      for (uint64_t off = 0; off < kBlock && match; off += 97) {
        match = (*all)[base + off] == pattern_byte(seed, off);
      }
      if (match) {
        matched = seed;
        break;
      }
    }
    ASSERT_NE(matched, 0u) << "block " << b << " matches no writer";
    EXPECT_TRUE(seen.insert(matched).second)
        << "writer " << matched << " appended twice";
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kWriters));
}

TEST(BsfsSpecific, SnapshotReadersSeeOldVersion) {
  FsWorld w;
  auto client_ptr = w.bsfs.make_client(2);
  auto* client = static_cast<bsfs::BsfsClient*>(client_ptr.get());
  bool ok = false;
  auto proc = [](FsWorld& world, bsfs::BsfsClient& c, bool* out) -> sim::Task<void> {
    co_await write_file(c, "/versioned", DataSpec::pattern(1, 0, kBlock));
    const blob::Version snap = co_await world.bsfs.snapshot(c.node(), "/versioned");
    // Append more data after the snapshot.
    auto writer = co_await c.append("/versioned");
    co_await writer->write(DataSpec::pattern(2, 0, kBlock));
    co_await writer->close();
    // A reader pinned at the snapshot sees only the first block.
    auto old_reader = co_await c.open_at_version("/versioned", snap);
    auto new_reader = co_await c.open("/versioned");
    if (!old_reader || !new_reader) co_return;
    *out = old_reader->size() == kBlock && new_reader->size() == 2 * kBlock;
    auto old_data = co_await old_reader->read(0, old_reader->size());
    *out = *out && old_data.content_equals(DataSpec::pattern(1, 0, kBlock));
  };
  w.sim.spawn(proc(w, *client, &ok));
  w.sim.run();
  EXPECT_TRUE(ok);
}

TEST(BsfsSpecific, VersionedPathRoundTrip) {
  // versioned_path / parse_versioned_path must round-trip for every legal
  // base path — including bases whose components already contain "@v".
  const std::string bases[] = {"/a", "/deep/dir/file", "/a@v1/b", "/x@vz",
                               "/f@v2", "/trailing@v"};
  const blob::Version versions[] = {1, 9, 42, 1000000};
  for (const std::string& base : bases) {
    for (blob::Version v : versions) {
      const auto [parsed_base, parsed_v] =
          bsfs::parse_versioned_path(bsfs::versioned_path(base, v));
      EXPECT_EQ(parsed_base, base) << base << " @v" << v;
      EXPECT_EQ(parsed_v, v) << base << " @v" << v;
    }
  }
  // Names that are NOT version syntax parse as plain paths.
  for (const char* plain :
       {"/a@v1/b", "/x@v", "/x@v12y", "/x@", "/plain", "@v"}) {
    const auto [base, v] = bsfs::parse_versioned_path(plain);
    EXPECT_EQ(base, plain);
    EXPECT_EQ(v, blob::kNoVersion);
  }
}

TEST(BsfsSpecific, VersionedStatReportsHistoricalSizes) {
  FsWorld w;
  auto client = w.bsfs.make_client(1);
  std::optional<fs::FileStat> v1, v2, missing;
  auto proc = [](fs::FsClient& c, std::optional<fs::FileStat>* a,
                 std::optional<fs::FileStat>* b,
                 std::optional<fs::FileStat>* m) -> sim::Task<void> {
    co_await write_file(c, "/grow", DataSpec::pattern(1, 0, kBlock));
    auto writer = co_await c.append("/grow");
    co_await writer->write(DataSpec::pattern(2, 0, kBlock));
    co_await writer->close();
    *a = co_await c.stat("/grow@v1");
    *b = co_await c.stat("/grow@v2");
    *m = co_await c.stat("/grow@v99");
  };
  w.sim.spawn(proc(*client, &v1, &v2, &missing));
  w.sim.run();
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->size, kBlock);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(v2->size, 2 * kBlock);
  EXPECT_FALSE(missing.has_value());
}

TEST(BsfsSpecific, CacheDisabledGoesStraightToBlobSeer) {
  FsWorld w;
  bsfs::BsfsConfig cfg = bsfs_config();
  cfg.enable_cache = false;
  bsfs::NamespaceConfig ns2_cfg;
  ns2_cfg.node = 1;
  bsfs::NamespaceManager ns2(w.sim, w.net, ns2_cfg);
  bsfs::Bsfs nocache(w.sim, w.net, w.blobs, ns2, cfg);
  auto client = nocache.make_client(2);
  uint64_t misses = 0;
  auto proc = [](fs::FsClient& c, uint64_t* m) -> sim::Task<void> {
    co_await write_file(c, "/nc", DataSpec::pattern(5, 0, kBlock));
    auto reader = co_await c.open("/nc");
    for (uint64_t off = 0; off < kBlock; off += 256) {
      co_await reader->read(off, 256);
    }
    *m = static_cast<bsfs::BsfsReader*>(reader.get())->cache_misses();
  };
  w.sim.spawn(proc(*client, &misses));
  w.sim.run();
  EXPECT_EQ(misses, 16u);  // every record read goes to the blob store
}

// ---------------- HDFS-specific ----------------

TEST(HdfsSpecific, AppendIsUnsupported) {
  FsWorld w;
  auto client = w.hdfs.make_client(0);
  bool null_append = false;
  bool null_shared = false;
  auto proc = [](fs::FsClient& c, bool* out, bool* shared) -> sim::Task<void> {
    co_await write_file(c, "/f", DataSpec::from_string("data"));
    auto writer = co_await c.append("/f");
    *out = writer == nullptr;
    auto shared_writer = co_await c.append_shared("/f");
    *shared = shared_writer == nullptr;
  };
  w.sim.spawn(proc(*client, &null_append, &null_shared));
  w.sim.run();
  EXPECT_TRUE(null_append);
  EXPECT_TRUE(null_shared);
}

TEST(HdfsSpecific, SingleWriterLease) {
  FsWorld w;
  auto c1 = w.hdfs.make_client(0);
  auto c2 = w.hdfs.make_client(1);
  bool second_create_failed = false;
  auto proc = [](fs::FsClient& a, fs::FsClient& b, bool* out) -> sim::Task<void> {
    auto w1 = co_await a.create("/exclusive");
    auto w2 = co_await b.create("/exclusive");
    *out = w1 != nullptr && w2 == nullptr;
    co_await w1->write(DataSpec::from_string("x"));
    co_await w1->close();
  };
  w.sim.spawn(proc(*c1, *c2, &second_create_failed));
  w.sim.run();
  EXPECT_TRUE(second_create_failed);
}

TEST(HdfsSpecific, PlacementFollowsPaperPolicy) {
  // First replica local, second in the same rack, third in a different rack.
  FsWorld w;
  hdfs::HdfsConfig cfg = hdfs_config();
  cfg.namenode.replication = 3;
  cfg.namenode.node = 15;
  hdfs::Hdfs hdfs3(w.sim, w.net, cfg);
  auto client = hdfs3.make_client(5);
  std::vector<fs::BlockLocation> locs;
  auto proc = [](fs::FsClient& c,
                 std::vector<fs::BlockLocation>* out) -> sim::Task<void> {
    co_await write_file(c, "/replicated", DataSpec::pattern(1, 0, kBlock * 3));
    *out = co_await c.locations("/replicated", 0, kBlock * 3);
  };
  w.sim.spawn(proc(*client, &locs));
  w.sim.run();
  ASSERT_EQ(locs.size(), 3u);
  const auto& ncfg = w.net.config();
  for (const auto& l : locs) {
    ASSERT_EQ(l.hosts.size(), 3u);
    EXPECT_EQ(l.hosts[0], 5u);  // writer's node
    EXPECT_EQ(ncfg.rack_of(l.hosts[1]), ncfg.rack_of(5));  // same rack
    EXPECT_NE(ncfg.rack_of(l.hosts[2]), ncfg.rack_of(5));  // different rack
    std::set<net::NodeId> uniq(l.hosts.begin(), l.hosts.end());
    EXPECT_EQ(uniq.size(), 3u);
  }
}

TEST(HdfsSpecific, AllReplicasHoldTheBlock) {
  FsWorld w;
  hdfs::HdfsConfig cfg = hdfs_config();
  cfg.namenode.replication = 3;
  cfg.namenode.node = 15;
  hdfs::Hdfs hdfs3(w.sim, w.net, cfg);
  auto client = hdfs3.make_client(4);
  std::vector<fs::BlockLocation> locs;
  auto proc = [](fs::FsClient& c,
                 std::vector<fs::BlockLocation>* out) -> sim::Task<void> {
    co_await write_file(c, "/f", DataSpec::pattern(1, 0, kBlock));
    *out = co_await c.locations("/f", 0, kBlock);
  };
  w.sim.spawn(proc(*client, &locs));
  w.sim.run();
  ASSERT_EQ(locs.size(), 1u);
  // Every named replica's datanode actually stores the (only) block.
  for (net::NodeId host : locs[0].hosts) {
    EXPECT_TRUE(hdfs3.datanode_on(host).has_block(1))
        << "host " << host << " missing block";
  }
}

TEST(HdfsSpecific, WriteThroughputIsDiskBound) {
  // With replication 1 and a local datanode, a 1 GB-style write must take
  // ~size/disk_write_bps — the synchronous write-through the paper's write
  // benchmark exposes.
  sim::Simulator sim;
  net::ClusterConfig ncfg = test_net();
  ncfg.disk_write_bps = 10e6;
  ncfg.disk_seek_s = 0;
  net::Network net(sim, ncfg);
  hdfs::HdfsConfig cfg;
  cfg.namenode.block_size = 4 << 20;
  cfg.namenode.replication = 1;
  cfg.namenode.node = 15;
  hdfs::Hdfs h(sim, net, cfg);
  auto client = h.make_client(3);
  auto proc = [](fs::FsClient& c) -> sim::Task<void> {
    auto writer = co_await c.create("/big");
    co_await writer->write(DataSpec::pattern(1, 0, 40 << 20));
    co_await writer->close();
  };
  sim.spawn(proc(*client));
  sim.run();
  EXPECT_GE(sim.now(), 4.0);  // 40 MB at 10 MB/s disk
  EXPECT_LT(sim.now(), 5.5);
}

TEST(HdfsSpecific, NameNodeQueuesUnderLoad) {
  FsWorld w;
  hdfs::HdfsConfig cfg = hdfs_config();
  cfg.namenode.service_time_s = 10e-3;  // exaggerated to expose queueing
  cfg.namenode.node = 15;
  hdfs::Hdfs slow(w.sim, w.net, cfg);
  auto proc = [](fs::FileSystem& f, int id) -> sim::Task<void> {
    auto client = f.make_client(static_cast<net::NodeId>(id));
    auto writer = co_await client->create("/f" + std::to_string(id));
    co_await writer->write(DataSpec::pattern(1, 0, 64));
    co_await writer->close();
  };
  for (int i = 0; i < 10; ++i) w.sim.spawn(proc(slow, i));
  w.sim.run();
  // 10 clients × 4 serialized NameNode ops × 10 ms each ≥ 0.4 s total span.
  EXPECT_GE(w.sim.now(), 0.4);
}

}  // namespace
}  // namespace bs
