// ShuffleStore unit tests (mr/shuffle.h): the intermediate-data subsystem
// in isolation — local-disk spills that die with their node's incarnation,
// DFS-backed intermediates that survive crashes through replication, and
// the job-drain cleanup of _intermediate/ files. Both storage back-ends.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "blob/cluster.h"
#include "bsfs/bsfs.h"
#include "hdfs/hdfs.h"
#include "mr/shuffle.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace bs::mr {
namespace {

constexpr uint64_t kBlock = 4096;

net::ClusterConfig small_net() {
  net::ClusterConfig cfg;
  cfg.num_nodes = 12;
  cfg.nodes_per_rack = 4;
  cfg.rpc_timeout_s = 0.5;
  return cfg;
}

MapOutput sample_output(net::NodeId node, uint32_t attempt,
                        std::vector<uint64_t> partition_bytes) {
  MapOutput out;
  out.node = node;
  out.attempt = attempt;
  out.partition_bytes = std::move(partition_bytes);
  return out;
}

template <typename Fn>
void run(sim::Simulator& sim, Fn body) {
  auto wrap = [](Fn f) -> sim::Task<void> { co_await f(); };
  sim.spawn(wrap(std::move(body)));
  sim.run();
}

// ---------- LocalDiskShuffleStore ----------

struct LocalWorld {
  sim::Simulator sim;
  net::Network net;
  LocalDiskShuffleStore store;
  LocalWorld() : net(sim, small_net()), store(sim, net) {}
};

TEST(LocalDiskShuffle, SpillAndFetchMoveTheBytes) {
  LocalWorld w;
  MapOutput m = sample_output(3, 0, {6000, 2000});
  uint64_t written = 0;
  bool wrote = false;
  bool fetched = false;
  run(w.sim, [&]() -> sim::Task<void> {
    wrote = co_await w.store.write_map_output("/out", 0, &m, &written);
    fetched = co_await w.store.fetch_partition("/out", 0, m, 0, /*dst=*/5);
  });
  EXPECT_TRUE(wrote);
  EXPECT_TRUE(fetched);
  EXPECT_EQ(written, 8000u);
  // The spill landed on the mapper's disk; the fetch re-read partition 0
  // there and streamed it over the network.
  EXPECT_NEAR(w.net.disk(3).bytes_written(), 8000, 1e-6);
  EXPECT_NEAR(w.net.disk(3).bytes_read(), 6000, 1e-6);
  EXPECT_NEAR(w.net.bytes_moved(), 6000, 1e-6);
}

TEST(LocalDiskShuffle, FetchFailsAgainstPoweredOffNode) {
  LocalWorld w;
  MapOutput m = sample_output(3, 0, {4096});
  bool fetched = true;
  double started = 0;
  run(w.sim, [&]() -> sim::Task<void> {
    uint64_t written = 0;
    co_await w.store.write_map_output("/out", 0, &m, &written);
    w.net.set_node_up(3, false);
    started = w.sim.now();
    fetched = co_await w.store.fetch_partition("/out", 0, m, 0, /*dst=*/5);
  });
  EXPECT_FALSE(fetched);
  // The reducer paid the connection timeout learning the node is dead.
  EXPECT_NEAR(w.sim.now() - started, small_net().rpc_timeout_s, 1e-9);
}

TEST(LocalDiskShuffle, RebootedNodeServesNothingFromBeforeTheCrash) {
  // Job-local spill directories do not survive a tasktracker loss: a node
  // that crashed and recovered is up and answers promptly, but the spill
  // belongs to the previous incarnation and the fetch must fail — this is
  // exactly what forces the JobTracker to re-execute the completed map.
  LocalWorld w;
  MapOutput m = sample_output(3, 0, {4096});
  bool fetched = true;
  run(w.sim, [&]() -> sim::Task<void> {
    uint64_t written = 0;
    co_await w.store.write_map_output("/out", 0, &m, &written);
    w.net.set_node_up(3, false);
    w.net.set_node_up(3, true);  // reboot, node healthy again
    fetched = co_await w.store.fetch_partition("/out", 0, m, 0, /*dst=*/5);
  });
  EXPECT_FALSE(fetched);
  // A fresh spill on the new incarnation serves fine.
  MapOutput fresh = sample_output(3, 1, {4096});
  bool refetched = false;
  run(w.sim, [&]() -> sim::Task<void> {
    uint64_t written = 0;
    co_await w.store.write_map_output("/out", 0, &fresh, &written);
    refetched = co_await w.store.fetch_partition("/out", 0, fresh, 0, 5);
  });
  EXPECT_TRUE(refetched);
}

TEST(LocalDiskShuffle, SpillFailsWhenNodeIsDown) {
  LocalWorld w;
  w.net.set_node_up(3, false);
  MapOutput m = sample_output(3, 0, {4096});
  bool wrote = true;
  uint64_t written = 0;
  run(w.sim, [&]() -> sim::Task<void> {
    wrote = co_await w.store.write_map_output("/out", 0, &m, &written);
  });
  EXPECT_FALSE(wrote);
  EXPECT_EQ(written, 0u);
}

// ---------- DfsShuffleStore, parameterized over the storage back-end ----

struct DfsWorld {
  sim::Simulator sim;
  net::Network net;
  blob::BlobSeerCluster blobs;
  bsfs::NamespaceManager ns;
  bsfs::Bsfs bsfs;
  hdfs::Hdfs hdfs;

  DfsWorld()
      : net(sim, small_net()), blobs(sim, net, {}), ns(sim, net, {}),
        bsfs(sim, net, blobs, ns,
             bsfs::BsfsConfig{.block_size = kBlock, .page_size = kBlock / 4,
                              .replication = 1, .enable_cache = true}),
        hdfs(sim, net,
             hdfs::HdfsConfig{.namenode = {.node = 0,
                                           .service_time_s = 150e-6,
                                           .block_size = kBlock,
                                           .replication = 1,
                                           .placement_seed = 7}}) {}

  fs::FileSystem& backend(const std::string& name) {
    return name == "BSFS" ? static_cast<fs::FileSystem&>(bsfs)
                          : static_cast<fs::FileSystem&>(hdfs);
  }
};

class DfsShuffleTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DfsShuffleTest, WriteFetchAndCleanupLifecycle) {
  DfsWorld w;
  fs::FileSystem& fs = w.backend(GetParam());
  DfsShuffleStore store(w.sim, w.net, fs, /*replication=*/0);

  MapOutput m = sample_output(3, 2, {kBlock, 0, kBlock / 2});
  uint64_t written = 0;
  bool wrote = false;
  run(w.sim, [&]() -> sim::Task<void> {
    wrote = co_await store.write_map_output("/out", 7, &m, &written);
  });
  EXPECT_TRUE(wrote);
  EXPECT_EQ(written, kBlock + kBlock / 2);

  // One file per non-empty partition, under _intermediate/, attempt-
  // qualified names.
  std::vector<std::string> names;
  run(w.sim, [&]() -> sim::Task<void> {
    auto client = fs.make_client(0);
    names = co_await client->list("/out/_intermediate");
  });
  ASSERT_EQ(names.size(), 2u);
  EXPECT_NE(std::find(names.begin(), names.end(),
                      DfsShuffleStore::partition_path("/out", 7, 2, 0)),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(),
                      DfsShuffleStore::partition_path("/out", 7, 2, 2)),
            names.end());

  // Fetches stream the partitions through the ordinary FS read path.
  bool f0 = false, f2 = false;
  run(w.sim, [&]() -> sim::Task<void> {
    f0 = co_await store.fetch_partition("/out", 7, m, 0, /*dst=*/5);
    f2 = co_await store.fetch_partition("/out", 7, m, 2, /*dst=*/9);
  });
  EXPECT_TRUE(f0);
  EXPECT_TRUE(f2);

  // Job-drain sweep: files and the directory entry are gone.
  bool dir_gone = false;
  run(w.sim, [&]() -> sim::Task<void> {
    co_await store.cleanup("/out", 0);
    auto client = fs.make_client(0);
    names = co_await client->list("/out/_intermediate");
    auto st = co_await client->stat("/out/_intermediate");
    dir_gone = !st.has_value();
  });
  EXPECT_TRUE(names.empty());
  EXPECT_TRUE(dir_gone);
}

INSTANTIATE_TEST_SUITE_P(Backends, DfsShuffleTest,
                         ::testing::Values("BSFS", "HDFS"));

TEST(DfsShuffle, ReplicatedIntermediatesSurviveAMapperNodeCrash) {
  // The paper's trade: intermediates written at replication 2 (while the
  // FS default stays 1) keep serving shuffle reads after the node that
  // wrote them — and one of the replica holders — dies, via the ordinary
  // blob failover. No re-execution machinery ever has to arm.
  DfsWorld w;
  DfsShuffleStore store(w.sim, w.net, w.bsfs, /*replication=*/2);
  MapOutput m = sample_output(3, 0, {kBlock});
  run(w.sim, [&]() -> sim::Task<void> {
    uint64_t written = 0;
    const bool ok = co_await store.write_map_output("/out", 0, &m, &written);
    EXPECT_TRUE(ok);
  });

  // Find a node actually holding the partition's pages and kill it.
  std::vector<net::NodeId> hosts;
  run(w.sim, [&]() -> sim::Task<void> {
    auto client = w.bsfs.make_client(0);
    auto locs = co_await client->locations(
        DfsShuffleStore::partition_path("/out", 0, 0, 0), 0, kBlock);
    if (!locs.empty()) hosts = locs[0].hosts;
  });
  ASSERT_GE(hosts.size(), 2u);  // the per-file degree took effect
  const net::NodeId victim = hosts[0];
  w.net.set_node_up(victim, false);
  w.blobs.crash_provider(victim, /*wipe=*/true);

  bool fetched = false;
  run(w.sim, [&]() -> sim::Task<void> {
    fetched = co_await store.fetch_partition("/out", 0, m, 0, /*dst=*/5);
  });
  EXPECT_TRUE(fetched);  // failed over to the surviving replica
}

}  // namespace
}  // namespace bs::mr
