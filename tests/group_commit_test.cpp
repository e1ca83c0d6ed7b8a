// The shared unsynced window (kv/sync_window.h), pinned at both of its
// sites: the blob provider's page flusher and the HDFS DataNode's block
// syncer. One policy means one batch rule at both: kImmediate writes
// batches of one, kNone/kBatched batch up to max_records on the
// count-or-time trigger. Then the exact power-loss contract under
// DurabilityPolicy::batched(4, 10 s), whose ack rule acks a write once at
// most max_records = 4 writes are ahead of the platter: a power loss
// destroys exactly the unsynced window, acked_bytes_lost_on_power_loss
// counts its acked part, every writer still waiting for its ack is
// refused, and every synced write survives.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "blob/provider.h"
#include "hdfs/datanode.h"
#include "net/network.h"
#include "sim/parallel.h"
#include "sim/simulator.h"

namespace bs::kv {
namespace {

constexpr net::NodeId kNode = 1;
constexpr uint64_t kPageLen = 64 * 1024;

net::ClusterConfig tiny_net() {
  net::ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.nodes_per_rack = 2;
  return cfg;
}

// A world with one storage node (node 1) written to from node 0.
struct World {
  sim::Simulator sim;
  net::Network net;

  World() : net(sim, tiny_net()) {}
};

blob::ProviderConfig provider_cfg(DurabilityPolicy policy) {
  blob::ProviderConfig cfg;
  cfg.node = kNode;
  cfg.read_cache = false;
  cfg.durability = policy;
  return cfg;
}

// --- the batch rule ----------------------------------------------------------

struct WindowRun {
  bool all_acked = true;
  double acked_at = -1;    // when the last write acked
  double synced_at = -1;   // when the last batch reached the platter
  uint64_t batches = 0;
};

// Issues `count` concurrent writes and waits for every ack.
sim::Task<void> write_all(sim::Simulator* sim, uint64_t count,
                          std::function<sim::Task<bool>(uint64_t)> write,
                          WindowRun* out) {
  std::vector<sim::Task<bool>> writes;
  for (uint64_t i = 0; i < count; ++i) writes.push_back(write(i));
  for (bool ok : co_await sim::when_all(*sim, std::move(writes))) {
    out->all_acked = out->all_acked && ok;
  }
  out->acked_at = sim->now();
}

// The flusher waits for work without a pending event, so the simulation
// ends when the last batch (or a trigger timer) resolves.
WindowRun provider_run(DurabilityPolicy policy, uint64_t pages) {
  World w;
  blob::ProviderConfig cfg;
  cfg.node = kNode;
  cfg.read_cache = false;
  cfg.durability = policy;
  blob::Provider p(w.sim, w.net, cfg);
  WindowRun out;
  w.sim.spawn(write_all(&w.sim, pages, [&p](uint64_t i) {
    return p.put_page(0, blob::PageKey{1, i, 1},
                      DataSpec::pattern(i, 0, kPageLen));
  }, &out));
  out.synced_at = w.sim.run();
  EXPECT_EQ(p.unsynced_pages(), 0u);
  out.batches = p.flush_batches();
  return out;
}

WindowRun datanode_run(DurabilityPolicy policy, uint64_t blocks) {
  World w;
  hdfs::DataNode dn(w.sim, w.net, kNode, 1ULL << 30, policy);
  WindowRun out;
  w.sim.spawn(write_all(&w.sim, blocks, [&dn](uint64_t i) {
    return dn.receive_block(0, i + 1, DataSpec::pattern(i, 0, kPageLen));
  }, &out));
  out.synced_at = w.sim.run();
  EXPECT_EQ(dn.unsynced_blocks(), 0u);
  out.batches = dn.sync_batches();
  return out;
}

double disk_write_s(uint64_t bytes) {
  const net::ClusterConfig cfg = tiny_net();
  return cfg.disk_seek_s + static_cast<double>(bytes) / cfg.disk_write_bps;
}

TEST(SyncWindow, ProviderWriteBehindWritesOnePagePerDiskOpWithoutTimer) {
  // The provider's default: kNone with max_records = 1 and no delay. Each
  // page is its own disk write, back to back from the moment the pages
  // land (acked on arrival) — no timer ever holds a page back.
  const WindowRun r = provider_run(DurabilityPolicy::write_behind(), 4);
  EXPECT_TRUE(r.all_acked);
  EXPECT_EQ(r.batches, 4u);
  EXPECT_NEAR(r.synced_at - r.acked_at, 4 * disk_write_s(kPageLen), 1e-12);
}

TEST(SyncWindow, ProviderBatchedCoalescesOnCountTrigger) {
  const WindowRun r =
      provider_run(DurabilityPolicy::batched(4, /*max_delay_s=*/10.0), 4);
  EXPECT_TRUE(r.all_acked);
  EXPECT_EQ(r.batches, 1u);  // the 4th page closed the batch...
  EXPECT_LT(r.synced_at, 1.0);  // ...so no 10 s timer was ever armed
}

TEST(SyncWindow, DataNodeBatchedCoalescesOnCountTrigger) {
  const WindowRun r =
      datanode_run(DurabilityPolicy::batched(4, /*max_delay_s=*/10.0), 4);
  EXPECT_TRUE(r.all_acked);
  EXPECT_EQ(r.batches, 1u);
  EXPECT_LT(r.synced_at, 1.0);
}

TEST(SyncWindow, ProviderImmediateWritesBatchesOfOne) {
  const WindowRun r = provider_run(DurabilityPolicy::immediate(), 3);
  EXPECT_TRUE(r.all_acked);
  EXPECT_EQ(r.batches, 3u);
  // Acked only once the last page's own write finished.
  EXPECT_EQ(r.synced_at, r.acked_at);
}

TEST(SyncWindow, NoneFollowsTheSameCadenceAtBothSites) {
  // DurabilityPolicy::none() (32 records / 10 ms): 3 writes ack on arrival
  // and the 10 ms timer, not the count, sends them to disk as one batch —
  // identically at the provider and the DataNode.
  const WindowRun prov = provider_run(DurabilityPolicy::none(), 3);
  const WindowRun dn = datanode_run(DurabilityPolicy::none(), 3);
  for (const WindowRun* r : {&prov, &dn}) {
    EXPECT_TRUE(r->all_acked);
    EXPECT_EQ(r->batches, 1u);
    EXPECT_NEAR(r->synced_at - r->acked_at, 0.010 + disk_write_s(3 * kPageLen),
                1e-12);
  }
  EXPECT_EQ(prov.acked_at, dn.acked_at);
  EXPECT_EQ(prov.synced_at, dn.synced_at);
}

// --- the power-loss contract under batched(4, 10 s) ------------------------
//
// All writes land together at land_s(n), when n pages sharing node 0's NIC
// arrive; the 10 s timer never fires in these runs. The count trigger
// sends writes 1-4 to the disk as one batch the moment they land, and
// writes 5-8 as the next batch once the first syncs. Writes 1-4 ack on
// arrival (at most 4 ahead of an empty platter); write k > 4 acks once
// write k-4 is synced.

const DurabilityPolicy kBatched4 = DurabilityPolicy::batched(4, 10.0);

double land_s(uint64_t writes) {
  return static_cast<double>(writes * kPageLen) / tiny_net().nic_bps;
}

struct ProviderSite {
  blob::Provider node;

  explicit ProviderSite(World& w) : node(w.sim, w.net, provider_cfg(kBatched4)) {}
  static blob::PageKey page(uint64_t i) { return blob::PageKey{1, i, 1}; }
  sim::Task<bool> write(uint64_t i) {
    return node.put_page(0, page(i), DataSpec::pattern(i, 0, kPageLen));
  }
  bool holds(uint64_t i) const { return node.has_page(page(i)); }
  uint64_t batches() const { return node.flush_batches(); }
};

struct DataNodeSite {
  hdfs::DataNode node;

  explicit DataNodeSite(World& w)
      : node(w.sim, w.net, kNode, 1ULL << 30, kBatched4) {}
  sim::Task<bool> write(uint64_t i) {
    return node.receive_block(0, i + 1, DataSpec::pattern(i, 0, kPageLen));
  }
  bool holds(uint64_t i) const { return node.has_block(i + 1); }
  uint64_t batches() const { return node.sync_batches(); }
};

struct Ack {
  int result = 0;  // 0 = unresolved, 1 = acked, 2 = refused
  double at = -1;  // sim time the ack resolved
};

struct LossRun {
  std::vector<Ack> acks;   // per write, in issue order
  std::vector<bool> kept;  // per write: still stored after the run
  uint64_t bytes_lost = 0;
  uint64_t acked_bytes_lost = 0;
  uint64_t batches = 0;
  uint64_t unsynced_bytes = 0;
};

sim::Task<void> record_ack(sim::Simulator* sim, sim::Task<bool> write,
                           Ack* ack) {
  const bool ok = co_await std::move(write);
  ack->result = ok ? 1 : 2;
  ack->at = sim->now();
}

template <typename Site>
sim::Task<void> power_loss_at(World* w, Site* site, double at) {
  co_await w->sim.delay(at);
  w->net.set_node_up(kNode, false);  // bumps the incarnation
  site->node.crash();
}

// Issues `writes` concurrent writes at one site and cuts its power at
// `loss_at`.
template <typename Site>
LossRun run_loss(uint64_t writes, double loss_at) {
  World w;
  Site site(w);
  LossRun out;
  out.acks.resize(writes);
  for (uint64_t i = 0; i < writes; ++i) {
    w.sim.spawn(record_ack(&w.sim, site.write(i), &out.acks[i]));
  }
  w.sim.spawn(power_loss_at(&w, &site, loss_at));
  w.sim.run();
  for (uint64_t i = 0; i < writes; ++i) out.kept.push_back(site.holds(i));
  out.bytes_lost = site.node.bytes_lost_on_power_loss();
  out.acked_bytes_lost = site.node.acked_bytes_lost_on_power_loss();
  out.batches = site.batches();
  out.unsynced_bytes = site.node.unsynced_bytes();
  return out;
}

TEST(SyncWindow, PowerLossBeforeFirstSyncLosesTheAckedWindowAndRefusesWaiters) {
  // Six writes: 1-4 ack on arrival and go to the disk as one batch; 5 and 6
  // wait in the queue for write 1 or 2 to sync. The power dies while that
  // first batch is on the disk, so nothing was ever synced.
  const double loss_at = land_s(6) + disk_write_s(4 * kPageLen) / 2;
  for (const LossRun& r : {run_loss<ProviderSite>(6, loss_at),
                           run_loss<DataNodeSite>(6, loss_at)}) {
    for (uint64_t i = 0; i < 4; ++i) {
      EXPECT_EQ(r.acks[i].result, 1);
      EXPECT_NEAR(r.acks[i].at, land_s(6), 1e-12);  // before any disk time
    }
    EXPECT_EQ(r.acks[4].result, 2);  // refused, not lied to
    EXPECT_EQ(r.acks[5].result, 2);
    // The whole unsynced window died; exactly its acked part (writes 1-4)
    // counts as acked bytes lost.
    EXPECT_EQ(r.bytes_lost, 6 * kPageLen);
    EXPECT_EQ(r.acked_bytes_lost, 4 * kPageLen);
    for (uint64_t i = 0; i < 6; ++i) EXPECT_FALSE(r.kept[i]);
    EXPECT_EQ(r.batches, 0u);
    EXPECT_EQ(r.unsynced_bytes, 0u);  // the window was fully accounted
  }
}

TEST(SyncWindow, PowerLossMidDiskWriteLosesExactlyThatBatch) {
  // Eight writes: batch 1 (writes 1-4) syncs, which acks writes 5-8; the
  // power dies while batch 2 (writes 5-8) is on the disk. The provider and
  // the DataNode settle a lost record differently (a page leaves the store
  // and frees its RAM; a block is forgotten), so both sites run.
  const double first_sync = land_s(8) + disk_write_s(4 * kPageLen);
  const double loss_at = first_sync + disk_write_s(4 * kPageLen) / 2;
  for (const LossRun& r : {run_loss<ProviderSite>(8, loss_at),
                           run_loss<DataNodeSite>(8, loss_at)}) {
    for (uint64_t i = 0; i < 8; ++i) EXPECT_EQ(r.acks[i].result, 1);
    for (uint64_t i = 4; i < 8; ++i) {
      EXPECT_NEAR(r.acks[i].at, first_sync, 1e-12);
    }
    EXPECT_EQ(r.bytes_lost, 4 * kPageLen);
    EXPECT_EQ(r.acked_bytes_lost, 4 * kPageLen);  // every write in it acked
    for (uint64_t i = 0; i < 8; ++i) EXPECT_EQ(r.kept[i], i < 4);
    EXPECT_EQ(r.batches, 1u);
    EXPECT_EQ(r.unsynced_bytes, 0u);
  }
}

TEST(SyncWindow, PowerLossAfterSyncKeepsEverySyncedWrite) {
  // Both batches reach the platter long before the power dies at 1 s.
  for (const LossRun& r : {run_loss<ProviderSite>(8, 1.0),
                           run_loss<DataNodeSite>(8, 1.0)}) {
    for (uint64_t i = 0; i < 8; ++i) {
      EXPECT_EQ(r.acks[i].result, 1);
      EXPECT_TRUE(r.kept[i]);
    }
    EXPECT_EQ(r.bytes_lost, 0u);
    EXPECT_EQ(r.acked_bytes_lost, 0u);
    EXPECT_EQ(r.batches, 2u);
  }
}

}  // namespace
}  // namespace bs::kv
