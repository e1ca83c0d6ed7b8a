// GroupCommitJournal unit battery: the batch-trigger matrix (count fires
// first, timer fires first, explicit sync()), the ack contract under power
// loss (crash before the ack loses the whole batch, crash after the ack
// loses nothing — including a crash that catches the batch on the platter
// path), and WAL replay after a torn tail mid-batch. Then the shared
// unsynced window's batch rule, pinned at both of its sites (the blob
// provider and the HDFS DataNode).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "blob/provider.h"
#include "hdfs/datanode.h"
#include "kv/journal.h"
#include "kv/kvstore.h"
#include "net/network.h"
#include "sim/parallel.h"
#include "sim/simulator.h"

namespace bs::kv {
namespace {

constexpr net::NodeId kNode = 1;
constexpr uint64_t kRecordLen = 1000;

net::ClusterConfig tiny_net() {
  net::ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.nodes_per_rack = 2;
  return cfg;
}

// A world with one journal-owning storage node.
struct GcWorld {
  sim::Simulator sim;
  net::Network net;

  GcWorld() : net(sim, tiny_net()) {}

  std::unique_ptr<GroupCommitJournal> journal(DurabilityPolicy policy) {
    return std::make_unique<GroupCommitJournal>(
        sim, net, kNode, std::make_unique<MemoryJournal>(), policy);
  }
};

struct Ack {
  int result = 0;  // 0 = unresolved, 1 = acked, 2 = refused
  double at = -1;  // sim time the ack resolved
};

sim::Task<void> one_append(sim::Simulator* sim, GroupCommitJournal* j,
                           uint64_t tag, Ack* ack) {
  const bool ok = co_await j->append_acked(Bytes(kRecordLen, static_cast<uint8_t>(tag)));
  ack->result = ok ? 1 : 2;
  ack->at = sim->now();
}

sim::Task<void> crash_at(sim::Simulator* sim, GcWorld* w,
                         GroupCommitJournal* j, double at) {
  co_await sim->delay(at);
  w->net.set_node_up(kNode, false);  // bumps the incarnation
  j->power_loss();
}

TEST(GroupCommit, CountTriggerFiresBeforeTimer) {
  GcWorld w;
  auto j = w.journal(DurabilityPolicy::batched(4, /*max_delay_s=*/10.0));
  std::vector<Ack> acks(4);
  for (uint64_t i = 0; i < 4; ++i)
    w.sim.spawn(one_append(&w.sim, j.get(), i, &acks[i]));
  w.sim.run();
  for (const auto& a : acks) {
    EXPECT_EQ(a.result, 1);
    // Acked when the 4th record closed the batch — long before the 10 s
    // timer, paying one disk positioning overhead for all four.
    EXPECT_LT(a.at, 1.0);
  }
  EXPECT_EQ(j->batches_synced(), 1u);
  EXPECT_EQ(j->records_synced(), 4u);
  EXPECT_EQ(j->inner().record_count(), 4u);
  EXPECT_EQ(j->unsynced_records(), 0u);
}

TEST(GroupCommit, TimerTriggerFiresBeforeCount) {
  GcWorld w;
  auto j = w.journal(DurabilityPolicy::batched(100, /*max_delay_s=*/0.05));
  std::vector<Ack> acks(3);
  for (uint64_t i = 0; i < 3; ++i)
    w.sim.spawn(one_append(&w.sim, j.get(), i, &acks[i]));
  w.sim.run();
  for (const auto& a : acks) {
    EXPECT_EQ(a.result, 1);
    // The batch never filled; the max_delay timer flushed it.
    EXPECT_GE(a.at, 0.05);
    EXPECT_LT(a.at, 0.1);
  }
  EXPECT_EQ(j->batches_synced(), 1u);
  EXPECT_EQ(j->inner().record_count(), 3u);
}

sim::Task<void> sync_now(GroupCommitJournal* j, Ack* ack, sim::Simulator* sim) {
  const bool ok = co_await j->sync();
  ack->result = ok ? 1 : 2;
  ack->at = sim->now();
}

TEST(GroupCommit, ExplicitSyncFlushesEarly) {
  GcWorld w;
  auto j = w.journal(DurabilityPolicy::batched(100, /*max_delay_s=*/10.0));
  // Plain append() buffers without blocking; neither trigger is close.
  for (uint64_t i = 0; i < 3; ++i) j->append(Bytes(kRecordLen, static_cast<uint8_t>(i)));
  EXPECT_EQ(j->inner().record_count(), 0u);
  EXPECT_EQ(j->unsynced_records(), 3u);
  Ack ack;
  w.sim.spawn(sync_now(j.get(), &ack, &w.sim));
  w.sim.run();
  EXPECT_EQ(ack.result, 1);
  EXPECT_LT(ack.at, 1.0);  // did not wait out the 10 s timer
  EXPECT_EQ(j->batches_synced(), 1u);
  EXPECT_EQ(j->inner().record_count(), 3u);
  EXPECT_EQ(j->unsynced_records(), 0u);
}

TEST(GroupCommit, ImmediateSyncsEveryRecordAlone) {
  GcWorld w;
  auto j = w.journal(DurabilityPolicy::immediate());
  std::vector<Ack> acks(3);
  for (uint64_t i = 0; i < 3; ++i)
    w.sim.spawn(one_append(&w.sim, j.get(), i, &acks[i]));
  w.sim.run();
  for (const auto& a : acks) EXPECT_EQ(a.result, 1);
  EXPECT_EQ(j->batches_synced(), 3u);  // one batch per record
  EXPECT_EQ(j->inner().record_count(), 3u);
}

TEST(GroupCommit, NoneAcksInstantlyAndSyncsLazily) {
  GcWorld w;
  DurabilityPolicy policy = DurabilityPolicy::none();
  policy.max_delay_s = 0.05;  // flush cadence; irrelevant to the acks
  auto j = w.journal(policy);
  std::vector<Ack> acks(3);
  for (uint64_t i = 0; i < 3; ++i)
    w.sim.spawn(one_append(&w.sim, j.get(), i, &acks[i]));
  w.sim.run();
  for (const auto& a : acks) {
    EXPECT_EQ(a.result, 1);
    EXPECT_EQ(a.at, 0.0);  // acked on arrival, before any disk time
  }
  // ...but the flush cadence still drove everything to the platter.
  EXPECT_EQ(j->inner().record_count(), 3u);
}

TEST(GroupCommit, CrashBeforeAckLosesTheWholeBatch) {
  GcWorld w;
  // Neither trigger can fire: the batch is still open when power dies.
  auto j = w.journal(DurabilityPolicy::batched(8, /*max_delay_s=*/10.0));
  std::vector<Ack> acks(4);
  for (uint64_t i = 0; i < 4; ++i)
    w.sim.spawn(one_append(&w.sim, j.get(), i, &acks[i]));
  w.sim.spawn(crash_at(&w.sim, &w, j.get(), 0.001));
  w.sim.run();
  for (const auto& a : acks) EXPECT_EQ(a.result, 2);  // refused, not lied to
  EXPECT_EQ(j->inner().record_count(), 0u);
  EXPECT_EQ(j->bytes_lost(), 4 * kRecordLen);
  // No ack was issued, so no *acked* byte was lost: the contract held.
  EXPECT_EQ(j->acked_bytes_lost(), 0u);
  EXPECT_EQ(j->unsynced_records(), 0u);  // the window was fully accounted
}

TEST(GroupCommit, CrashMidDiskWriteLosesTheInflightBatch) {
  GcWorld w;
  auto j = w.journal(DurabilityPolicy::batched(2, /*max_delay_s=*/10.0));
  std::vector<Ack> acks(2);
  for (uint64_t i = 0; i < 2; ++i)
    w.sim.spawn(one_append(&w.sim, j.get(), i, &acks[i]));
  // The pair closes the batch at t=0 and the disk write takes ~2 ms; the
  // power loss at 1 ms catches it on the platter path. The incarnation bump
  // makes try_disk_write report failure at completion.
  w.sim.spawn(crash_at(&w.sim, &w, j.get(), 0.001));
  w.sim.run();
  for (const auto& a : acks) EXPECT_EQ(a.result, 2);
  EXPECT_EQ(j->inner().record_count(), 0u);
  EXPECT_EQ(j->bytes_lost(), 2 * kRecordLen);
  EXPECT_EQ(j->acked_bytes_lost(), 0u);
}

TEST(GroupCommit, CrashAfterAckLosesNothing) {
  GcWorld w;
  auto j = w.journal(DurabilityPolicy::batched(4, /*max_delay_s=*/10.0));
  std::vector<Ack> acks(4);
  for (uint64_t i = 0; i < 4; ++i)
    w.sim.spawn(one_append(&w.sim, j.get(), i, &acks[i]));
  // Well after the count trigger synced the batch (~2 ms).
  w.sim.spawn(crash_at(&w.sim, &w, j.get(), 1.0));
  w.sim.run();
  for (const auto& a : acks) {
    EXPECT_EQ(a.result, 1);
    EXPECT_LT(a.at, 1.0);
  }
  EXPECT_EQ(j->bytes_lost(), 0u);
  EXPECT_EQ(j->acked_bytes_lost(), 0u);
  EXPECT_EQ(j->inner().record_count(), 4u);
  // Replay sees all four: what was acked survived the power loss.
  uint64_t replayed = 0;
  j->scan([&](const Bytes&) { ++replayed; });
  EXPECT_EQ(replayed, 4u);
}

TEST(GroupCommit, ReplayAfterTornTailMidBatchKeepsEveryAckedRecord) {
  GcWorld w;
  auto j = w.journal(DurabilityPolicy::batched(4, /*max_delay_s=*/10.0));
  // Two full batches reach the platter and are acked.
  std::vector<Ack> acks(8);
  for (uint64_t i = 0; i < 8; ++i)
    w.sim.spawn(one_append(&w.sim, j.get(), i, &acks[i]));
  w.sim.run_until(1.0);
  for (const auto& a : acks) ASSERT_EQ(a.result, 1);
  ASSERT_EQ(j->inner().record_count(), 8u);
  // A third batch is torn mid-write by the power loss: model the torn tail
  // by appending part of it to the durable log, then cutting the log back
  // mid-batch — one of its records survives the tear, one does not.
  auto* inner = static_cast<MemoryJournal*>(&j->inner());
  inner->append(Bytes(kRecordLen, 100));
  inner->append(Bytes(kRecordLen, 101));
  inner->corrupt_tail(/*keep_records=*/9);
  // Replay: every acked record is still there, in order; the torn batch
  // contributes only its intact prefix.
  std::vector<uint8_t> tags;
  j->scan([&](const Bytes& r) { tags.push_back(r[0]); });
  ASSERT_EQ(tags.size(), 9u);
  for (uint64_t i = 0; i < 8; ++i) EXPECT_EQ(tags[i], static_cast<uint8_t>(i));
  EXPECT_EQ(tags[8], 100);
}

sim::Task<void> one_put(sim::Simulator* sim, KvStore* kv, std::string key,
                        Ack* ack) {
  const bool ok = co_await kv->put_acked(key, Bytes(kRecordLen, 7));
  ack->result = ok ? 1 : 2;
  ack->at = sim->now();
}

TEST(GroupCommit, KvStorePutAckedRidesTheBatch) {
  GcWorld w;
  auto journal = w.journal(DurabilityPolicy::batched(4, /*max_delay_s=*/10.0));
  GroupCommitJournal* j = journal.get();
  KvStore kv(std::move(journal));
  std::vector<Ack> acks(4);
  for (uint64_t i = 0; i < 4; ++i)
    w.sim.spawn(one_put(&w.sim, &kv, "k" + std::to_string(i), &acks[i]));
  w.sim.run();
  for (const auto& a : acks) {
    EXPECT_EQ(a.result, 1);
    EXPECT_LT(a.at, 1.0);  // count trigger, not the 10 s timer
  }
  EXPECT_EQ(j->batches_synced(), 1u);
  // Write-behind read visibility: the store applied each put immediately.
  EXPECT_EQ(kv.size(), 4u);
}

TEST(GroupCommit, CheckpointSettlesPendingBatchesAsSubsumed) {
  GcWorld w;
  auto journal = w.journal(DurabilityPolicy::batched(100, /*max_delay_s=*/10.0));
  GroupCommitJournal* j = journal.get();
  KvStore kv(std::move(journal));
  for (int i = 0; i < 10; ++i) kv.put("k" + std::to_string(i), Bytes(8, 1));
  EXPECT_EQ(j->unsynced_records(), 10u);
  // checkpoint() truncates the journal and appends one snapshot record; the
  // buffered batch must be settled (subsumed), never flushed after it.
  kv.checkpoint();
  w.sim.run();
  EXPECT_EQ(j->unsynced_records(), 0u);
  EXPECT_EQ(j->bytes_lost(), 0u);
  // The durable log replays to exactly the checkpointed state.
  auto replayed = std::make_unique<MemoryJournal>();
  j->scan([&](const Bytes& r) { replayed->append(r); });
  KvStore kv2(std::move(replayed));
  EXPECT_EQ(kv2.size(), 10u);
}

// --- the shared unsynced window (kv/sync_window.h) ---------------------------
//
// The provider and the DataNode run the same window, so one policy means one
// batch rule at both: kImmediate writes batches of one, kNone/kBatched
// batch up to max_records on the count-or-time trigger.

constexpr uint64_t kPageLen = 64 * 1024;

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
  GcWorld w;
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
  GcWorld w;
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

}  // namespace
}  // namespace bs::kv
