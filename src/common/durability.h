// Durability spectrum for the write path — shared by every site where
// writes become durable: the KV journal (kv/journal.h, GroupCommitJournal),
// and the blob provider's page flusher (blob/provider.h) and the HDFS
// DataNode's block path (hdfs/datanode.h), which share one unsynced window
// (kv/sync_window.h) and therefore one batch rule.
//
// The paper's write benchmarks (fig3, ext1) charge every write the full
// per-op persistence cost; real deployments trade durability for
// throughput. The policy makes that trade explicit and *measurable*: each
// level defines when a write is acknowledged relative to when it is synced
// to the platter, and therefore exactly how many acknowledged bytes a
// power loss can destroy (bench/ext8_group_commit.cpp measures both sides
// of the trade; tests/group_commit_test.cpp proves the loss bound honest).
//
//   kImmediate  ack after this record's own sync: batches of one. A power
//               loss destroys zero acknowledged bytes. One positioning
//               overhead per record — the full per-op cost the paper
//               assumes.
//   kBatched    group commit: records coalesce into batches synced on a
//               count-or-time trigger (max_records / max_delay_s), one
//               positioning overhead per *batch*. Ack semantics are
//               site-specific (see each site's header), but every site
//               bounds the acknowledged-but-unsynced window by
//               max_records records plus one in-flight batch — the most a
//               power loss can destroy.
//   kNone       ack as soon as the write is buffered; syncing is
//               best-effort background work on the same count-or-time
//               cadence. Fastest, and a power loss destroys everything not
//               yet flushed (window unbounded by policy, bounded only by
//               flusher backlog). write_behind() is kNone with batches of
//               one and no delay: each record is written as soon as the
//               disk is free (the paper's BlobSeer provider).
#pragma once

#include <cstdint>

namespace bs {

enum class DurabilityLevel : uint8_t {
  kNone = 0,
  kBatched = 1,
  kImmediate = 2,
};

struct DurabilityPolicy {
  DurabilityLevel level = DurabilityLevel::kImmediate;
  // kBatched triggers: a batch syncs when it holds max_records records OR
  // max_delay_s after its first record arrived, whichever fires first.
  // (Also the flush cadence for kNone's background sync; ignored by
  // kImmediate.)
  uint64_t max_records = 32;
  double max_delay_s = 0.010;

  static DurabilityPolicy none() {
    return DurabilityPolicy{DurabilityLevel::kNone, 32, 0.010};
  }
  static DurabilityPolicy write_behind() {
    return DurabilityPolicy{DurabilityLevel::kNone, 1, 0};
  }
  static DurabilityPolicy batched(uint64_t max_records, double max_delay_s) {
    return DurabilityPolicy{DurabilityLevel::kBatched, max_records,
                           max_delay_s};
  }
  static DurabilityPolicy immediate() {
    return DurabilityPolicy{DurabilityLevel::kImmediate, 32, 0.010};
  }

  bool operator==(const DurabilityPolicy&) const = default;
};

const char* durability_level_name(DurabilityLevel level);

}  // namespace bs
