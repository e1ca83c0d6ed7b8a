// Re-replication repair for BlobSeer page storage.
//
// After the failure detector marks providers dead, published versions stay
// readable through the surviving replicas (the client fails over), but the
// replication degree is silently degraded — one more correlated failure
// away from data loss. The repair service restores it: it scans the leaf
// metadata of every live version (the same enumeration GC uses: the write
// history names every leaf each version created), finds pages whose
// replica set contains dead providers, allocates live replacements through
// the provider manager's placement policy, copies the page
// provider→provider from a surviving replica, and rewrites the leaf in the
// metadata DHT with the healthy replica set.
//
// Repair traffic is background traffic: copies run `copy_parallelism` at a
// time, so re-replication does not flatline foreground clients.
#pragma once

#include <cstdint>
#include <vector>

#include "blob/cluster.h"
#include "blob/types.h"
#include "net/liveness.h"
#include "sim/task.h"

namespace bs::bsfs {
class Bsfs;
}

namespace bs::fault {

struct RepairConfig {
  // Node the repair coordinator runs on (metadata/copy RPCs originate here).
  net::NodeId node = 0;
  // Max concurrent page copies (throttle).
  uint32_t copy_parallelism = 8;
};

struct RepairStats {
  uint64_t under_replicated = 0;   // leaves found below the target degree
  uint64_t replicas_restored = 0;  // new replicas successfully created
  uint64_t bytes_copied = 0;
  uint64_t unrepairable = 0;       // no live source replica survived
  double finished_at = 0;          // sim time the repair pass completed

  void merge(const RepairStats& o) {
    under_replicated += o.under_replicated;
    replicas_restored += o.replicas_restored;
    bytes_copied += o.bytes_copied;
    unrepairable += o.unrepairable;
    finished_at = finished_at > o.finished_at ? finished_at : o.finished_at;
  }
};

class RepairService {
 public:
  RepairService(blob::BlobSeerCluster& cluster, const net::LivenessView& live,
                RepairConfig cfg = {});

  // One repair pass over `blob`: restores every live leaf to the blob's
  // replication degree where possible. Idempotent; safe to run while
  // readers are active (leaf rewrites are atomic in the DHT model).
  sim::Task<RepairStats> repair_blob(blob::BlobId blob);

  // Walks the whole BSFS namespace and repairs the blob of every
  // finalized file — EXCEPT MapReduce scratch data: anything under an
  // `_intermediate` or `_attempts` directory is left alone. Shuffle
  // intermediates are job-lifetime-only and have their own fault story
  // (replicated at their configured degree, or regenerated wholesale by
  // map re-execution); spending background repair bandwidth on them would
  // only steal it from the persistent data whose degree actually needs
  // restoring.
  sim::Task<RepairStats> repair_namespace(bsfs::Bsfs& fs);

 private:
  // Repair passes over many blobs, sequentially (copies within a blob are
  // already parallel/throttled).
  sim::Task<RepairStats> repair_blobs(std::vector<blob::BlobId> blobs);

  // Restores one leaf; fills `stats` (serialized by the caller's joins).
  sim::Task<void> repair_leaf(blob::BlobId blob, uint64_t page,
                              blob::Version version, uint32_t target_degree,
                              uint64_t page_size, RepairStats* stats);

  blob::BlobSeerCluster& cluster_;
  const net::LivenessView& live_;
  RepairConfig cfg_;
  obs::Tracer* tracer_;
  obs::Counter* m_passes_;
  obs::Counter* m_restored_;
  obs::Counter* m_bytes_copied_;
};

}  // namespace bs::fault
