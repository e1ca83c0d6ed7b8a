#include "mr/dataset.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "sim/parallel.h"

namespace bs::mr {

sim::Task<Dataset> Dataset::resolve(fs::FileSystem& fs, net::NodeId node,
                                    std::vector<std::string> files) {
  Dataset out;
  out.fs_ = &fs;
  // Pin-all first, sequentially: the registry protects every version of
  // each path for the round trips it takes to learn the concrete one (and
  // sequential pinning keeps lease ids deterministic), then each lease
  // narrows to exactly the resolved snapshot.
  out.leases_.reserve(files.size());
  for (const std::string& file : files) {
    out.leases_.push_back(fs.registry().pin_all(file));
  }
  // The per-file metadata round trips (snapshot + live stat) are
  // independent — fan them out so submission cost is the slowest file's
  // lookup, not the sum; each shard of a sharded metadata plane absorbs
  // its own slice of the storm (PR 10).
  out.snaps_.resize(files.size());
  out.baselines_.resize(files.size());
  std::vector<sim::Task<void>> lookups;
  lookups.reserve(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    auto one = [](fs::FileSystem* f, net::NodeId n, std::string file,
                  uint64_t lease, fs::Snapshot* snap_out,
                  uint64_t* baseline_out) -> sim::Task<void> {
      auto client = f->make_client(n);
      auto snap = co_await client->snapshot(file);
      BS_CHECK_MSG(snap.has_value(), "missing input file");
      f->registry().resolve(lease, *snap);
      // The ingest baseline is the LIVE file's size right now — for a
      // historical "@v<N>" input it exceeds the pinned size, and ingest
      // that predates this job must not count as "during" it.
      auto live = co_await client->stat(snap->path);
      *baseline_out =
          live.has_value() ? std::max(live->size, snap->size) : snap->size;
      *snap_out = *std::move(snap);
    };
    lookups.push_back(one(&fs, node, files[i], out.leases_[i], &out.snaps_[i],
                          &out.baselines_[i]));
  }
  co_await sim::when_all(fs.simulator(), std::move(lookups));
  co_return out;
}

uint64_t Dataset::total_bytes() const {
  uint64_t total = 0;
  for (const fs::Snapshot& s : snaps_) total += s.size;
  return total;
}

sim::Task<std::vector<InputSplit>> Dataset::plan_splits(
    net::NodeId node) const {
  BS_CHECK(fs_ != nullptr);
  std::vector<InputSplit> splits;
  auto client = fs_->make_client(node);
  uint32_t index = 0;
  for (uint32_t i = 0; i < snaps_.size(); ++i) {
    const fs::Snapshot& snap = snaps_[i];
    if (snap.size == 0) continue;  // an empty snapshot has no splits
    auto blocks = co_await client->snapshot_locations(snap, 0, snap.size);
    for (const auto& b : blocks) {
      // Clamp to the pinned length: a length-pinning back-end reports the
      // LIVE file's blocks, which may extend past the snapshot.
      if (b.offset >= snap.size) continue;
      InputSplit split;
      split.index = index++;
      split.input = i;
      split.file = snap.path;
      split.offset = b.offset;
      split.length = std::min(b.length, snap.size - b.offset);
      split.hosts = b.hosts;
      splits.push_back(std::move(split));
    }
  }
  co_return splits;
}

sim::Task<std::unique_ptr<fs::FsReader>> Dataset::open_split(
    fs::FsClient& client, const InputSplit& split) const {
  return client.open_snapshot(snaps_[split.input]);
}

sim::Task<uint64_t> Dataset::bytes_ingested_since_pin(net::NodeId node) const {
  BS_CHECK(fs_ != nullptr);
  uint64_t total = 0;
  auto client = fs_->make_client(node);
  for (size_t i = 0; i < snaps_.size(); ++i) {
    auto st = co_await client->stat(snaps_[i].path);
    if (st.has_value() && st->size > baselines_[i]) {
      total += st->size - baselines_[i];
    }
  }
  co_return total;
}

void Dataset::release() {
  if (fs_ == nullptr) return;
  for (uint64_t lease : leases_) fs_->registry().unpin(lease);
  leases_.clear();
}

}  // namespace bs::mr
