#include "blob/version_manager.h"

#include <cstdio>

#include "common/assert.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bs::blob {

namespace {

// splitmix64, not raw FNV: FNV-1a over small sequential ids walks the ring
// in a coarse lattice (a handful of shards own everything); the finalizer's
// full avalanche is what actually spreads consecutive ids.
uint64_t ring_key(BlobId blob) { return splitmix64(blob); }

// Per-request service time at a version-manager shard.
constexpr double kServiceTimeS = 80e-6;

// Capacity of a blob's first write log; it doubles from there, so a blob
// that sees few writes stays small.
constexpr size_t kInitialLogCapacity = 8;

}  // namespace

VersionManager::VersionManager(sim::Simulator& sim, net::Network& net,
                               std::vector<net::NodeId> nodes)
    : sim_(sim), net_(net),
      ring_(net, nodes, kServiceTimeS, "blob/vm_requests") {
  obs::MetricsRegistry& m = sim_.metrics();
  tracer_ = &sim_.tracer();
  m_requests_ = &m.counter("blob/vm_requests");
  h_publish_s_ = &m.histogram("blob/publish_latency_s");
  for (size_t i = 0; i < nodes.size(); ++i) {
    h_publish_shard_.push_back(
        &m.histogram("blob/publish_latency_s", {{"shard", std::to_string(i)}}));
  }
}

net::NodeId VersionManager::shard_node(BlobId blob) const {
  return ring_.owner(ring_key(blob)).node();
}

VersionManager::BlobState& VersionManager::state_of(BlobId blob) {
  auto it = blobs_.find(blob);
  BS_CHECK_MSG(it != blobs_.end(), "unknown blob id");
  return it->second;
}

void VersionManager::append_record(BlobState& b, const WriteRecord& rec) {
  if (b.log->size() == b.log->capacity()) {
    // Full: tickets may still hold this log, so copy it into a larger one
    // instead of letting push_back reallocate it under them.
    auto grown = std::make_shared<std::vector<WriteRecord>>();
    grown->reserve(2 * b.log->capacity());
    grown->assign(b.log->begin(), b.log->end());
    records_copied_ += b.log->size();
    b.log = std::move(grown);
  }
  b.log->push_back(rec);
}

net::Service::Call<BlobDescriptor> VersionManager::create_blob(
    net::NodeId client, uint64_t page_size, uint32_t replication) {
  BS_CHECK(page_size > 0);
  BS_CHECK(replication >= 1);
  // The id is reserved before any suspension (deterministic in call order),
  // so the create itself routes to the blob's owner shard and no global
  // serial point is visited — id allocation is a local counter in a real
  // deployment too (node-prefixed ranges), not a server round trip.
  const BlobId id = next_blob_id_++;
  return ring_.owner(ring_key(id)).call(
      client, [this, id, page_size, replication] {
        m_requests_->inc();
        BlobState state;
        state.desc.id = id;
        state.desc.page_size = page_size;
        state.desc.replication = replication;
        state.log = std::make_shared<std::vector<WriteRecord>>();
        state.log->reserve(kInitialLogCapacity);
        state.publish_cv = std::make_unique<sim::CondVar>(sim_);
        const BlobDescriptor desc = state.desc;
        blobs_.emplace(desc.id, std::move(state));
        return desc;
      });
}

net::Service::Call<WriteTicket> VersionManager::assign_write(
    net::NodeId client, BlobId blob, uint64_t offset, uint64_t size) {
  BS_CHECK(size > 0);
  return ring_.owner(ring_key(blob)).call(client, [this, blob, offset, size] {
    m_requests_->inc();
    BlobState& b = state_of(blob);
    const uint64_t page = b.desc.page_size;
    // Appends attach to the latest *assigned* end, so concurrent appenders
    // get disjoint ranges. Appending to a blob whose size is not
    // page-aligned is an API misuse (the final partial page is closed);
    // BSFS only appends whole blocks, so this never triggers there.
    const uint64_t at = offset == kAppendOffset ? b.assigned_size : offset;
    BS_CHECK_MSG(at % page == 0, "write offset must be page-aligned");
    // Writes past the current end are allowed and create a hole: pages
    // never written read as zeros (child pointer kNoVersion in the metadata
    // tree). A write whose size is not a page multiple leaves a short final
    // page, which is only meaningful when it forms the new end of the blob.
    BS_CHECK_MSG(size % page == 0 || at + size >= b.assigned_size,
                 "partial final page is only allowed at the end of the blob");

    WriteTicket t;
    t.blob = blob;
    t.version = b.next_version++;
    t.offset = at;
    t.size_after = std::max(b.assigned_size, at + size);
    t.prior = WriteHistory(b.log);  // versions < t.version

    const uint64_t first_page = at / page;
    const uint64_t end_page = pages_for_bytes(at + size, page);
    const uint64_t pages_after = pages_for_bytes(t.size_after, page);
    t.cap_pages = next_pow2(pages_after);

    WriteRecord rec;
    rec.version = t.version;
    rec.range = PageRange{first_page, end_page - first_page};
    rec.size_after = t.size_after;
    rec.cap_after = t.cap_pages;
    append_record(b, rec);
    b.assigned_size = t.size_after;
    b.assigned_at[t.version] = sim_.now();
    return t;
  });
}

net::Service::Call<void> VersionManager::commit(net::NodeId client,
                                                BlobId blob, Version version) {
  const size_t shard = ring_.position(ring_key(blob));
  net::Service& s = ring_.at(shard);
  return s.call(client, [this, &s, blob, version, shard] {
    m_requests_->inc();
    BlobState& b = state_of(blob);
    BS_CHECK(version > b.published);
    BS_CHECK_MSG(version < b.next_version,
                 "commit of a version that was never assigned");
    b.committed.insert(version);
    // Publish in version order as far as the committed prefix allows.
    while (b.committed.count(b.published + 1) > 0) {
      b.committed.erase(b.published + 1);
      b.published += 1;
      // Publish latency = assignment → visibility; it includes the time
      // this version waited on slower predecessors, which is the
      // in-order-publish cost the paper's concurrent-writer experiments
      // exercise.
      const Version v = b.published;
      auto at = b.assigned_at.find(v);
      if (at != b.assigned_at.end()) {
        const double latency = sim_.now() - at->second;
        h_publish_s_->observe(latency);
        h_publish_shard_[shard]->observe(latency);
        b.assigned_at.erase(at);
      }
      if (tracer_->enabled()) {
        char args[64];
        std::snprintf(args, sizeof(args), "\"blob\":%u,\"version\":%u", blob,
                      v);
        tracer_->instant("blob", "vm", s.node(), "publish", args);
      }
    }
    b.publish_cv->notify_all();
  });
}

sim::Task<void> VersionManager::wait_published(net::NodeId client, BlobId blob,
                                               Version version) {
  // The request hop only: waiting on the publish condition takes no
  // service slot.
  net::Service& s = ring_.owner(ring_key(blob));
  co_await net_.control(client, s.node());
  BlobState& b = state_of(blob);
  while (b.published < version) co_await b.publish_cv->wait();
  co_await s.reply(client);
}

VersionInfo VersionManager::info_at(const BlobState& b, Version v) const {
  VersionInfo info;
  info.version = v;
  if (v == kNoVersion) {
    info.size = 0;
    info.cap_pages = 0;
    return info;
  }
  const WriteRecord& rec = (*b.log)[v - 1];
  BS_CHECK(rec.version == v);
  info.size = rec.size_after;
  info.cap_pages = rec.cap_after;
  return info;
}

net::Service::Call<VersionInfo> VersionManager::latest(net::NodeId client,
                                                       BlobId blob) {
  return ring_.owner(ring_key(blob)).call(client, [this, blob] {
    m_requests_->inc();
    const BlobState& b = state_of(blob);
    return info_at(b, b.published);
  });
}

net::Service::Call<std::optional<VersionInfo>> VersionManager::version_info(
    net::NodeId client, BlobId blob, Version v) {
  return ring_.owner(ring_key(blob)).call(client, [this, blob, v] {
    m_requests_->inc();
    const BlobState& b = state_of(blob);
    std::optional<VersionInfo> out;
    if (v != kNoVersion && v <= b.published && v >= b.pruned_below) {
      out = info_at(b, v);
    }
    return out;
  });
}

net::Service::Call<WriteHistory> VersionManager::full_history(
    net::NodeId client, BlobId blob) {
  return ring_.owner(ring_key(blob)).call(client, [this, blob] {
    m_requests_->inc();
    return WriteHistory(state_of(blob).log);
  });
}

net::Service::Call<Version> VersionManager::prune(
    net::NodeId client, BlobId blob, Version keep_from,
    const std::function<Version()>& pin_cap) {
  return ring_.owner(ring_key(blob)).call(
      client, [this, blob, keep_from, &pin_cap] {
        m_requests_->inc();
        BlobState& b = state_of(blob);
        BS_CHECK_MSG(keep_from >= 1 && keep_from <= b.published,
                     "can only prune below a published version");
        Version keep = keep_from;
        if (pin_cap) {
          // Last-instant pin check, atomic with the watermark flip (see the
          // header): a pin that appeared while this request was in flight
          // still caps the prune.
          const Version cap = pin_cap();
          if (cap != kNoVersion && cap < keep) keep = cap;
        }
        b.pruned_below = std::max(b.pruned_below, keep);
        return b.pruned_below;
      });
}

net::Service::Call<BlobDescriptor> VersionManager::describe(net::NodeId client,
                                                            BlobId blob) {
  return ring_.owner(ring_key(blob)).call(client, [this, blob] {
    m_requests_->inc();
    return state_of(blob).desc;
  });
}

Version VersionManager::published_version(BlobId blob) const {
  auto it = blobs_.find(blob);
  BS_CHECK(it != blobs_.end());
  return it->second.published;
}

}  // namespace bs::blob
