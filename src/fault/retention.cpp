#include "fault/retention.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "blob/cluster.h"
#include "bsfs/bsfs.h"
#include "common/assert.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bs::fault {

RetentionService::RetentionService(bsfs::Bsfs& fs, RetentionConfig cfg)
    : fs_(fs), cfg_(cfg) {
  BS_CHECK_MSG(cfg_.keep_last >= 1, "the latest version is never pruned");
  obs::MetricsRegistry& m = fs_.simulator().metrics();
  tracer_ = &fs_.simulator().tracer();
  m_passes_ = &m.counter("fault/retention_passes");
  m_replicas_deleted_ = &m.counter("fault/retention_replicas_deleted");
  m_bytes_reclaimed_ = &m.counter("fault/retention_bytes_reclaimed");
}

sim::Task<RetentionStats> RetentionService::run_pass() {
  RetentionStats pass;
  const double t0 = fs_.simulator().now();
  bsfs::NamespaceManager& ns = fs_.ns();
  blob::BlobSeerCluster& cluster = fs_.blobs();
  auto& vm = cluster.version_manager();

  // Walk the namespace the way the repair service does, skipping MapReduce
  // scratch (job-lifetime-only; swept by the engine, not by GC policy).
  std::vector<std::pair<std::string, blob::BlobId>> files;
  std::vector<std::string> stack;
  stack.emplace_back("/");
  while (!stack.empty()) {
    const std::string dir = stack.back();
    stack.pop_back();
    const auto children = co_await ns.list(cfg_.node, dir);
    for (const std::string& path : children) {
      const std::string base = path.substr(path.find_last_of('/') + 1);
      if (base == "_intermediate" || base == "_attempts") continue;
      const auto entry = co_await ns.lookup(cfg_.node, path);
      if (!entry.has_value()) continue;  // removed while walking
      if (entry->is_dir) {
        stack.push_back(path);
        continue;
      }
      if (entry->under_construction) continue;
      files.emplace_back(path, entry->blob);
    }
  }

  for (const auto& [path, blob] : files) {
    ++pass.files_scanned;
    const blob::VersionInfo latest = co_await vm.latest(cfg_.node, blob);
    if (latest.version == blob::kNoVersion) continue;  // nothing published
    // The retention window: keep the `keep_last` newest versions.
    blob::Version target =
        latest.version >= cfg_.keep_last
            ? latest.version - cfg_.keep_last + 1
            : 1;
    // The pin check — THE ordering that makes retention safe to run under
    // live jobs: a registered pin (or an in-flight pin_all resolution,
    // which reports version 0) caps the watermark below every version a
    // consumer still reads. Checked twice: here, to skip files with
    // nothing reclaimable, and again INSIDE the prune via pin_cap,
    // evaluated atomically with the watermark flip at the version
    // manager — so a pin registered while this pass was
    // already in flight (a job resolving "<path>@v<N>" between our check
    // and the prune landing) is still honored.
    // Matched by path AND by blob identity: a pinned file that was
    // renamed mid-job appears in this walk under its new name, but the
    // pin (keyed with Snapshot::object) still protects it.
    auto pin_cap = [this, path = path, blob = blob]() -> blob::Version {
      const auto p = fs_.registry().oldest_pinned(path, blob);
      if (!p.has_value()) return blob::kNoVersion;  // unconstrained
      return *p == 0 ? 1 : static_cast<blob::Version>(*p);
    };
    const blob::Version cap = pin_cap();
    if (cap != blob::kNoVersion && cap < target) target = cap;
    if (target <= 1) continue;  // nothing below the watermark to reclaim
    const blob::GcStats gc = co_await blob::collect_garbage(
        cluster, cfg_.node, blob, target, pin_cap);
    pass.merge(gc);
  }

  ++pass.passes;
  pass.finished_at = fs_.simulator().now();
  m_passes_->inc();
  m_replicas_deleted_->inc(static_cast<double>(pass.page_replicas_deleted));
  m_bytes_reclaimed_->inc(static_cast<double>(pass.bytes_reclaimed));
  if (tracer_->enabled()) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "\"files\":%llu,\"bytes_reclaimed\":%llu",
                  static_cast<unsigned long long>(pass.files_scanned),
                  static_cast<unsigned long long>(pass.bytes_reclaimed));
    tracer_->complete("fault", "fault", cfg_.node, "retention_pass", t0, buf);
  }
  total_.merge(pass);
  co_return pass;
}

void RetentionService::start() {
  running_ = true;
  const uint64_t generation = ++generation_;
  fs_.simulator().spawn(loop(generation));
}

sim::Task<void> RetentionService::loop(uint64_t generation) {
  while (running_ && generation == generation_) {
    co_await fs_.simulator().delay(cfg_.period_s);
    if (!running_ || generation != generation_) break;
    co_await run_pass();
  }
}

}  // namespace bs::fault
