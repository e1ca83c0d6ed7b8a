// TimedFs — a transparent fs::FileSystem decorator that records the
// simulated latency of every FsClient / FsReader / FsWriter call.
//
// Each call is forwarded unchanged to the wrapped back-end; the wrapper
// only reads sim.now() before and after. Awaiting a Task resumes by
// symmetric transfer, so the decorator adds no simulator events: a run
// with and without it executes the same schedule (bs_suite --self-test
// checks the digests match). With the world's tracer enabled, every call
// also becomes one sim-time span ("fs" component on the client's node,
// args carry the client id).
//
// Caveat: FileSystem::registry() is not virtual, so snapshot pins taken
// through a TimedFs (the MapReduce engine's Dataset) live in the
// decorator's own registry. Nothing in the benchmark reads the inner one.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fs/filesystem.h"
#include "sim/simulator.h"

namespace bs::suite {

// Operation kinds with their own latency series. Variants of one call map
// to one kind: create_replicated is a create, append_shared an append,
// open_snapshot an open, snapshot_locations a locations call. The two VM
// kinds are the direct version-manager calls of the meta_storm workload.
enum class Op : uint8_t {
  kCreate,
  kOpen,
  kAppend,
  kSnapshot,
  kLocations,
  kStat,
  kList,
  kRemove,
  kRename,
  kRead,
  kWrite,
  kClose,
  kVmAssign,
  kVmCommit,
  kCount
};
constexpr size_t kOpCount = static_cast<size_t>(Op::kCount);
const char* op_name(Op op);

// Per-backend record of every timed call: latency samples per op kind
// (simulated seconds) plus the failure count.
class OpLog {
 public:
  explicit OpLog(sim::Simulator& sim) : sim_(sim) {}

  double now() const { return sim_.now(); }
  // Records one call that started at sim time `t0` and has just returned.
  void record(Op op, double t0, bool ok, net::NodeId node, uint64_t client);

  const std::vector<double>& latencies(Op op) const {
    return lat_[static_cast<size_t>(op)];
  }
  uint64_t attempted() const;
  uint64_t failed() const { return failed_; }

 private:
  sim::Simulator& sim_;
  std::array<std::vector<double>, kOpCount> lat_;
  uint64_t failed_ = 0;
};

class TimedWriter final : public fs::FsWriter {
 public:
  TimedWriter(std::unique_ptr<fs::FsWriter> inner, OpLog& log,
              net::NodeId node, uint64_t client)
      : inner_(std::move(inner)), log_(log), node_(node), client_(client) {}

  sim::Task<bool> write(DataSpec data) override {
    const double t0 = log_.now();
    const bool ok = co_await inner_->write(std::move(data));
    log_.record(Op::kWrite, t0, ok, node_, client_);
    co_return ok;
  }
  sim::Task<bool> close() override {
    const double t0 = log_.now();
    const bool ok = co_await inner_->close();
    log_.record(Op::kClose, t0, ok, node_, client_);
    co_return ok;
  }
  uint64_t bytes_written() const override { return inner_->bytes_written(); }

 private:
  std::unique_ptr<fs::FsWriter> inner_;
  OpLog& log_;
  net::NodeId node_;
  uint64_t client_;
};

class TimedReader final : public fs::FsReader {
 public:
  TimedReader(std::unique_ptr<fs::FsReader> inner, OpLog& log,
              net::NodeId node, uint64_t client)
      : inner_(std::move(inner)), log_(log), node_(node), client_(client) {}

  // A read fails when it returns fewer bytes than the file holds there.
  sim::Task<DataSpec> read(uint64_t offset, uint64_t size) override {
    const double t0 = log_.now();
    DataSpec out = co_await inner_->read(offset, size);
    const uint64_t len = inner_->size();
    const uint64_t want = offset < len ? std::min(size, len - offset) : 0;
    log_.record(Op::kRead, t0, out.size() == want, node_, client_);
    co_return out;
  }
  uint64_t size() const override { return inner_->size(); }

 private:
  std::unique_ptr<fs::FsReader> inner_;
  OpLog& log_;
  net::NodeId node_;
  uint64_t client_;
};

class TimedClient final : public fs::FsClient {
 public:
  TimedClient(std::unique_ptr<fs::FsClient> inner, OpLog& log, uint64_t client)
      : inner_(std::move(inner)), log_(log), client_(client) {}

  net::NodeId node() const override { return inner_->node(); }

  sim::Task<std::unique_ptr<fs::FsWriter>> create(
      const std::string& path) override {
    const double t0 = log_.now();
    co_return wrap(co_await inner_->create(path), Op::kCreate, t0);
  }
  sim::Task<std::unique_ptr<fs::FsWriter>> create_replicated(
      const std::string& path, uint32_t replication) override {
    const double t0 = log_.now();
    co_return wrap(co_await inner_->create_replicated(path, replication),
                   Op::kCreate, t0);
  }
  sim::Task<std::unique_ptr<fs::FsReader>> open(
      const std::string& path) override {
    const double t0 = log_.now();
    co_return wrap(co_await inner_->open(path), t0);
  }
  sim::Task<std::unique_ptr<fs::FsWriter>> append(
      const std::string& path) override {
    const double t0 = log_.now();
    co_return wrap(co_await inner_->append(path), Op::kAppend, t0);
  }
  sim::Task<std::unique_ptr<fs::FsWriter>> append_shared(
      const std::string& path) override {
    const double t0 = log_.now();
    co_return wrap(co_await inner_->append_shared(path), Op::kAppend, t0);
  }
  sim::Task<std::optional<fs::Snapshot>> snapshot(
      const std::string& path) override {
    const double t0 = log_.now();
    auto out = co_await inner_->snapshot(path);
    log_.record(Op::kSnapshot, t0, out.has_value(), node(), client_);
    co_return out;
  }
  sim::Task<std::unique_ptr<fs::FsReader>> open_snapshot(
      const fs::Snapshot& snap) override {
    const double t0 = log_.now();
    co_return wrap(co_await inner_->open_snapshot(snap), t0);
  }
  sim::Task<std::vector<fs::BlockLocation>> snapshot_locations(
      const fs::Snapshot& snap, uint64_t offset, uint64_t length) override {
    const double t0 = log_.now();
    auto out = co_await inner_->snapshot_locations(snap, offset, length);
    log_.record(Op::kLocations, t0, true, node(), client_);
    co_return out;
  }
  sim::Task<std::optional<fs::FileStat>> stat(const std::string& path) override {
    const double t0 = log_.now();
    auto out = co_await inner_->stat(path);
    log_.record(Op::kStat, t0, out.has_value(), node(), client_);
    co_return out;
  }
  sim::Task<std::vector<std::string>> list(const std::string& dir) override {
    const double t0 = log_.now();
    auto out = co_await inner_->list(dir);
    log_.record(Op::kList, t0, true, node(), client_);
    co_return out;
  }
  sim::Task<bool> remove(const std::string& path) override {
    const double t0 = log_.now();
    const bool ok = co_await inner_->remove(path);
    log_.record(Op::kRemove, t0, ok, node(), client_);
    co_return ok;
  }
  sim::Task<bool> rename(const std::string& from,
                         const std::string& to) override {
    const double t0 = log_.now();
    const bool ok = co_await inner_->rename(from, to);
    log_.record(Op::kRename, t0, ok, node(), client_);
    co_return ok;
  }
  sim::Task<std::vector<fs::BlockLocation>> locations(
      const std::string& path, uint64_t offset, uint64_t length) override {
    const double t0 = log_.now();
    auto out = co_await inner_->locations(path, offset, length);
    log_.record(Op::kLocations, t0, true, node(), client_);
    co_return out;
  }

 private:
  std::unique_ptr<fs::FsWriter> wrap(std::unique_ptr<fs::FsWriter> w, Op op,
                                     double t0) {
    log_.record(op, t0, w != nullptr, node(), client_);
    if (w == nullptr) return nullptr;
    return std::make_unique<TimedWriter>(std::move(w), log_, node(), client_);
  }
  std::unique_ptr<fs::FsReader> wrap(std::unique_ptr<fs::FsReader> r,
                                     double t0) {
    log_.record(Op::kOpen, t0, r != nullptr, node(), client_);
    if (r == nullptr) return nullptr;
    return std::make_unique<TimedReader>(std::move(r), log_, node(), client_);
  }

  std::unique_ptr<fs::FsClient> inner_;
  OpLog& log_;
  uint64_t client_;
};

class TimedFs final : public fs::FileSystem {
 public:
  TimedFs(fs::FileSystem& inner, OpLog& log) : inner_(inner), log_(log) {}

  std::string name() const override { return inner_.name(); }
  uint64_t block_size() const override { return inner_.block_size(); }
  // Every stub gets a fresh client id (the span key in traces).
  std::unique_ptr<fs::FsClient> make_client(net::NodeId node) override {
    return std::make_unique<TimedClient>(inner_.make_client(node), log_,
                                         next_client_++);
  }
  sim::Simulator& simulator() override { return inner_.simulator(); }

 private:
  fs::FileSystem& inner_;
  OpLog& log_;
  uint64_t next_client_ = 0;
};

}  // namespace bs::suite
