#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "common/assert.h"
#include "common/log.h"
#include "net/reference_solver.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bs::net {
namespace {

// A flow is "finished" when less than half a byte remains; fluid-model
// arithmetic accumulates tiny float error that this absorbs.
constexpr double kRemainingEps = 0.5;

std::string xfer_args(NodeId src, NodeId dst, double bytes) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"src\":%u,\"dst\":%u,\"bytes\":%.0f", src,
                dst, bytes);
  return buf;
}

}  // namespace

sim::Task<void> Disk::io(double bytes, bool is_read) {
  const double t0 = sim_.now();
  co_await gate_.acquire();
  // The rate is sampled when the request reaches the head of the queue, so
  // a slow-node injection mid-queue affects every request issued after it.
  const double bps = (is_read ? read_bps_ : write_bps_) * scale_;
  co_await sim_.delay(seek_s_ + bytes / bps);
  gate_.release();
  if (is_read) {
    bytes_read_ += bytes;
    if (m_read_bytes_) m_read_bytes_->inc(bytes);
  } else {
    bytes_written_ += bytes;
    if (m_write_bytes_) m_write_bytes_->inc(bytes);
  }
  if (tracer_ && tracer_->enabled()) {
    char args[48];
    std::snprintf(args, sizeof(args), "\"bytes\":%.0f", bytes);
    tracer_->complete("net", "disk", node_, is_read ? "read" : "write", t0,
                      args);
  }
}

Network::Network(sim::Simulator& sim, const ClusterConfig& cfg)
    : sim_(sim), cfg_(cfg) {
  const uint32_t n = cfg_.num_nodes;
  const uint32_t r = cfg_.num_racks();
  link_capacity_.assign(2 * n + 2 * r, 0);
  for (uint32_t i = 0; i < n; ++i) {
    link_capacity_[link_node_up(i)] = cfg_.nic_bps;
    link_capacity_[link_node_down(i)] = cfg_.nic_bps;
  }
  for (uint32_t i = 0; i < r; ++i) {
    link_capacity_[link_rack_up(i)] = cfg_.rack_uplink_bps;
    link_capacity_[link_rack_down(i)] = cfg_.rack_uplink_bps;
  }
  disks_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    disks_.push_back(std::make_unique<Disk>(sim_, cfg_.disk_read_bps,
                                            cfg_.disk_write_bps,
                                            cfg_.disk_seek_s));
  }
  rx_bytes_.assign(n, 0);
  tx_bytes_.assign(n, 0);
  up_.assign(n, 1);
  incarnation_.assign(n, 0);
  perf_.assign(n, NodePerf{});

  // Solve+retime is deferred to the end of the simulated instant.
  sim_.add_flush_hook(&Network::flush_hook, this);

  obs::MetricsRegistry& m = sim_.metrics();
  tracer_ = &sim_.tracer();
  m_flows_ = &m.counter("net/flows");
  m_bytes_ = &m.counter("net/bytes");
  m_rpcs_ = &m.counter("net/rpcs");
  m_rpc_timeouts_ = &m.counter("net/rpc_timeouts");
  m_solves_ = &m.counter("net/solver_solves");
  m_transfer_s_ = &m.histogram("net/transfer_s");
  obs::Counter* disk_rd = &m.counter("net/disk_read_bytes");
  obs::Counter* disk_wr = &m.counter("net/disk_write_bytes");
  for (uint32_t i = 0; i < n; ++i) {
    disks_[i]->attach_obs(tracer_, i, disk_rd, disk_wr);
  }
  m_rack_up_bytes_.reserve(r);
  m_rack_down_bytes_.reserve(r);
  for (uint32_t i = 0; i < r; ++i) {
    const obs::Labels labels = {{"rack", std::to_string(i)}};
    m_rack_up_bytes_.push_back(&m.counter("net/rack_uplink_bytes", labels));
    m_rack_down_bytes_.push_back(&m.counter("net/rack_downlink_bytes", labels));
  }
}

void Network::set_node_up(NodeId node, bool up) {
  BS_CHECK(node < cfg_.num_nodes);
  if (up_[node] && !up) ++incarnation_[node];  // power loss
  up_[node] = up ? 1 : 0;
}

void Network::set_node_perf(NodeId node, NodePerf perf) {
  BS_CHECK(node < cfg_.num_nodes);
  BS_CHECK(perf.nic > 0 && perf.disk > 0 && perf.cpu > 0);
  perf_[node] = perf;
  // Bill active flows for the time elapsed at the old capacities, then
  // re-solve the fair shares at the new ones.
  advance();
  link_capacity_[link_node_up(node)] = cfg_.nic_bps * perf.nic;
  link_capacity_[link_node_down(node)] = cfg_.nic_bps * perf.nic;
  disks_[node]->set_scale(perf.disk);
  mark_rates_dirty();
}

sim::Task<void> Network::transfer(NodeId src, NodeId dst, double bytes,
                                  double rate_cap) {
  BS_CHECK(src < cfg_.num_nodes && dst < cfg_.num_nodes);
  if (bytes <= 0) co_return;
  bytes_moved_ += bytes;
  tx_bytes_[src] += bytes;
  rx_bytes_[dst] += bytes;
  m_bytes_->inc(bytes);
  const double t0 = sim_.now();
  if (src == dst) {
    co_await sim_.delay(bytes / cfg_.loopback_bps);
  } else {
    m_flows_->inc();
    if (!cfg_.same_rack(src, dst)) {
      m_rack_up_bytes_[cfg_.rack_of(src)]->inc(bytes);
      m_rack_down_bytes_[cfg_.rack_of(dst)]->inc(bytes);
    }
    sim::Event done(sim_);
    add_flow(src, dst, bytes, rate_cap, &done);
    co_await done.wait();
  }
  m_transfer_s_->observe(sim_.now() - t0);
  if (tracer_->enabled()) {
    tracer_->complete("net", "net", dst, "xfer", t0, xfer_args(src, dst, bytes));
  }
}

sim::Task<void> Network::control(NodeId src, NodeId dst) {
  (void)src;
  (void)dst;
  m_rpcs_->inc();
  co_await sim_.delay(cfg_.control_latency_s);
}

sim::Task<bool> Network::try_transfer(NodeId src, NodeId dst, double bytes,
                                      double rate_cap) {
  BS_CHECK(src < cfg_.num_nodes && dst < cfg_.num_nodes);
  if (!up_[src] || !up_[dst]) {
    // Connecting to (or from) a dead node: the caller learns by timeout,
    // exactly like try_control.
    m_rpc_timeouts_->inc();
    if (tracer_->enabled()) {
      tracer_->instant("net", "net", src, "xfer_timeout",
                       xfer_args(src, dst, bytes));
    }
    co_await sim_.delay(cfg_.rpc_timeout_s);
    co_return false;
  }
  // Comparing incarnations (not just up_) catches an endpoint that lost
  // power AND rebooted while the stream was in flight.
  const uint64_t src_inc = incarnation_[src];
  const uint64_t dst_inc = incarnation_[dst];
  co_await transfer(src, dst, bytes, rate_cap);
  // An endpoint that lost power mid-stream discarded the bytes (or stopped
  // producing them); the fluid flow completed but the transfer did not.
  co_return up_[src] && up_[dst] && incarnation_[src] == src_inc &&
      incarnation_[dst] == dst_inc;
}

sim::Task<bool> Network::try_disk_read(NodeId node, double bytes) {
  BS_CHECK(node < cfg_.num_nodes);
  if (!up_[node]) co_return false;
  const uint64_t inc = incarnation_[node];
  co_await disk(node).read(bytes);
  co_return up_[node] && incarnation_[node] == inc;
}

sim::Task<bool> Network::try_disk_write(NodeId node, double bytes) {
  BS_CHECK(node < cfg_.num_nodes);
  if (!up_[node]) co_return false;
  const uint64_t inc = incarnation_[node];
  co_await disk(node).write(bytes);
  co_return up_[node] && incarnation_[node] == inc;
}

sim::Task<bool> Network::try_control(NodeId src, NodeId dst) {
  BS_CHECK(src < cfg_.num_nodes && dst < cfg_.num_nodes);
  m_rpcs_->inc();
  if (!up_[dst]) {
    // The request vanishes; the caller learns by connection timeout.
    m_rpc_timeouts_->inc();
    if (tracer_->enabled()) {
      char args[32];
      std::snprintf(args, sizeof(args), "\"dst\":%u", dst);
      tracer_->instant("net", "net", src, "rpc_timeout", args);
    }
    co_await sim_.delay(cfg_.rpc_timeout_s);
    co_return false;
  }
  co_await sim_.delay(cfg_.control_latency_s);
  co_return true;
}

uint32_t Network::class_for(NodeId src, NodeId dst, double cap) {
  const auto key = std::make_tuple(src, dst, cap);
  auto it = class_index_.find(key);
  if (it != class_index_.end()) {
    ++classes_[it->second].n;
    return it->second;
  }
  uint32_t ci;
  if (!free_classes_.empty()) {
    ci = free_classes_.back();
    free_classes_.pop_back();
  } else {
    ci = static_cast<uint32_t>(classes_.size());
    classes_.emplace_back();
  }
  PathClass& c = classes_[ci];
  c.cid = next_class_id_++;
  c.src = src;
  c.dst = dst;
  c.cap = cap;
  c.n = 1;
  c.rate = 0;
  c.path_len = 0;
  c.path[c.path_len++] = link_node_up(src);
  if (!cfg_.same_rack(src, dst)) {
    c.path[c.path_len++] = link_rack_up(cfg_.rack_of(src));
    c.path[c.path_len++] = link_rack_down(cfg_.rack_of(dst));
  }
  c.path[c.path_len++] = link_node_down(dst);
  // New classes get the largest cid so far, so appending keeps the active
  // list sorted by creation id (the solver's deterministic order).
  active_classes_.push_back(ci);
  class_index_.emplace(key, ci);
  ++sstats_.path_classes_created;
  return ci;
}

void Network::release_member(uint32_t cls) {
  PathClass& c = classes_[cls];
  BS_DCHECK(c.n > 0);
  if (--c.n == 0) {
    class_index_.erase(std::make_tuple(c.src, c.dst, c.cap));
    // The dead slot stays in active_classes_ until the next solve's
    // compaction sweep recycles it.
  }
}

void Network::add_flow(NodeId src, NodeId dst, double bytes, double cap,
                       sim::Event* done) {
  advance();
  double eff_cap = cap;
  if (cfg_.per_stream_cap_bps > 0) {
    eff_cap = eff_cap > 0 ? std::min(eff_cap, cfg_.per_stream_cap_bps)
                          : cfg_.per_stream_cap_bps;
  }
  Flow f;
  f.id = next_flow_id_++;
  f.cls = class_for(src, dst, eff_cap);
  f.remaining = bytes;
  f.done = done;
  f.src = src;
  f.dst = dst;
  auto [it, inserted] = flows_.emplace(f.id, f);
  BS_CHECK(inserted);
  // Ids are monotonically increasing, so push_back keeps the order sorted.
  flow_order_.push_back(&it->second);
  ++flows_started_;
  mark_rates_dirty();
}

bool Network::advance() {
  const double now = sim_.now();
  const double dt = now - last_advance_;
  last_advance_ = now;
  if (flows_.empty()) return false;
  // Zero elapsed time moves no bytes: skip the O(flows) sweep.
  if (dt <= 0) return false;
  bool any_finished = false;
  for (Flow* f : flow_order_) {
    f->remaining -= f->rate * dt;
    if (f->remaining <= kRemainingEps) any_finished = true;
  }
  if (!any_finished) return false;
  auto it = std::remove_if(flow_order_.begin(), flow_order_.end(),
                           [this](Flow* f) {
                             if (f->remaining > kRemainingEps) return false;
                             f->done->set();
                             release_member(f->cls);
                             flows_.erase(f->id);
                             return true;
                           });
  flow_order_.erase(it, flow_order_.end());
  return true;
}

void Network::compact_dead_classes() {
  size_t w = 0;
  for (size_t r = 0; r < active_classes_.size(); ++r) {
    const uint32_t ci = active_classes_[r];
    if (classes_[ci].n == 0) {
      free_classes_.push_back(ci);
      continue;
    }
    active_classes_[w++] = ci;
  }
  active_classes_.resize(w);
}

void Network::solve_classes() {
  ++sstats_.class_solves;
  m_solves_->inc();
  compact_dead_classes();
  if (flows_.empty()) return;
  if (scratch_remaining_.size() != link_capacity_.size()) {
    scratch_remaining_.resize(link_capacity_.size());
    scratch_count_.resize(link_capacity_.size());
  }
  // Seed link loads: scratch_count_ carries member flows, not classes, so
  // the fair-share arithmetic matches the per-flow solver's semantics.
  scratch_links_.clear();
  for (uint32_t ci : active_classes_) {
    PathClass& c = classes_[ci];
    c.rate = -1;  // -1 = unfrozen
    for (uint32_t k = 0; k < c.path_len; ++k) {
      const uint32_t l = c.path[k];
      if (scratch_count_[l] == 0) {
        scratch_remaining_[l] = link_capacity_[l];
        scratch_links_.push_back(l);
      }
      scratch_count_[l] += c.n;
    }
  }
  size_t unfrozen = active_classes_.size();
  while (unfrozen > 0) {
    double best_share = std::numeric_limits<double>::infinity();
    for (uint32_t l : scratch_links_) {
      const uint32_t cnt = scratch_count_[l];
      if (cnt == 0) continue;
      const double fair = scratch_remaining_[l] / cnt;
      if (fair < best_share) best_share = fair;
    }
    bool froze_capped = false;
    for (uint32_t ci : active_classes_) {
      PathClass& c = classes_[ci];
      if (c.rate >= 0) continue;
      if (c.cap > 0 && c.cap <= best_share) {
        c.rate = c.cap;
        const double used = c.rate * c.n;
        for (uint32_t k = 0; k < c.path_len; ++k) {
          const uint32_t l = c.path[k];
          scratch_remaining_[l] -= used;
          scratch_count_[l] -= c.n;
        }
        --unfrozen;
        froze_capped = true;
      }
    }
    if (froze_capped) continue;
    const double share = best_share;
    const double limit = share * (1 + 1e-12);
    for (uint32_t ci : active_classes_) {
      PathClass& c = classes_[ci];
      if (c.rate >= 0) continue;
      bool bottlenecked = false;
      for (uint32_t k = 0; k < c.path_len; ++k) {
        const uint32_t l = c.path[k];
        if (scratch_remaining_[l] <= limit * scratch_count_[l]) {
          bottlenecked = true;
          break;
        }
      }
      if (bottlenecked) {
        c.rate = share;
        const double used = share * c.n;
        for (uint32_t k = 0; k < c.path_len; ++k) {
          const uint32_t l = c.path[k];
          scratch_remaining_[l] -= used;
          scratch_count_[l] -= c.n;
        }
        --unfrozen;
      }
    }
  }
  for (uint32_t l : scratch_links_) scratch_count_[l] = 0;
  for (Flow* f : flow_order_) f->rate = classes_[f->cls].rate;
}

void Network::mark_rates_dirty() {
  rates_dirty_ = true;
  sim_.request_flush();
}

void Network::flush_hook(void* self) {
  static_cast<Network*>(self)->flush_solver();
}

void Network::flush_solver() {
  if (!rates_dirty_) return;
  rates_dirty_ = false;
  solve_classes();
  retime();
}

void Network::retime() {
  if (flows_.empty()) {
    ++timer_generation_;  // invalidate any pending wake-up
    timer_pending_ = false;
    return;
  }
  double next = std::numeric_limits<double>::infinity();
  for (const Flow* f : flow_order_) {
    if (f->rate > 0) next = std::min(next, f->remaining / f->rate);
  }
  BS_CHECK_MSG(next < std::numeric_limits<double>::infinity(),
               "active flows but no positive rates");
  const double deadline = sim_.now() + next;
  // Damping: a re-solve that leaves the earliest completion where it was
  // keeps the already-scheduled timer.
  if (timer_pending_ && deadline == timer_deadline_) {
    ++sstats_.retimes_damped;
    return;
  }
  ++timer_generation_;
  timer_pending_ = true;
  timer_deadline_ = deadline;
  ++sstats_.retimes_scheduled;
  const uint64_t gen = timer_generation_;
  sim_.call_at(deadline, [this, gen] { on_timer(gen); });
}

void Network::on_timer(uint64_t generation) {
  if (generation != timer_generation_) return;  // superseded by a change
  timer_pending_ = false;
  if (advance()) {
    // Departures change the fair shares: batch with anything else this
    // instant and solve once at its end.
    mark_rates_dirty();
  } else if (rates_dirty_) {
    // An earlier event this instant already changed the flow set (it may
    // even have completed the flows this timer was armed for); the
    // instant-end flush will solve and reschedule — rates are stale here,
    // so computing a deadline from them would be wrong.
  } else {
    retime();
  }
}

SolverStats Network::solver_stats() const {
  SolverStats s = sstats_;
  size_t active = 0;
  for (uint32_t ci : active_classes_) {
    if (classes_[ci].n > 0) ++active;
  }
  s.active_path_classes = active;
  return s;
}

double Network::solver_oracle_max_rel_diff() const {
  if (flows_.empty() || rates_dirty_) return 0;
  std::vector<std::vector<uint32_t>> paths;
  std::vector<double> caps;
  paths.reserve(flow_order_.size());
  caps.reserve(flow_order_.size());
  for (const Flow* f : flow_order_) {
    const PathClass& c = classes_[f->cls];
    paths.emplace_back(c.path, c.path + c.path_len);
    caps.push_back(c.cap);
  }
  const std::vector<double> want = reference_max_min(paths, caps, link_capacity_);
  double max_rel = 0;
  for (size_t i = 0; i < flow_order_.size(); ++i) {
    const double denom = std::max(std::abs(want[i]), 1.0);
    max_rel = std::max(max_rel, std::abs(want[i] - flow_order_[i]->rate) / denom);
  }
  return max_rel;
}

}  // namespace bs::net
