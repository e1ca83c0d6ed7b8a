#include "net/network.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "common/assert.h"
#include "net/reference_solver.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bs::net {
namespace {

// A flow is "finished" when less than half a byte remains; fluid-model
// arithmetic accumulates tiny float error that this absorbs.
constexpr double kRemainingEps = 0.5;

// Loopback "transfer" rate for src == dst (memory copy).
constexpr double kLoopbackBps = 2.0e9;

// No class position: past every one.
constexpr uint32_t kNoClass = std::numeric_limits<uint32_t>::max();

// A position's bit within its 64-bit bitmap word.
uint64_t bit(uint32_t pos) { return uint64_t{1} << (pos % 64); }

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
  const size_t links = link_capacity_.size();
  link_classes_.resize(links);
  link_load_.assign(links, 0);
  link_slot_.assign(links, 0);
  scratch_remaining_.assign(links, 0);
  scratch_count_.assign(links, 0);
  link_marked_.assign(links, 0);
  link_logged_.assign(links, 0);
  link_dirty_.assign(links, 0);
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
  log_.clear();  // the logged shares assumed the old capacities
  mark_rates_dirty();
}

sim::Task<void> Network::transfer(NodeId src, NodeId dst, double bytes,
                                  double rate_cap) {
  BS_CHECK(src < cfg_.num_nodes && dst < cfg_.num_nodes);
  if (bytes <= 0) co_return;
  bytes_moved_ += bytes;
  m_bytes_->inc(bytes);
  const double t0 = sim_.now();
  if (src == dst) {
    co_await sim_.delay(bytes / kLoopbackBps);
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

sim::Simulator::Delay Network::control(NodeId src, NodeId dst) {
  (void)src;
  (void)dst;
  m_rpcs_->inc();
  return sim_.delay(cfg_.control_latency_s);
}

sim::Task<bool> Network::try_transfer(NodeId src, NodeId dst, double bytes) {
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
  co_await transfer(src, dst, bytes);
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

Network::ControlHop Network::try_control(NodeId src, NodeId dst) {
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
    return ControlHop{sim_.delay(cfg_.rpc_timeout_s), false};
  }
  return ControlHop{sim_.delay(cfg_.control_latency_s), true};
}

uint32_t Network::class_for(NodeId src, NodeId dst, double cap) {
  const auto [it, created] = class_index_.try_emplace(
      std::make_tuple(src, dst, cap), static_cast<uint32_t>(classes_.size()));
  if (created) {
    // Appending keeps positions in creation order and every link's list
    // of positions ascending.
    PathClass& c = classes_.emplace_back();
    c.src = src;
    c.dst = dst;
    c.cap = cap;
    c.path[c.path_len++] = link_node_up(src);
    if (!cfg_.same_rack(src, dst)) {
      c.path[c.path_len++] = link_rack_up(cfg_.rack_of(src));
      c.path[c.path_len++] = link_rack_down(cfg_.rack_of(dst));
    }
    c.path[c.path_len++] = link_node_down(dst);
    for (uint32_t k = 0; k < c.path_len; ++k) {
      link_classes_[c.path[k]].push_back(it->second);
    }
    if (it->second % 64 == 0) live_.push_back(0);
    live_.back() |= bit(it->second);
    if (cap > 0) ++live_caps_[cap];
    ++sstats_.path_classes_created;
  }
  PathClass& c = classes_[it->second];
  if (c.n++ == c.logged_n) touched_.push_back(it->second);
  for (uint32_t k = 0; k < c.path_len; ++k) {
    const uint32_t l = c.path[k];
    if (link_load_[l]++ > 0) continue;
    link_slot_[l] = static_cast<uint32_t>(loaded_links_.size());
    loaded_links_.push_back(l);
  }
  return it->second;
}

void Network::release_member(uint32_t cls) {
  PathClass& c = classes_[cls];
  BS_DCHECK(c.n > 0);
  for (uint32_t k = 0; k < c.path_len; ++k) {
    const uint32_t l = c.path[k];
    if (--link_load_[l] > 0) continue;
    const uint32_t last = loaded_links_.back();
    loaded_links_[link_slot_[l]] = last;
    link_slot_[last] = link_slot_[l];
    loaded_links_.pop_back();
  }
  if (c.n == c.logged_n) touched_.push_back(cls);
  if (--c.n > 0) return;
  // The class stays as a hole until the compaction that drops it.
  live_[cls / 64] &= ~bit(cls);
  class_index_.erase(std::make_tuple(c.src, c.dst, c.cap));
  if (c.cap > 0) {
    const auto it = live_caps_.find(c.cap);
    if (--it->second == 0) live_caps_.erase(it);
  }
  ++holes_;
}

void Network::add_flow(NodeId src, NodeId dst, double bytes, double cap,
                       sim::Event* done) {
  advance();
  double eff_cap = cap;
  if (cfg_.per_stream_cap_bps > 0) {
    eff_cap = eff_cap > 0 ? std::min(eff_cap, cfg_.per_stream_cap_bps)
                          : cfg_.per_stream_cap_bps;
  }
  flows_.push_back(Flow{.cls = class_for(src, dst, eff_cap),
                        .remaining = bytes,
                        .done = done});
  ++flows_started_;
  mark_rates_dirty();
}

bool Network::advance() {
  const double now = sim_.now();
  const double dt = now - last_advance_;
  last_advance_ = now;
  // Zero elapsed time moves no bytes: skip the O(flows) sweep.
  if (flows_.empty() || dt <= 0) return false;
  bool any_finished = false;
  for (Flow& f : flows_) {
    f.remaining -= f.rate * dt;
    if (f.remaining <= kRemainingEps) any_finished = true;
  }
  if (!any_finished) return false;
  std::erase_if(flows_, [this](const Flow& f) {
    if (f.remaining > kRemainingEps) return false;
    f.done->set();
    release_member(f.cls);
    return true;
  });
  return true;
}

void Network::compact_classes() {
  // Live classes keep their relative (creation) order, so every list of
  // positions stays ascending.
  constexpr uint32_t kHole = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> moved(classes_.size(), kHole);
  uint32_t live = 0;
  for (uint32_t pos = 0; pos < classes_.size(); ++pos) {
    if (classes_[pos].n == 0) continue;
    moved[pos] = live;
    classes_[live++] = classes_[pos];
  }
  classes_.resize(live);
  holes_ = 0;
  log_.clear();
  live_.assign((live + 63) / 64, ~uint64_t{0});
  if (live % 64 != 0) live_.back() = bit(live) - 1;
  for (Flow& f : flows_) f.cls = moved[f.cls];
  for (auto& [key, pos] : class_index_) pos = moved[pos];
  for (std::vector<uint32_t>& on : link_classes_) {
    size_t kept = 0;
    for (uint32_t pos : on) {
      if (moved[pos] != kHole) on[kept++] = moved[pos];
    }
    on.resize(kept);
  }
}

bool Network::bottlenecked(const PathClass& c, double limit) const {
  for (uint32_t k = 0; k < c.path_len; ++k) {
    const uint32_t l = c.path[k];
    if (scratch_remaining_[l] <= limit * scratch_count_[l]) return true;
  }
  return false;
}

void Network::take(const PathClass& c, double rate) {
  const double used = rate * c.n;
  const uint32_t n = c.n;
  double* const remaining = scratch_remaining_.data();
  uint32_t* const count = scratch_count_.data();
  // Every path is a NIC pair, with a rack pair between them when the racks
  // differ.
  const uint32_t up = c.path[0];
  const uint32_t down = c.path[c.path_len - 1];
  remaining[up] -= used;
  remaining[down] -= used;
  count[up] -= n;
  count[down] -= n;
  if (c.path_len == 4) {
    const uint32_t rack_up = c.path[1];
    const uint32_t rack_down = c.path[2];
    remaining[rack_up] -= used;
    remaining[rack_down] -= used;
    count[rack_up] -= n;
    count[rack_down] -= n;
  }
}

void Network::freeze(uint32_t pos, double rate) {
  unfrozen_[pos / 64] &= ~bit(pos);
  PathClass& c = classes_[pos];
  take(c, rate);
  c.rate = rate;
  next_.froze.push_back(pos);
}

void Network::mark_classes(uint32_t l, uint32_t from,
                           std::vector<uint64_t>& bits) {
  std::vector<uint32_t>& on = link_classes_[l];
  size_t i = static_cast<size_t>(
      std::lower_bound(on.begin(), on.end(), from) - on.begin());
  size_t kept = i;
  // Positions ascend, so each bitmap word is written once per run. A hole
  // (live bit clear) is dropped from the list as the walk passes it.
  while (i < on.size()) {
    const uint32_t w = on[i] / 64;
    const uint64_t live = live_[w];
    uint64_t run = 0;
    for (; i < on.size() && on[i] / 64 == w; ++i) {
      const uint64_t b = bit(on[i]);
      if (!(live & b)) continue;
      run |= b;
      on[kept++] = on[i];
    }
    bits[w] |= run & unfrozen_[w];
  }
  on.resize(kept);
}

void Network::mark_link(uint32_t l, uint32_t from) {
  link_marked_[l] = stamp_;
  // A link the replayed log marked that was clean at the round's start is
  // in the new log already.
  if (link_logged_[l] != stamp_ || link_dirty_[l] <= stamp_) {
    next_.marked.push_back(l);
  }
  mark_classes(l, from, candidates_);
}

bool Network::within_reach(uint32_t l, double near) const {
  // Each subtraction of the round takes at most the share per member, so
  // in exact arithmetic a link above the near bound stays above it.
  // Rounding moves a link by about one unit in the last place of its
  // remaining capacity per subtraction, and it takes at most one per
  // member; widening the bound by 1e-15 (several units) per member, plus
  // 8, covers that.
  const double cnt = scratch_count_[l];
  return !(scratch_remaining_[l] > near * (1 + (cnt + 8) * 1e-15) * cnt);
}

void Network::collect_changes() {
  dirty_links_.clear();
  suspect_cap_floor_ = std::numeric_limits<double>::infinity();
  for (uint32_t pos : touched_) {
    PathClass& c = classes_[pos];
    if (c.n == c.logged_n) continue;  // moved back, or listed twice
    c.logged_n = c.n;
    if (pos >= logged_classes_ && c.cap > 0 && c.n > 0) {
      suspect_cap_floor_ = std::min(suspect_cap_floor_, c.cap);
    }
    for (uint32_t k = 0; k < c.path_len; ++k) {
      const uint32_t l = c.path[k];
      if (dirty(l)) continue;
      link_dirty_[l] = solve_stamp_;
      dirty_links_.push_back(l);
    }
  }
  touched_.clear();
}

bool Network::replayable(uint32_t r, uint32_t& anchor) const {
  const Round& round = log_.rounds[r];
  const double share = round.share;
  // A new or diverged class capped at or below the share would freeze in
  // the capped sweep. (A share that is not positive admits no reach bound
  // below; stop there too.)
  if (!(share > 0) || !(share < suspect_cap_floor_)) return false;
  const uint32_t marked_end = log_.marked_end(r);
  // A clean link holds the share: clean links hold their logged values, so
  // none is below it. A link at the share passes at the round's start, so
  // the round marked every one.
  anchor = round.anchor;
  if (dirty(anchor)) {
    const auto it = std::find_if(
        log_.marked.begin() + round.marked_begin,
        log_.marked.begin() + marked_end, [&](uint32_t l) {
          return !dirty(l) && scratch_remaining_[l] / scratch_count_[l] == share;
        });
    if (it == log_.marked.begin() + marked_end) return false;
    anchor = *it;
  }
  // And no dirty link is below it, by the scan's own division.
  for (uint32_t l : dirty_links_) {
    const uint32_t cnt = scratch_count_[l];
    if (cnt != 0 && scratch_remaining_[l] / cnt < share) return false;
  }
  return true;
}

bool Network::pending(uint32_t r) const {
  return std::any_of(log_.froze.begin() + log_.rounds[r].froze_begin,
                     log_.froze.begin() + log_.froze_end(r), [&](uint32_t pos) {
                       return (unfrozen_[pos / 64] & bit(pos)) != 0;
                     });
}

bool Network::make_dirty(uint32_t l) {
  if (dirty(l)) return false;
  link_dirty_[l] = stamp_ + 1;
  dirty_links_.push_back(l);
  return true;
}

void Network::dirty_class(uint32_t pos) {
  const PathClass& c = classes_[pos];
  for (uint32_t k = 0; k < c.path_len; ++k) make_dirty(c.path[k]);
}

void Network::left_unfrozen(uint32_t pos) {
  // One frozen in an earlier round froze where the log did not, and its
  // links are dirty already.
  if (!(unfrozen_[pos / 64] & bit(pos))) return;
  const double cap = classes_[pos].cap;
  if (cap > 0) suspect_cap_floor_ = std::min(suspect_cap_floor_, cap);
  dirty_class(pos);
}

void Network::diverge(uint32_t pos, double near) {
  const PathClass& c = classes_[pos];
  for (uint32_t k = 0; k < c.path_len; ++k) {
    const uint32_t l = c.path[k];
    if (!make_dirty(l)) continue;
    if (scratch_count_[l] != 0 &&
        (link_logged_[l] == stamp_ || within_reach(l, near))) {
      mark_classes(l, pos + 1, suspects_);
    }
  }
}

uint32_t Network::lowest_candidate(uint32_t from_word) const {
  for (size_t w = from_word; w < candidates_.size(); ++w) {
    if (const uint64_t bits = candidates_[w]) {
      return static_cast<uint32_t>(
          w * 64 + static_cast<size_t>(std::countr_zero(bits)));
    }
  }
  return kNoClass;
}

void Network::replay_round(uint32_t r, uint32_t anchor, size_t& unfrozen) {
  ++stamp_;
  ++sstats_.rounds_replayed;
  const Round& round = log_.rounds[r];
  const uint32_t froze_end = log_.froze_end(r);
  const uint32_t marked_end = log_.marked_end(r);
  next_.rounds.push_back(
      Round{.share = round.share,
            .anchor = anchor,
            .froze_begin = static_cast<uint32_t>(next_.froze.size()),
            .marked_begin = static_cast<uint32_t>(next_.marked.size()),
            .capped = round.capped});
  const size_t unfrozen_before = unfrozen;
  if (round.capped) {
    // The sweep freezes the logged classes still unfrozen, at their caps.
    for (uint32_t i = round.froze_begin; i < froze_end; ++i) {
      const uint32_t pos = log_.froze[i];
      if (!(unfrozen_[pos / 64] & bit(pos))) continue;
      freeze(pos, classes_[pos].cap);
      --unfrozen;
    }
    return;
  }
  const double share = round.share;
  const double near = share + std::abs(share) * 4e-12;  // as the scan has it
  const double limit = share * (1 + 1e-12);
  // The logged marks: a dirty one makes its classes suspect; a clean one
  // goes into the new log as it is.
  for (uint32_t i = round.marked_begin; i < marked_end; ++i) {
    const uint32_t l = log_.marked[i];
    if (scratch_count_[l] == 0) continue;  // drained: it cannot pass again
    link_logged_[l] = stamp_;
    if (dirty(l)) {
      mark_classes(l, 0, suspects_);
    } else {
      next_.marked.push_back(l);
    }
  }
  // A dirty link within reach of the share makes its classes suspect, and
  // one that passes marks them as candidates, as a round that runs would.
  // Drained ones drop out of the list: they cannot pass again.
  size_t kept = 0;
  for (uint32_t l : dirty_links_) {
    const uint32_t cnt = scratch_count_[l];
    if (cnt == 0) continue;
    dirty_links_[kept++] = l;
    if (link_logged_[l] != stamp_ && within_reach(l, near)) {
      mark_classes(l, 0, suspects_);
    }
    if (scratch_remaining_[l] <= limit * cnt) mark_link(l, 0);
  }
  dirty_links_.resize(kept);
  // Walk the logged freezes merged with the candidates in position order.
  // Marks land after the current position, so the lowest candidate only
  // changes when a tested class is visited.
  const uint32_t* const logged_at = log_.froze.data();
  uint64_t* const unfrozen_bits = unfrozen_.data();
  const uint64_t* const suspect_bits = suspects_.data();
  uint32_t next_candidate = lowest_candidate(0);
  for (uint32_t i = round.froze_begin;;) {
    uint32_t pos = i < froze_end ? logged_at[i] : kNoClass;
    const bool logged = pos <= next_candidate;
    if (logged) {
      if (pos == kNoClass) break;
      ++i;
    } else {
      pos = next_candidate;
    }
    const size_t w = pos / 64;
    const uint64_t b = bit(pos);
    if (pos == next_candidate) {
      candidates_[w] &= ~b;
    } else if (!(unfrozen_bits[w] & b)) {
      // Dead, or frozen in an earlier round: its links are dirty already.
      continue;
    } else if (!(suspect_bits[w] & b)) {
      // Every link it can pass through holds its logged value, and its
      // rate is the logged share already.
      unfrozen_bits[w] &= ~b;
      take(classes_[pos], share);
      next_.froze.push_back(pos);
      --unfrozen;
      continue;
    }
    const PathClass& c = classes_[pos];
    ++sstats_.class_tests;
    if (bottlenecked(c, limit)) {
      freeze(pos, share);
      --unfrozen;
      if (!logged) diverge(pos, near);  // it froze where the log did not
      for (uint32_t k = 0; k < c.path_len; ++k) {
        const uint32_t l = c.path[k];
        const uint32_t cnt = scratch_count_[l];
        if (cnt != 0 && dirty(l) && scratch_remaining_[l] <= limit * cnt &&
            link_marked_[l] != stamp_) {
          mark_link(l, pos + 1);
        }
      }
    } else if (logged) {
      // It did not freeze where the log did, and stays unfrozen.
      if (c.cap > 0) suspect_cap_floor_ = std::min(suspect_cap_floor_, c.cap);
      diverge(pos, near);
    }
    next_candidate = lowest_candidate(static_cast<uint32_t>(w));
  }
  std::fill(suspects_.begin(), suspects_.end(), 0);
  BS_CHECK_MSG(unfrozen < unfrozen_before,
               "a bottleneck round froze no path class");
}

void Network::solve_classes() {
  ++sstats_.class_solves;
  m_solves_->inc();
  // Skip the stamp a divergence in the last solve's final round gave its
  // links, so that every link starts this solve clean.
  stamp_ += 2;
  solve_stamp_ = stamp_;
  collect_changes();
  if (holes_ > 0 && 2 * holes_ >= classes_.size()) compact_classes();
  if (flows_.empty()) {
    log_.clear();
    return;
  }
  unfrozen_ = live_;
  candidates_.resize(live_.size());
  suspects_.resize(live_.size());
  next_.clear();
  // Seed the loaded links from their standing member-flow counts (flows,
  // not classes, so the fair-share arithmetic matches the per-flow
  // solver's), and the dirty links that lost their last member.
  scratch_links_ = loaded_links_;
  for (uint32_t l : scratch_links_) {
    scratch_remaining_[l] = link_capacity_[l];
    scratch_count_[l] = link_load_[l];
  }
  for (uint32_t l : dirty_links_) {
    if (link_load_[l] != 0) continue;
    scratch_remaining_[l] = link_capacity_[l];
    scratch_count_[l] = 0;
  }
  size_t unfrozen = classes_.size() - holes_;
  // The lowest live cap is at most every unfrozen cap, and the first
  // capped sweep makes it exact.
  double cap_floor = live_caps_.empty()
                         ? std::numeric_limits<double>::infinity()
                         : live_caps_.begin()->first;
  // The log cursor: every logged round before it was replayed, matched by
  // a round that ran, or passed.
  uint32_t r = 0;
  while (unfrozen > 0) {
    // A logged round whose classes all froze elsewhere has nothing left to
    // freeze, and passing it leaves no class unfrozen where the log froze
    // it. (So a capped round replays only while its sweep has a class.)
    while (r < log_.rounds.size() && !pending(r)) ++r;
    uint32_t anchor = 0;
    if (r < log_.rounds.size() && replayable(r, anchor)) {
      replay_round(r++, anchor, unfrozen);
    } else {
      run_round(cap_floor, unfrozen);
      // Only the rounds that follow read the cursor and the dirt.
      if (unfrozen > 0) r = resume_log(r);
    }
  }
  std::swap(log_, next_);
  logged_classes_ = classes_.size();
}

void Network::run_round(double& cap_floor, size_t& unfrozen) {
  ++stamp_;
  ++sstats_.fill_rounds;
  // One scan of the live links finds the round's share and keeps every
  // link within 4e-12 of the running minimum: a superset of the links that
  // pass the bottleneck test below, which admits 1e-12 plus rounding.
  // Links drained by earlier rounds drop out for good.
  double best_share = std::numeric_limits<double>::infinity();
  double near = best_share;
  uint32_t anchor = 0;
  size_t live = 0;
  near_links_.clear();
  for (uint32_t l : scratch_links_) {
    const uint32_t cnt = scratch_count_[l];
    if (cnt == 0) continue;
    scratch_links_[live++] = l;
    const double fair = scratch_remaining_[l] / cnt;
    if (fair > near) continue;
    if (fair < best_share) {
      best_share = fair;
      near = fair + std::abs(fair) * 4e-12;
      anchor = l;
    }
    near_links_.push_back(l);
  }
  scratch_links_.resize(live);
  next_.rounds.push_back(
      Round{.share = best_share,
            .anchor = anchor,
            .froze_begin = static_cast<uint32_t>(next_.froze.size()),
            .marked_begin = static_cast<uint32_t>(next_.marked.size()),
            .capped = false});
  // Caps binding at or below the share freeze first, in creation order.
  // cap_floor is at most every unfrozen cap, so below it none binds.
  if (best_share >= cap_floor) {
    bool froze_capped = false;
    cap_floor = std::numeric_limits<double>::infinity();
    for (uint32_t pos = 0; pos < classes_.size(); ++pos) {
      const PathClass& c = classes_[pos];
      if (c.cap <= 0 || !(unfrozen_[pos / 64] & bit(pos))) continue;
      if (c.cap <= best_share) {
        freeze(pos, c.cap);
        --unfrozen;
        froze_capped = true;
      } else {
        cap_floor = std::min(cap_floor, c.cap);
      }
    }
    if (froze_capped) {
      next_.rounds.back().capped = true;
      return;
    }
  }
  const double share = best_share;
  const double limit = share * (1 + 1e-12);
  // Test only classes on a link that passes now, walking them in creation
  // order. Freezing never makes a link pass in exact arithmetic; rounding
  // can, so a freeze re-checks its links and marks their later classes.
  for (uint32_t l : near_links_) {
    if (scratch_remaining_[l] <= limit * scratch_count_[l]) mark_link(l, 0);
  }
  const size_t unfrozen_before = unfrozen;
  for (size_t w = 0; w < candidates_.size(); ++w) {
    while (const uint64_t bits = candidates_[w]) {
      candidates_[w] = bits & (bits - 1);
      const auto pos = static_cast<uint32_t>(
          w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      const PathClass& c = classes_[pos];
      ++sstats_.class_tests;
      if (!bottlenecked(c, limit)) continue;
      freeze(pos, share);
      --unfrozen;
      for (uint32_t k = 0; k < c.path_len; ++k) {
        const uint32_t l = c.path[k];
        const uint32_t cnt = scratch_count_[l];
        if (cnt != 0 && scratch_remaining_[l] <= limit * cnt &&
            link_marked_[l] != stamp_) {
          mark_link(l, pos + 1);
        }
      }
    }
  }
  // The link with the minimum share passes its own test, so a round that
  // freezes nothing means the per-link state is corrupt: stop rather than
  // spin.
  BS_CHECK_MSG(unfrozen < unfrozen_before,
               "a bottleneck round froze no path class");
}

uint32_t Network::resume_log(uint32_t r) {
  const Round& ran = next_.rounds.back();
  const uint32_t* const froze = next_.froze.data();
  const auto ran_end = static_cast<uint32_t>(next_.froze.size());
  // The logged rounds a full solve runs before this one: the classes they
  // froze that are still unfrozen diverge.
  for (; r < log_.rounds.size() && log_.rounds[r].before(ran); ++r) {
    for (uint32_t i = log_.rounds[r].froze_begin; i < log_.froze_end(r); ++i) {
      left_unfrozen(log_.froze[i]);
    }
  }
  // Past the log's end no round can replay, so no link needs dirtying.
  if (r == log_.rounds.size()) return r;
  const bool match = log_.rounds[r].share == ran.share &&
                     log_.rounds[r].capped == ran.capped;
  if (!match) {
    for (uint32_t i = ran.froze_begin; i < ran_end; ++i) dirty_class(froze[i]);
    return r;
  }
  // The logged round with this share: a class in only one of the two lists
  // (both ascend) diverges.
  uint32_t i = log_.rounds[r].froze_begin;
  const uint32_t logged_end = log_.froze_end(r);
  uint32_t j = ran.froze_begin;
  while (i < logged_end || j < ran_end) {
    const uint32_t logged = i < logged_end ? log_.froze[i] : kNoClass;
    const uint32_t now = j < ran_end ? froze[j] : kNoClass;
    if (logged == now) {
      ++i;
      ++j;
    } else if (logged < now) {
      left_unfrozen(logged);
      ++i;
    } else {
      dirty_class(now);
      ++j;
    }
  }
  return r + 1;
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
  // One sweep hands every flow its class's new rate and finds the earliest
  // completion.
  double next = std::numeric_limits<double>::infinity();
  for (Flow& f : flows_) {
    f.rate = classes_[f.cls].rate;
    if (f.rate > 0) next = std::min(next, f.remaining / f.rate);
  }
  retime(next);
}

double Network::next_completion() const {
  double next = std::numeric_limits<double>::infinity();
  for (const Flow& f : flows_) {
    if (f.rate > 0) next = std::min(next, f.remaining / f.rate);
  }
  return next;
}

void Network::retime(double next) {
  if (flows_.empty()) {
    ++timer_generation_;  // invalidate any pending wake-up
    timer_pending_ = false;
    return;
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
    retime(next_completion());
  }
}

SolverStats Network::solver_stats() const {
  SolverStats s = sstats_;
  s.active_path_classes = classes_.size() - holes_;
  return s;
}

double Network::solver_oracle_max_rel_diff() const {
  if (flows_.empty() || rates_dirty_) return 0;
  std::vector<std::vector<uint32_t>> paths;
  std::vector<double> caps;
  paths.reserve(flows_.size());
  caps.reserve(flows_.size());
  for (const Flow& f : flows_) {
    const PathClass& c = classes_[f.cls];
    paths.emplace_back(c.path, c.path + c.path_len);
    caps.push_back(c.cap);
  }
  const std::vector<double> want = reference_max_min(paths, caps, link_capacity_);
  double max_rel = 0;
  for (size_t i = 0; i < flows_.size(); ++i) {
    const double denom = std::max(std::abs(want[i]), 1.0);
    max_rel = std::max(max_rel, std::abs(want[i] - flows_[i].rate) / denom);
  }
  return max_rel;
}

}  // namespace bs::net
