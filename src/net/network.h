// Flow-level network simulation with max-min fair bandwidth sharing.
//
// Each bulk transfer is a *flow* along a fixed link path
// (src NIC up → [rack uplink → rack downlink] → dst NIC down).
// Whenever the flow set changes, rates are re-solved by progressive
// filling (freeze the bottleneck, subtract, repeat) and the earliest
// completion is scheduled. This is the standard fluid approximation used in
// datacenter simulators; it reproduces the contention and hotspot effects
// the paper's throughput curves depend on, at a cost of O(flows·links) per
// change instead of per-packet events.
//
// Solver engineering (the sim's dominant CPU cost at cluster scale):
//
//  - Path-class aggregation: flows sharing one (src, dst, cap) triple share
//    one link path and therefore one max-min rate — a shuffle storm's
//    thousands of identical src→rack→dst streams collapse into a handful
//    of classes. Progressive filling runs over classes weighted by member
//    count, not over individual flows.
//  - Instant-batched re-solve: a flow arrival/departure marks rates dirty;
//    the solve runs ONCE at the end of the simulated instant (via the
//    simulator's flush hook), so a burst of same-timestamp arrivals pays
//    for one solve instead of one per flow. Rates inside an instant are
//    unobservable (no simulated time passes), so this is exact.
//  - Completion-retime damping: the wake-up timer is left in place when a
//    re-solve does not move the earliest completion time.
//
// The oracle is a pure function, not a second backend: reference_max_min
// (net/reference_solver.h) runs plain per-flow progressive filling on a flow
// set, and solver_oracle_max_rel_diff() checks the live rates against it
// (gated by net_test and bench/ext9).
//
// Control messages (RPCs) are modeled as fixed one-way latencies — they are
// small enough (hundreds of bytes) that their bandwidth use is negligible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "common/container.h"
#include "common/stats.h"
#include "net/cluster.h"
#include "net/liveness.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace bs::obs {
class Counter;
class Gauge;
class Histogram;
class Tracer;
}  // namespace bs::obs

namespace bs::net {

// Per-node FIFO disk. Concurrent requests queue; each pays a positioning
// overhead plus size/bandwidth. Shared via reference from services on the
// same node.
class Disk {
 public:
  Disk(sim::Simulator& sim, double read_bps, double write_bps, double seek_s)
      : sim_(sim), gate_(sim, 1), read_bps_(read_bps), write_bps_(write_bps),
        seek_s_(seek_s) {}

  // Observability wiring (done by Network at construction): byte counters
  // are shared cluster-wide aggregates; spans carry the owning node id.
  void attach_obs(obs::Tracer* tracer, uint32_t node, obs::Counter* read_bytes,
                  obs::Counter* write_bytes) {
    tracer_ = tracer;
    node_ = node;
    m_read_bytes_ = read_bytes;
    m_write_bytes_ = write_bytes;
  }

  sim::Task<void> read(double bytes) { return io(bytes, /*is_read=*/true); }
  sim::Task<void> write(double bytes) { return io(bytes, /*is_read=*/false); }

  double bytes_read() const { return bytes_read_; }
  double bytes_written() const { return bytes_written_; }
  double write_bps() const { return write_bps_ * scale_; }
  double read_bps() const { return read_bps_ * scale_; }

  // Degradation knob (slow-node fault injection): scales both directions'
  // bandwidth. 1 = healthy. Requests already queued finish at the rate in
  // effect when they reach the head of the FIFO.
  void set_scale(double scale) { scale_ = scale; }
  double scale() const { return scale_; }

 private:
  sim::Task<void> io(double bytes, bool is_read);

  sim::Simulator& sim_;
  sim::Semaphore gate_;
  double read_bps_;
  double write_bps_;
  double seek_s_;
  double scale_ = 1.0;
  double bytes_read_ = 0;
  double bytes_written_ = 0;
  obs::Tracer* tracer_ = nullptr;
  uint32_t node_ = 0;
  obs::Counter* m_read_bytes_ = nullptr;
  obs::Counter* m_write_bytes_ = nullptr;
};

// Degraded-node performance, driven by the fault injector's slow-node
// scenarios (a failing disk, a flaky NIC negotiation, a thermally
// throttled CPU). Each factor scales the healthy speed: 1 = nominal,
// 0.25 = four times slower.
struct NodePerf {
  double nic = 1.0;   // both NIC directions (link capacities)
  double disk = 1.0;  // local disk bandwidth
  double cpu = 1.0;   // task compute speed (consumed by schedulers/engines)
};

// Solver introspection for benches and tests (bench/ext9, net_test).
struct SolverStats {
  uint64_t class_solves = 0;    // instant-batched path-class re-solves
  uint64_t retimes_scheduled = 0;
  uint64_t retimes_damped = 0;  // skipped: earliest completion unchanged
  uint64_t path_classes_created = 0;
  size_t active_path_classes = 0;
};

class Network {
 public:
  Network(sim::Simulator& sim, const ClusterConfig& cfg);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const ClusterConfig& config() const { return cfg_; }
  sim::Simulator& simulator() { return sim_; }

  // Bulk data transfer; completes when the last byte arrives under max-min
  // fair sharing. `rate_cap` additionally caps this flow's rate (used to
  // model per-stream protocol inefficiencies); 0 means uncapped.
  sim::Task<void> transfer(NodeId src, NodeId dst, double bytes,
                           double rate_cap = 0);

  // One-way control-message latency.
  sim::Task<void> control(NodeId src, NodeId dst);

  // --- node-down semantics (driven by the fault injector) ---
  //
  // The network holds the ground truth of which nodes are powered on. A
  // message *to* a down node is lost; the caller only learns by timeout.
  // In-flight bulk flows are not retroactively aborted (the fluid model
  // completes them); the receiving service discards the bytes instead —
  // see Provider/DataNode down-state handling.
  void set_node_up(NodeId node, bool up);
  bool node_up(NodeId node) const { return up_[node]; }
  // Ground-truth liveness as a LivenessView (for tests and wiring).
  const LivenessView& ground_truth() const { return truth_; }
  // How many times this node has lost power (incremented on every up→down
  // transition). Anything kept only on the node's volatile or wiped local
  // storage — MapReduce intermediate spills above all — is gone across an
  // incarnation change even if the node later comes back: callers record
  // the incarnation at write time and treat a mismatch as data loss.
  uint64_t incarnation(NodeId node) const { return incarnation_[node]; }

  // Bulk transfer that honors the node-down ground truth, per the same
  // semantics as try_control: if either endpoint is already down when the
  // stream would start, the caller waits out the connection timeout and
  // gets false. A transfer in flight when an endpoint loses power still
  // completes in the fluid model (see above), but the bytes went to — or
  // came from — a dead node: the caller gets false and must treat the
  // fetch as failed. The shuffle path of the MapReduce engine feeds its
  // fetch-failure detection from exactly this.
  sim::Task<bool> try_transfer(NodeId src, NodeId dst, double bytes,
                               double rate_cap = 0);
  // Local disk I/O guarded by node power: false immediately when the node
  // is already off (nothing on a dead node can issue I/O), and false after
  // the I/O when the node lost power mid-operation (the write never hit
  // the platter / the read never reached its consumer).
  sim::Task<bool> try_disk_read(NodeId node, double bytes);
  sim::Task<bool> try_disk_write(NodeId node, double bytes);

  // --- slow-node semantics (driven by the fault injector) ---
  //
  // Rescales a node's NIC link capacities and disk bandwidth immediately
  // (active flows are re-solved at the new capacities) and records the CPU
  // factor for compute-charging layers (the MapReduce engine divides task
  // compute delays by it). The node stays up — it is degraded, not dead,
  // which is exactly the straggler case speculative execution exists for.
  void set_node_perf(NodeId node, NodePerf perf);
  const NodePerf& node_perf(NodeId node) const { return perf_[node]; }

  // Control round trip that can fail: if `dst` is down when the request
  // would arrive, the caller waits out the connection timeout and gets
  // false. Returns true after a normal one-way latency otherwise (the
  // caller models the response leg itself, as with control()).
  sim::Task<bool> try_control(NodeId src, NodeId dst);

  Disk& disk(NodeId node) { return *disks_[node]; }

  // Introspection for tests and benches.
  uint64_t flows_started() const { return flows_started_; }
  double bytes_moved() const { return bytes_moved_; }
  size_t active_flows() const { return flows_.size(); }
  // Bytes received per node (hotspot analysis).
  const std::vector<double>& rx_bytes() const { return rx_bytes_; }
  const std::vector<double>& tx_bytes() const { return tx_bytes_; }

  // --- solver introspection (tests / bench gates) ---
  SolverStats solver_stats() const;
  // Oracle cross-check: the largest relative difference between the live
  // per-flow rates and reference_max_min on the current flow set. 0 when no
  // flows are active, or when this instant has changes the instant-end
  // re-solve has not applied yet (the live rates are not an allocation
  // until then). Read-only: probing never changes the simulation or its
  // counters. Test/bench only — allocates.
  double solver_oracle_max_rel_diff() const;

 private:
  struct GroundTruth final : LivenessView {
    explicit GroundTruth(const Network& net) : net(net) {}
    bool is_up(NodeId node) const override { return net.node_up(node); }
    const Network& net;
  };

  // All flows between one (src, dst) pair under one cap share this: one
  // link path, one max-min rate. `n` members are solved as one weighted
  // entity. Slots are recycled; `cid` (monotonic creation id) keeps the
  // solver's iteration order deterministic.
  struct PathClass {
    uint64_t cid = 0;
    uint32_t path[4] = {0, 0, 0, 0};
    uint32_t path_len = 0;
    uint32_t n = 0;        // member flow count (0 = dead slot)
    double cap = 0;        // per-flow cap (0 = none); part of the key
    double rate = 0;       // per-flow rate from the last solve
    NodeId src = 0, dst = 0;
  };

  struct Flow {
    uint64_t id;
    uint32_t cls;       // index into classes_
    double remaining;   // bytes
    double rate = 0;    // current fair rate, bytes/sec
    sim::Event* done;
    NodeId src, dst;
  };

  // Link layout: [0, N): node up; [N, 2N): node down;
  // [2N, 2N+R): rack up; [2N+R, 2N+2R): rack down.
  uint32_t link_node_up(NodeId n) const { return n; }
  uint32_t link_node_down(NodeId n) const { return cfg_.num_nodes + n; }
  uint32_t link_rack_up(uint32_t r) const { return 2 * cfg_.num_nodes + r; }
  uint32_t link_rack_down(uint32_t r) const {
    return 2 * cfg_.num_nodes + cfg_.num_racks() + r;
  }

  void add_flow(NodeId src, NodeId dst, double bytes, double cap,
                sim::Event* done);
  uint32_t class_for(NodeId src, NodeId dst, double cap);
  void release_member(uint32_t cls);
  // Advances all flows to `now`, completing any that finished. Returns
  // whether any flow completed (and was removed).
  bool advance();
  // Recycles class slots whose membership dropped to zero.
  void compact_dead_classes();
  // Rate re-solve: progressive filling over path classes weighted by
  // member count, rates written back to flows.
  void solve_classes();
  // Marks rates stale and defers solve+retime to the simulator's
  // instant-end flush (one solve per instant, however many
  // arrivals/departures it batched).
  void mark_rates_dirty();
  void flush_solver();
  static void flush_hook(void* self);
  // Schedules the wake-up for the next flow completion. Damped: a pending
  // timer at the same deadline is left alone.
  void retime();
  void on_timer(uint64_t generation);

  sim::Simulator& sim_;
  ClusterConfig cfg_;
  std::vector<double> link_capacity_;
  bs::unordered_map<uint64_t, Flow> flows_;
  // Path classes: slot storage + free list; active slots listed in cid
  // order (dead slots are compacted out during the next solve); ordered
  // key index for arrival lookup.
  std::vector<PathClass> classes_;
  std::vector<uint32_t> free_classes_;
  std::vector<uint32_t> active_classes_;
  std::map<std::tuple<NodeId, NodeId, double>, uint32_t> class_index_;
  // Scratch for the solver (sized to the link count, reused).
  std::vector<double> scratch_remaining_;
  std::vector<uint32_t> scratch_count_;
  std::vector<uint32_t> scratch_links_;  // links touched by active flows
  // Active flows sorted by id (deterministic, maintained incrementally).
  std::vector<Flow*> flow_order_;
  std::vector<std::unique_ptr<Disk>> disks_;
  double last_advance_ = 0;
  uint64_t next_flow_id_ = 1;
  uint64_t next_class_id_ = 1;
  uint64_t timer_generation_ = 0;
  bool timer_pending_ = false;
  double timer_deadline_ = 0;
  bool rates_dirty_ = false;
  uint64_t flows_started_ = 0;
  double bytes_moved_ = 0;
  SolverStats sstats_;
  std::vector<double> rx_bytes_;
  std::vector<double> tx_bytes_;
  std::vector<char> up_;  // ground-truth power state per node
  std::vector<uint64_t> incarnation_;  // power-loss count per node
  std::vector<NodePerf> perf_;  // degradation factors per node
  GroundTruth truth_{*this};

  // Obs handles, resolved once at construction (hot paths never do string
  // lookups). Per-rack byte counters keep link accounting bounded: racks,
  // not the O(nodes) NIC links, are the contended resource in the topology.
  obs::Tracer* tracer_;
  obs::Counter* m_flows_;
  obs::Counter* m_bytes_;
  obs::Counter* m_rpcs_;
  obs::Counter* m_rpc_timeouts_;
  obs::Counter* m_solves_;
  obs::Histogram* m_transfer_s_;
  std::vector<obs::Counter*> m_rack_up_bytes_;
  std::vector<obs::Counter*> m_rack_down_bytes_;
};

}  // namespace bs::net
