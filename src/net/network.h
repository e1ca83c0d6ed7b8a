// Flow-level network simulation with max-min fair bandwidth sharing.
//
// Each bulk transfer is a *flow* along a fixed link path
// (src NIC up → [rack uplink → rack downlink] → dst NIC down).
// Whenever the flow set changes, rates are re-solved by progressive
// filling (freeze the bottleneck, subtract, repeat) and the earliest
// completion is scheduled. This is the standard fluid approximation used in
// datacenter simulators; it reproduces the contention and hotspot effects
// the paper's throughput curves depend on, with one solve per changed
// instant instead of per-packet events.
//
// Solver engineering (the sim's dominant CPU cost at cluster scale):
//
//  - Path-class aggregation: flows sharing one (src, dst, cap) triple share
//    one link path and therefore one max-min rate — a shuffle storm's
//    thousands of identical src→rack→dst streams collapse into a handful
//    of classes. Progressive filling runs over classes weighted by member
//    count, not over individual flows.
//  - Bottleneck-driven filling (Bertsekas & Gallager, Data Networks §6.5):
//    each round scans the live links for the minimum fair share, but tests
//    only classes on a link that passes the bottleneck test. The solver's
//    state outlives a solve: classes sit in creation order, and each link
//    keeps the ascending positions of the classes that cross it and its
//    member-flow count, updated as flows arrive and depart. Every round
//    marks the unfrozen classes of its passing links in a bitmap and walks
//    the marks in creation order; a freeze that makes one of its links pass
//    marks that link's later classes. The capped-class sweep is skipped
//    while the share stays below the lowest live cap. A dead class stays
//    as a hole until holes fill half the table; one compaction then
//    renumbers every stored position, and marking drops the holes it
//    passes from a link's list. A solve costs
//    O(live links + rounds·links + tests), and each class is tested about
//    once: when a bottleneck freezes it. Every round's share, the freeze
//    order, each link's sequence of subtractions and the operands of every
//    test are those of a sweep of every class per round, so every rate is
//    bit-identical to it.
//  - Change-propagating replay (SimGrid's lazy update, Casanova et al.,
//    JPDC 2014, at the grain of one freeze; change propagation over the
//    filling trace, as in Acar's self-adjusting computation): a solve logs
//    each round's share, a link that held it, the links the round marked
//    and the classes it froze in order. A re-solve follows a few arrivals
//    and departures. A link is dirty once its remaining capacity or count
//    may differ from the log's at the same point of the fill: at first the
//    links of every class whose count changed, then those of every class
//    whose outcome in a replayed round differs from the log's. A logged
//    round replays while a clean link still holds its share, no dirty link
//    falls below it, no new or diverged class's cap binds at it, and (for
//    a capped round) one of its capped classes is left to freeze. In a
//    replayed round a logged freeze is applied with its subtraction alone
//    unless the class is suspect: it sits on a dirty link that the logged
//    round marked or that comes within reach of the share. Suspect classes
//    and the later classes of a dirty link that passes are tested and
//    marked as the walk does, so every freeze comes out as a full solve's.
//    A round that cannot replay runs, and the log's cursor then moves past
//    it: logged rounds a full solve would have run before it are passed, a
//    logged round with its share is consumed, and every class whose outcome
//    differs from the log's (frozen where the log did not, or left unfrozen
//    where it froze) dirties its links. The next logged round is then
//    tested for replay again, and one whose classes all froze elsewhere is
//    passed. A full solve (first solve, after a compaction or a capacity
//    change) is the same loop with an empty log.
//  - Instant-batched re-solve: a flow arrival/departure marks rates dirty;
//    the solve runs ONCE at the end of the simulated instant (via the
//    simulator's flush hook), so a burst of same-timestamp arrivals pays
//    for one solve instead of one per flow. Rates inside an instant are
//    unobservable (no simulated time passes), so this is exact.
//  - Completion-retime damping: the wake-up is left in place when a
//    re-solve does not move the earliest completion time. The wake-up is
//    one Simulator::Step: a re-arm leaves its earlier event queued, and
//    only the event armed last (told apart by seq) acts.
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

  // Degradation knob (slow-node fault injection): scales both directions'
  // bandwidth. 1 = healthy. Requests already queued finish at the rate in
  // effect when they reach the head of the FIFO.
  void set_scale(double scale) { scale_ = scale; }

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
  // Progressive-filling rounds run, all solves: the rounds no logged round
  // could replay (replayed rounds excluded). With rounds_replayed they add
  // up to a full solve's rounds.
  uint64_t fill_rounds = 0;
  // Bottleneck tests run on unfrozen classes: about one per class frozen by
  // a bottleneck in a round that runs (a class on a passing link is tested
  // when the round's walk reaches it), plus a replayed round's re-tests of
  // suspect and candidate classes. Capped freezes run no test.
  uint64_t class_tests = 0;
  // Rounds taken from the previous solve's log instead of being run,
  // including those after a round that ran.
  uint64_t rounds_replayed = 0;
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

  // One-way control-message latency: one delay event and no coroutine
  // frame. Counts the RPC when called, so await the result at once.
  sim::Simulator::Delay control(NodeId src, NodeId dst);

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
  sim::Task<bool> try_transfer(NodeId src, NodeId dst, double bytes);
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
  // caller models the response leg itself, as with control()). Like
  // control(), one delay event and no coroutine frame; the outcome is
  // decided when called.
  struct [[nodiscard]] ControlHop {
    sim::Simulator::Delay wait;
    bool delivered;
    bool await_ready() const noexcept { return wait.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) { wait.await_suspend(h); }
    bool await_resume() const noexcept { return delivered; }
  };
  ControlHop try_control(NodeId src, NodeId dst);

  Disk& disk(NodeId node) { return *disks_[node]; }

  // Introspection for tests and benches.
  uint64_t flows_started() const { return flows_started_; }
  double bytes_moved() const { return bytes_moved_; }
  size_t active_flows() const { return flows_.size(); }

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
  // entity. A class's position in classes_ is its creation rank, which
  // keeps the solver's iteration order deterministic.
  struct PathClass {
    uint32_t path[4] = {0, 0, 0, 0};
    uint32_t path_len = 0;
    uint32_t n = 0;        // member flow count (0 = dead: a hole)
    double cap = 0;        // per-flow cap (0 = none); part of the key
    double rate = 0;       // per-flow rate from the last solve
    NodeId src = 0, dst = 0;
    uint32_t logged_n = 0;  // member count at the last solve
  };

  struct Flow {
    uint32_t cls;       // position in classes_
    double remaining;   // bytes
    double rate = 0;    // current fair rate, bytes/sec
    sim::Event* done;
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
  // Drops the holes, renumbering every stored class position (and so
  // dropping the solve log).
  void compact_classes();
  // Rate re-solve: progressive filling over path classes weighted by
  // member count. Replays the logged rounds the changes since the last
  // solve cannot move and runs the others.
  void solve_classes();
  // Brings the logged counts up to date, dirtying the links of every class
  // whose count changed, and sets suspect_cap_floor_ to the lowest cap of
  // the classes created since the last solve.
  void collect_changes();
  // Whether logged round `r` can be replayed; if so, `anchor` is a clean
  // link that holds its share.
  bool replayable(uint32_t r, uint32_t& anchor) const;
  // Whether a class logged round `r` froze is still unfrozen.
  bool pending(uint32_t r) const;
  // Applies logged round `r`, re-testing only what the dirt can reach.
  void replay_round(uint32_t r, uint32_t anchor, size_t& unfrozen);
  // Runs one round from a scan of every live link.
  void run_round(double& cap_floor, size_t& unfrozen);
  // Moves the log cursor `r` past the round that just ran: passes the
  // logged rounds that come before it, consumes one that has its share,
  // and dirties the links of every class whose outcome differs from the
  // log's. Returns the new cursor.
  uint32_t resume_log(uint32_t r);
  // Dirties link `l` from the next round on; false if it was dirty.
  bool make_dirty(uint32_t l);
  // Dirties the links of class `pos`, whose outcome differs from the log's.
  void dirty_class(uint32_t pos);
  // A class the log froze that is still unfrozen: dirties its links, and
  // its cap may bind where the log's did not.
  void left_unfrozen(uint32_t pos);
  // Dirties the links of class `pos` whose outcome in the replayed round
  // differs from the log's; a newly dirty link that the logged round marked
  // or that is within reach of `near` makes its later classes suspect.
  void diverge(uint32_t pos, double near);
  // The lowest candidate position in words from `from_word` on, or
  // kNoClass.
  uint32_t lowest_candidate(uint32_t from_word) const;
  bool dirty(uint32_t l) const { return link_dirty_[l] >= solve_stamp_; }
  // Whether link `l` could pass a bottleneck test at a share whose near
  // bound is `near` before the round ends.
  bool within_reach(uint32_t l, double near) const;
  // Solver helpers over the scratch link state. `bottlenecked` is the
  // round's test: some link of `c` has at most `limit` left per member.
  bool bottlenecked(const PathClass& c, double limit) const;
  // Subtracts c's members at `rate` from its links.
  void take(const PathClass& c, double rate);
  void freeze(uint32_t pos, double rate);
  // Sets the bits of link `l`'s unfrozen classes at positions >= `from`
  // in `bits`; drops the holes it passes from the link's list.
  void mark_classes(uint32_t l, uint32_t from, std::vector<uint64_t>& bits);
  // Marks link `l`'s later classes as candidates, stamps it with the
  // current round and lists it in the new log.
  void mark_link(uint32_t l, uint32_t from);
  // Marks rates stale and defers solve+retime to the simulator's
  // instant-end flush (one solve per instant, however many
  // arrivals/departures it batched).
  void mark_rates_dirty();
  void flush_solver();
  static void flush_hook(void* self);
  // Arms the wake-up `next` seconds from now, the earliest flow completion
  // (infinite when no flow is active). Damped: a wake-up pending at the
  // same deadline is left alone.
  void retime(double next);
  double next_completion() const;
  // The wake-up's event: acts only if it is the one armed last.
  void on_wake();

  sim::Simulator& sim_;
  ClusterConfig cfg_;
  std::vector<double> link_capacity_;
  // Active flows in start order (completions fire in this order).
  std::vector<Flow> flows_;
  // Path classes in creation order; a dead class stays as a hole until
  // holes fill half the table. Ordered key index for arrival lookup.
  std::vector<PathClass> classes_;
  size_t holes_ = 0;
  std::map<std::tuple<NodeId, NodeId, double>, uint32_t> class_index_;
  // Kept across solves, per link: the ascending positions of the classes
  // that cross it (holes included until marking passes them or compaction
  // drops them), and its member-flow count. The loaded links (count > 0)
  // are listed in no particular order; link_slot_ holds each one's index
  // in that list.
  std::vector<std::vector<uint32_t>> link_classes_;
  std::vector<uint32_t> link_load_;
  std::vector<uint32_t> loaded_links_;
  std::vector<uint32_t> link_slot_;
  // Live capped classes per cap value; the first key is the lowest cap.
  std::map<double, uint32_t> live_caps_;
  // Scratch for the solver (sized to the link count, reused).
  std::vector<double> scratch_remaining_;
  std::vector<uint32_t> scratch_count_;
  // Links still carrying unfrozen classes; drained ones drop out as the
  // rounds' share scans pass them.
  std::vector<uint32_t> scratch_links_;
  // Grows at each solve's start (by two) and by one at each round's, run
  // or replayed; the per-link stamps below hold its values, so they never
  // need clearing. solve_stamp_ is its value at the current solve's start.
  uint64_t stamp_ = 0;
  uint64_t solve_stamp_ = 0;
  // Per link: the round that last marked it (its later classes became
  // candidates), the replayed round whose log lists it as marked, and the
  // stamp from which it is dirty (dirty in this solve when at least
  // solve_stamp_; a link that turns dirty mid-round gets the next round's).
  std::vector<uint64_t> link_marked_;
  std::vector<uint64_t> link_logged_;
  std::vector<uint64_t> link_dirty_;
  // This solve's dirty links in the order dirtied; drained ones drop out as
  // replayed rounds pass them.
  std::vector<uint32_t> dirty_links_;
  // Bitmaps with one bit per position. live_ marks the live classes and
  // is kept across solves; each solve starts unfrozen_ as a copy and clears
  // a class's bit when it freezes, so holes and frozen classes are never
  // candidates. candidates_ holds the current round's marks; every bit is
  // cleared as the round walks it. suspects_ holds a replayed round's
  // suspect classes and is cleared at the round's end.
  std::vector<uint64_t> live_;
  std::vector<uint64_t> unfrozen_;
  std::vector<uint64_t> candidates_;
  std::vector<uint64_t> suspects_;
  // The round's links near its minimum share.
  std::vector<uint32_t> near_links_;

  // A solve's log. Within a round, freezes ascend in position (the capped
  // sweep and the walk both go in position order), so `froze` lists each
  // round's classes in the order their subtractions were made; `marked`
  // lists each link a round marked once.
  struct Round {
    double share;           // the scan's minimum fair share
    uint32_t anchor;        // a link whose remaining / count was the share
    uint32_t froze_begin;   // the round's first entry in `froze`
    uint32_t marked_begin;  // the round's first entry in `marked`
    bool capped;            // froze capped classes at their caps only
    // A full solve's rounds come in this order: by share, and at one share
    // a capped round before the round that follows it uncapped.
    bool before(const Round& o) const {
      return share < o.share || (share == o.share && capped && !o.capped);
    }
  };
  struct SolveLog {
    std::vector<Round> rounds;
    std::vector<uint32_t> froze;   // class positions in freeze order
    std::vector<uint32_t> marked;  // link ids
    // One past round r's last entry in `froze`, and in `marked`.
    uint32_t froze_end(size_t r) const {
      return r + 1 < rounds.size() ? rounds[r + 1].froze_begin
                                   : static_cast<uint32_t>(froze.size());
    }
    uint32_t marked_end(size_t r) const {
      return r + 1 < rounds.size() ? rounds[r + 1].marked_begin
                                   : static_cast<uint32_t>(marked.size());
    }
    void clear() {
      rounds.clear();
      froze.clear();
      marked.clear();
    }
  };
  // The last solve's log (emptied by a compaction, which renumbers the
  // positions, a capacity change and a solve with no flows), and the one
  // the current solve writes; they swap when the solve ends.
  SolveLog log_;
  SolveLog next_;
  size_t logged_classes_ = 0;  // classes_.size() at the last solve
  // Positions whose member count moved off its logged value since the
  // last solve (a position may repeat).
  std::vector<uint32_t> touched_;
  // The lowest cap among the classes created since the last solve and the
  // classes a replayed round left unfrozen where the log froze them: at a
  // share at or above it, a capped sweep could freeze one the log did not.
  double suspect_cap_floor_ = 0;
  std::vector<std::unique_ptr<Disk>> disks_;
  double last_advance_ = 0;
  struct Wake : sim::Simulator::Step {
    Network* net;
  };
  Wake wake_{{[](sim::Simulator::Step& s) {
                static_cast<Wake&>(s).net->on_wake();
              }},
             this};
  // The wake-up armed last: its event's seq and deadline, and whether it
  // is still to act. A re-arm, or the flow set going empty, leaves the
  // older events queued; each finds that it is not the one armed last.
  uint64_t wake_seq_ = 0;
  bool timer_pending_ = false;
  double timer_deadline_ = 0;
  bool rates_dirty_ = false;
  uint64_t flows_started_ = 0;
  double bytes_moved_ = 0;
  SolverStats sstats_;
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
