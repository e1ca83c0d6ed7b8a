// Heartbeat/lease failure detector.
//
// Every monitored node runs a heartbeat loop (staggered, like the MR
// tasktracker heartbeats in src/mr/cluster.cpp) that sends a control
// message to the detector's host node; a crashed node simply stops
// beating. A sweep loop on the detector marks a node dead once its lease
// (`timeout_s` since the last beat) expires, and alive again when beats
// resume after recovery.
//
// The detector's *view* (LivenessView) is what placement and clients
// consult — deliberately distinct from the network's ground truth, so the
// window between a crash and its detection produces realistic timed-out
// RPCs and read failovers. is_up() itself is free: in a real deployment
// the view is pushed to clients piggybacked on responses; queries don't
// cost a round trip.
//
// Loops are driven by the simulator clock and keep the event queue
// non-empty, so call stop() (or bound the run with run_until) before
// draining a simulation to completion.
#pragma once

#include <cstdint>
#include <vector>

#include "common/container.h"
#include "net/liveness.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace bs::fault {

struct FailureDetectorConfig {
  net::NodeId node = 0;         // node hosting the detector service
  double heartbeat_s = 0.5;     // per-node beat period
  double timeout_s = 2.0;       // lease: marked dead after this much silence
  double sweep_interval_s = 0.25;
};

class FailureDetector final : public net::LivenessView {
 public:
  FailureDetector(sim::Simulator& sim, net::Network& net,
                  std::vector<net::NodeId> monitored,
                  FailureDetectorConfig cfg = {});

  // Spawns the heartbeat + sweep loops (restartable: calling start() again
  // after stop() re-arms the leases and spawns a fresh generation of
  // loops; stale ones exit at their next wake-up).
  void start();
  // Stops all loops at their next wake-up, letting the simulation drain.
  void stop() { running_ = false; }
  bool running() const { return running_; }

  // Detected state (lags ground truth by up to timeout_s + sweep interval).
  bool is_up(net::NodeId node) const override;
  std::vector<net::NodeId> dead_nodes() const;

  // --- introspection ---
  uint64_t deaths_detected() const { return deaths_detected_; }
  uint64_t recoveries_detected() const { return recoveries_detected_; }

 private:
  struct NodeState {
    double last_beat = 0;
    bool believed_up = true;
  };

  sim::Task<void> heartbeat_loop(net::NodeId node, uint64_t generation);
  sim::Task<void> sweep_loop(uint64_t generation);

  sim::Simulator& sim_;
  net::Network& net_;
  FailureDetectorConfig cfg_;
  std::vector<net::NodeId> monitored_;
  bs::unordered_map<net::NodeId, NodeState> states_;
  bool running_ = false;
  uint64_t generation_ = 0;
  uint64_t deaths_detected_ = 0;
  uint64_t recoveries_detected_ = 0;
  obs::Tracer* tracer_;
  obs::Counter* m_deaths_;
  obs::Counter* m_recoveries_;
  obs::Counter* m_heartbeats_;
  obs::Gauge* m_believed_dead_;
};

}  // namespace bs::fault
