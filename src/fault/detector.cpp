#include "fault/detector.h"

#include "common/assert.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bs::fault {

FailureDetector::FailureDetector(sim::Simulator& sim, net::Network& net,
                                 std::vector<net::NodeId> monitored,
                                 FailureDetectorConfig cfg)
    : sim_(sim), net_(net), cfg_(cfg), monitored_(std::move(monitored)) {
  BS_CHECK_MSG(!monitored_.empty(), "nothing to monitor");
  for (net::NodeId n : monitored_) {
    states_[n] = NodeState{sim_.now(), true};
  }
  obs::MetricsRegistry& m = sim_.metrics();
  tracer_ = &sim_.tracer();
  m_deaths_ = &m.counter("fault/deaths_detected");
  m_recoveries_ = &m.counter("fault/recoveries_detected");
  m_heartbeats_ = &m.counter("fault/heartbeats");
  m_believed_dead_ = &m.gauge("fault/nodes_believed_dead");
}

void FailureDetector::start() {
  // Fresh leases from now: without this, starting the detector after the
  // simulation has already advanced (e.g. post-staging) would make the
  // first sweep declare every node dead on its stale construction-time
  // timestamp.
  for (net::NodeId n : monitored_) states_[n].last_beat = sim_.now();
  running_ = true;
  // A new loop generation each start(): loops from before a stop() may
  // still be pending in the event queue and exit on the generation check,
  // so a stop()/start() cycle never leaves the detector frozen or doubled.
  const uint64_t gen = ++generation_;
  for (net::NodeId n : monitored_) sim_.spawn(heartbeat_loop(n, gen));
  sim_.spawn(sweep_loop(gen));
}

bool FailureDetector::is_up(net::NodeId node) const {
  auto it = states_.find(node);
  // Unmonitored nodes (masters, metadata-only nodes) are assumed up.
  return it == states_.end() || it->second.believed_up;
}

std::vector<net::NodeId> FailureDetector::dead_nodes() const {
  std::vector<net::NodeId> out;
  for (net::NodeId n : monitored_) {
    if (!states_.at(n).believed_up) out.push_back(n);
  }
  return out;
}

sim::Task<void> FailureDetector::heartbeat_loop(net::NodeId node,
                                                uint64_t generation) {
  // Stagger beats so hundreds of nodes don't poll in lockstep.
  const double phase =
      cfg_.heartbeat_s * static_cast<double>(node % 37) / 37.0;
  co_await sim_.delay(phase);
  while (running_ && generation == generation_) {
    // A powered-off node sends nothing (its loop keeps ticking so beats
    // resume the moment the fault injector brings it back). The beat
    // itself can be lost: try_control drops it if the detector's own host
    // is down when it would arrive.
    if (net_.node_up(node)) {
      const bool delivered = co_await net_.try_control(node, cfg_.node);
      if (delivered) {
        states_[node].last_beat = sim_.now();
        m_heartbeats_->inc();
      }
    }
    co_await sim_.delay(cfg_.heartbeat_s);
  }
}

sim::Task<void> FailureDetector::sweep_loop(uint64_t generation) {
  while (running_ && generation == generation_) {
    co_await sim_.delay(cfg_.sweep_interval_s);
    for (net::NodeId n : monitored_) {
      NodeState& st = states_[n];
      const bool lease_ok = sim_.now() - st.last_beat <= cfg_.timeout_s;
      if (st.believed_up && !lease_ok) {
        st.believed_up = false;
        ++deaths_detected_;
        m_deaths_->inc();
        m_believed_dead_->add(1);
        if (tracer_->enabled()) {
          tracer_->instant("fault", "fault", n, "detected_dead");
        }
      } else if (!st.believed_up && lease_ok) {
        st.believed_up = true;
        ++recoveries_detected_;
        m_recoveries_->inc();
        m_believed_dead_->add(-1);
        if (tracer_->enabled()) {
          tracer_->instant("fault", "fault", n, "detected_up");
        }
      }
    }
  }
}

}  // namespace bs::fault
