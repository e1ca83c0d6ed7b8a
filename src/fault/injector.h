// Fault injector — schedules deterministic crash and recovery events on
// the simulator clock.
//
// The injector is deployment-agnostic: it flips the network's ground-truth
// power state and calls per-node hooks, which the wiring helpers bind to
// BlobSeer providers or HDFS datanodes. All randomness (picking victims
// for fractional or rack-correlated failures) flows through the seeded
// Rng, so two runs with the same seeds crash the same nodes at the same
// instants — the property every fault test and bench in this repo asserts.
//
// Supported scenarios:
//   * crash_at / recover_at        — scripted single-node events,
//   * crash_fraction_at            — kill k% of a node set at time t
//                                    (crash-during-write when t lands
//                                    inside a workload),
//   * crash_rack_at                — correlated top-of-rack/PDU failure,
//   * slow_node_at / slow_fraction_at — degradation instead of death: the
//     node's disk, NIC, and CPU run `factor`× slower for the rest of the
//     run (a failing drive, a half-negotiated link). Slow nodes keep
//     heartbeating and keep accepting work, which is precisely the
//     straggler scenario speculative execution exists to beat.
//
// Every injected crash is a disk loss: the victim's provider or DataNode
// drops everything it stored, so a recovered node serves nothing from
// before the crash and only re-replication restores the data (the repair
// services exist for this case). A power loss that keeps the synced data
// is a direct crash_provider / crash_datanode call with wipe_storage
// false. Every crash also bumps the victim's power-loss incarnation at the
// network (net::Network::set_node_up), which is what destroys MapReduce
// local-disk intermediate data held there (mr/shuffle.h,
// LocalDiskShuffleStore). Repair, by contrast, deliberately leaves
// _intermediate/ files alone (fault/repair.h, repair_namespace).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace bs::blob {
class BlobSeerCluster;
}
namespace bs::hdfs {
class Hdfs;
}

namespace bs::fault {

struct FaultInjectorConfig {
  uint64_t seed = 0xfa117;
};

class FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, net::Network& net,
                FaultInjectorConfig cfg = {});

  // How to crash/recover one node. The injector always flips the network
  // ground truth itself; hooks add the service-level state change.
  void set_crash_hook(std::function<void(net::NodeId)> fn) {
    crash_hook_ = std::move(fn);
  }
  void set_recovery_hook(std::function<void(net::NodeId)> fn) {
    recovery_hook_ = std::move(fn);
  }

  // --- scheduling (call before sim.run(); events fire at absolute time t) ---

  void crash_at(net::NodeId node, double t);
  void recover_at(net::NodeId node, double t);

  // Kills ceil(fraction * candidates) distinct nodes at time t; returns the
  // victims (chosen now, deterministically, so callers can assert on them).
  std::vector<net::NodeId> crash_fraction_at(
      const std::vector<net::NodeId>& candidates, double fraction, double t);

  // Kills every candidate in `rack` at time t (correlated rack failure).
  std::vector<net::NodeId> crash_rack_at(
      uint32_t rack, const std::vector<net::NodeId>& candidates, double t);

  // Degrades one node at time t: disk, NIC, and CPU all run `factor`×
  // slower from then on. factor > 1.
  void slow_node_at(net::NodeId node, double factor, double t);

  // Degrades ceil(fraction * candidates) distinct nodes at time t; returns
  // the victims (chosen now, deterministically).
  std::vector<net::NodeId> slow_fraction_at(
      const std::vector<net::NodeId>& candidates, double fraction,
      double factor, double t);

 private:
  sim::Task<void> fire_crash(net::NodeId node, double t);
  sim::Task<void> fire_recovery(net::NodeId node, double t);
  sim::Task<void> fire_perf(net::NodeId node, net::NodePerf perf, double t);
  std::vector<net::NodeId> pick_fraction(
      const std::vector<net::NodeId>& candidates, double fraction);

  sim::Simulator& sim_;
  net::Network& net_;
  FaultInjectorConfig cfg_;
  Rng rng_;
  std::function<void(net::NodeId)> crash_hook_;
  std::function<void(net::NodeId)> recovery_hook_;
  obs::Tracer* tracer_;
  obs::Counter* m_crashes_;
  obs::Counter* m_recoveries_;
  obs::Counter* m_slowdowns_;
};

// Binds the injector's hooks to a deployment's storage services.
void wire_blobseer(FaultInjector& injector, blob::BlobSeerCluster& cluster);
void wire_hdfs(FaultInjector& injector, hdfs::Hdfs& fs);

}  // namespace bs::fault
