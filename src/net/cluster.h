// Cluster topology and configuration.
//
// Models a Grid'5000-style cluster: racks of commodity nodes, 1 GbE NICs,
// top-of-rack switches with uplinks into a non-blocking core, one local
// disk per node. Defaults follow the paper's setup (270 nodes; the
// microbenchmarks deploy the storage system on all nodes and run 1–250
// co-located clients).
#pragma once

#include <cstdint>

namespace bs::net {

using NodeId = uint32_t;

struct ClusterConfig {
  uint32_t num_nodes = 270;
  uint32_t nodes_per_rack = 30;

  // Link capacities in bytes/sec. 1 GbE NIC ~ 119 MiB/s of goodput.
  double nic_bps = 119.0 * 1024 * 1024;
  // Top-of-rack uplink into the core (20 Gb/s), shared by the rack.
  double rack_uplink_bps = 20.0 / 8 * 1e9;
  // Loopback "transfer" rate for src == dst (memory copy).
  double loopback_bps = 2.0e9;

  // One-way latency of small control messages (RPC request or response).
  double control_latency_s = 200e-6;

  // How long a caller waits on an RPC to a dead node before giving up
  // (connection timeout). Paid once per failed attempt; the failure story's
  // degraded-read latency between a crash and its detection comes from here.
  double rpc_timeout_s = 1.0;

  // Cap applied to every individual flow (0 = none). Models the per-TCP-
  // stream ceiling of the era's stacks (checksumming, copies, window
  // tuning): one stream cannot fill a NIC even when the path is idle.
  // Parallel streams (BlobSeer's striped page fetches) can.
  double per_stream_cap_bps = 0;

  // Local-disk model: sequential bandwidth plus per-request positioning
  // overhead (2009-era SATA drives).
  double disk_read_bps = 85.0 * 1024 * 1024;
  double disk_write_bps = 70.0 * 1024 * 1024;
  double disk_seek_s = 2e-3;

  uint32_t num_racks() const {
    return (num_nodes + nodes_per_rack - 1) / nodes_per_rack;
  }
  uint32_t rack_of(NodeId n) const { return n / nodes_per_rack; }
  bool same_rack(NodeId a, NodeId b) const { return rack_of(a) == rack_of(b); }
};

}  // namespace bs::net
