// Service-side RPC modeling.
//
// Services in the reproduction are plain C++ objects (one address space);
// what makes a call "remote" is the modeled cost: a one-way control latency
// to the service's node (Network::control), the service's own processing
// (often a serialized service time, which is what makes centralized servers
// saturate), and the response latency back. Each service spells out those
// hops around its ServiceQueue. Bulk payloads travel separately through
// Network::transfer, as real systems separate control and data planes.
#pragma once

#include "net/network.h"
#include "sim/task.h"

namespace bs::net {

// A serialized request processor: each request costs `service_time` and the
// server handles one at a time. Queueing delay under load is what models a
// saturating centralized server (HDFS NameNode, BlobSeer version manager).
class ServiceQueue {
 public:
  ServiceQueue(sim::Simulator& sim, double service_time_s)
      : sim_(sim), gate_(sim, 1), service_time_(service_time_s) {}

  sim::Task<void> process(double cost_multiplier = 1.0) {
    co_await gate_.acquire();
    co_await sim_.delay(service_time_ * cost_multiplier);
    gate_.release();
    ++requests_;
  }

  uint64_t requests() const { return requests_; }
  size_t queue_depth() const { return gate_.waiting(); }

 private:
  sim::Simulator& sim_;
  sim::Semaphore gate_;
  double service_time_;
  uint64_t requests_ = 0;
};

}  // namespace bs::net
