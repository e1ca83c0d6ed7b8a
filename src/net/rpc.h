// Service-side RPC modeling.
//
// Services in the reproduction are plain C++ objects (one address space);
// what makes a call "remote" is the modeled cost: a one-way control latency
// to the service's node (Network::control), the service's own processing
// (often a serialized service time, which is what makes centralized servers
// saturate), and the response latency back. Every metadata handler reads
//   co_await svc.request(client); ...body...; co_await svc.reply(client);
// Bulk payloads travel separately through Network::transfer, as real
// systems separate control and data planes.
#pragma once

#include "net/network.h"
#include "obs/metrics.h"
#include "sim/task.h"

namespace bs::net {

// A serialized request processor on one node: each request costs
// `service_time` and the server handles one at a time. Queueing delay under
// load is what models a saturating centralized server (HDFS NameNode,
// BlobSeer version manager).
class Service {
 public:
  // `requests`, when set, counts served requests alongside requests().
  Service(Network& net, NodeId node, double service_time_s,
          obs::Counter* requests = nullptr)
      : net_(net), node_(node), gate_(net.simulator(), 1),
        service_time_(service_time_s), counter_(requests) {}

  NodeId node() const { return node_; }

  // The request hop from `client`, then one serialized service slot of
  // `cost` service times (bulk requests cost more than one).
  sim::Task<void> request(NodeId client, double cost = 1.0) {
    co_await net_.control(client, node_);
    co_await gate_.acquire();
    co_await net_.simulator().delay(service_time_ * cost);
    gate_.release();
    ++requests_;
    if (counter_ != nullptr) counter_->inc();
  }

  // The return hop to `client`: the caller awaits the hop itself, so a
  // reply makes one delay event and no coroutine frame.
  sim::Simulator::Delay reply(NodeId client) {
    return net_.control(node_, client);
  }

  uint64_t requests() const { return requests_; }
  size_t queue_depth() const { return gate_.waiting(); }

 private:
  Network& net_;
  NodeId node_;
  sim::Semaphore gate_;
  double service_time_;
  obs::Counter* counter_;
  uint64_t requests_ = 0;
};

}  // namespace bs::net
