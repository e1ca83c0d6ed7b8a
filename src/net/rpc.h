// Service-side RPC modeling.
//
// Services in the reproduction are plain C++ objects (one address space);
// what makes a call "remote" is the modeled cost: a one-way control latency
// to the service's node (Network::control), the service's own processing
// (often a serialized service time, which is what makes centralized servers
// saturate), and the response latency back. Every metadata handler reads
//   co_await svc.request(client); ...body...; co_await svc.reply(client);
// Both halves are awaiters that live in the handler's frame: a reply is one
// delay event, and a request is a chain of Simulator::Steps (the hop, a
// hand-off if it waited for the slot, the slot) that resumes the handler
// at the slot's end. Neither allocates a coroutine frame.
// Bulk payloads travel separately through Network::transfer, as real
// systems separate control and data planes.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>

#include "net/network.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace bs::net {

// A serialized request processor on one node: each request costs
// `service_time` and the server handles one at a time, the others waiting
// in arrival order. Queueing delay under load is what models a saturating
// centralized server (HDFS NameNode, BlobSeer version manager). The slot
// is a busy flag plus a FIFO linked through the waiting requests' awaiters,
// so an idle service costs a few words and a queue of any depth allocates
// nothing.
class Service {
 public:
  // `requests`, when set, counts served requests alongside requests().
  Service(Network& net, NodeId node, double service_time_s,
          obs::Counter* requests = nullptr)
      : net_(net), node_(node), service_time_(service_time_s),
        counter_(requests) {}
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  NodeId node() const { return node_; }

  // One request, awaited where it is made: the hop from the client, a wait
  // for the slot if it is taken or others wait, then `cost` service times
  // in the slot (bulk requests cost more than one). At the slot's end the
  // slot goes to the oldest waiter and the request is counted, just before
  // the caller resumes. A step of zero delay makes no event, and a request
  // that needs none completes without suspending the caller. Its address
  // sits in the FIFO and in pending events, so it neither copies nor moves.
  class [[nodiscard]] Request : sim::Simulator::Step {
   public:
    Request(Service& svc, NodeId client, double cost)
        : Step{nullptr}, svc_(svc), client_(client), cost_(cost) {}
    Request(const Request&) = delete;
    Request& operator=(const Request&) = delete;

    bool await_ready() const noexcept { return false; }
    // Sends the hop (Network::control counts the RPC here, when the caller
    // awaits); false when the request completed without an event.
    bool await_suspend(std::coroutine_handle<> caller) {
      caller_ = caller;
      const sim::Simulator::Delay hop = svc_.net_.control(client_, svc_.node_);
      if (hop.dt > 0) {
        fn = &on_hop;
        svc_.sim().schedule_after(hop.dt, *this);
        return true;
      }
      return !arrive();
    }
    void await_resume() const noexcept {}

   private:
    friend class Service;

    // Each event handler resumes the caller last: the caller's frame, and
    // this awaiter with it, may be gone once it returns.
    static void on_hop(Step& s) {
      auto& r = static_cast<Request&>(s);
      if (r.arrive()) r.caller_.resume();
    }
    static void on_handoff(Step& s) {
      auto& r = static_cast<Request&>(s);
      if (r.serve()) r.caller_.resume();
    }
    static void on_slot(Step& s) {
      auto& r = static_cast<Request&>(s);
      r.svc_.finish();
      r.caller_.resume();
    }

    // At the service: takes the slot if it is free and nobody waits (a
    // free slot with waiters never occurs: a freed slot goes straight to
    // the oldest), else joins the FIFO. True when the request is done.
    bool arrive() {
      if (svc_.busy_) {
        svc_.enqueue(this);
        return false;
      }
      svc_.busy_ = true;
      return serve();
    }
    // Holds the slot for `cost` service times. True when that took no
    // event and the request is done.
    bool serve() {
      const double dt = svc_.service_time_ * cost_;
      if (dt > 0) {
        fn = &on_slot;
        svc_.sim().schedule_after(dt, *this);
        return false;
      }
      svc_.finish();
      return true;
    }

    Service& svc_;
    NodeId client_;
    double cost_;
    std::coroutine_handle<> caller_;
    Request* next_ = nullptr;  // the FIFO link while waiting for the slot
  };

  Request request(NodeId client, double cost = 1.0) {
    return Request(*this, client, cost);
  }

  // The return hop to `client`: the caller awaits the hop itself, so a
  // reply makes one delay event and no coroutine frame.
  sim::Simulator::Delay reply(NodeId client) {
    return net_.control(node_, client);
  }

  uint64_t requests() const { return requests_; }
  // Requests waiting for the slot (the one holding it is not counted).
  size_t queue_depth() const { return waiting_; }

 private:
  sim::Simulator& sim() { return net_.simulator(); }

  void enqueue(Request* r) {
    r->next_ = nullptr;
    (tail_ != nullptr ? tail_->next_ : head_) = r;
    tail_ = r;
    ++waiting_;
  }

  // A request's slot has ended: hand the slot to the oldest waiter (its
  // turn starts at an event now, after every event already queued for
  // now) or free it, then count the request.
  void finish() {
    if (Request* next = head_; next != nullptr) {
      head_ = next->next_;
      if (head_ == nullptr) tail_ = nullptr;
      --waiting_;
      next->fn = &Request::on_handoff;
      sim().schedule_now(*next);
    } else {
      busy_ = false;
    }
    ++requests_;
    if (counter_ != nullptr) counter_->inc();
  }

  Network& net_;
  NodeId node_;
  double service_time_;
  obs::Counter* counter_;
  uint64_t requests_ = 0;
  bool busy_ = false;  // a request holds the slot or was handed it
  Request* head_ = nullptr;
  Request* tail_ = nullptr;
  size_t waiting_ = 0;
};

}  // namespace bs::net
