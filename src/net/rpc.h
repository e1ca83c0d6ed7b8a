// Service-side RPC modeling.
//
// Services in the reproduction are plain C++ objects (one address space);
// what makes a call "remote" is the modeled cost: a one-way control latency
// to the service's node (Network::control), the service's own processing
// (often a serialized service time, which is what makes centralized servers
// saturate), and the response latency back. A metadata handler whose whole
// body runs in one slot returns a call,
//   return svc.call(client, [this, id, &path] { ...body...; return out; });
// and its caller awaits it: the hop, a hand-off if it waited for the slot,
// and the slot are Simulator::Steps of an awaiter (Service::Request) that
// lives in the caller's frame; at the slot's end the request is counted,
// the body runs, and the reply hop resumes the caller with the body's
// result. These are the events, in the order, that a handler coroutine
// reading `co_await svc.request(client); ...body...; co_await
// svc.reply(client);` makes, without its coroutine frame. Two rules:
//   * Await a call where it is made, in the same full-expression: its
//     address sits in the FIFO and in pending events, so it never moves,
//     and the caller's temporaries it refers to live only that long.
//   * Keep a `const&` argument alive across the await, as a coroutine
//     parameter had to be: the body captures it by reference. Everything
//     else the body captures by value (the handler's own parameters are
//     gone once it returns the call), and its captures are pointers,
//     references and scalars: it is stored inline and never destroyed.
// The body runs inside an event, not a coroutine: it cannot suspend, and
// it must not throw (BS_CHECK aborts the simulation instead).
// Handlers that span more than one slot, or whose callers need a
// sim::Task, stay coroutines around request() and reply():
//   * NamespaceManager::rename visits two shards' slots in turn when the
//     source and target hash to different shards;
//   * NamespaceManager::list fans one round trip out to every shard under
//     when_all, which takes Tasks;
//   * VersionManager::wait_published hops, then waits on the publish
//     condition without holding a slot;
//   * Dht::put_one runs under when_all for a replicated put;
//   * Dht::erase visits each replica's slot in turn.
// Bulk payloads travel separately through Network::transfer, as real
// systems separate control and data planes.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

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
        : Request(svc, client, cost, nullptr) {}
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
      return !arrive() || served();
    }
    void await_resume() const noexcept {}

   protected:
    // `at_end`, when set, runs where the request would resume its caller;
    // it returns true when it scheduled an event that resumes the caller
    // later, false when the caller resumes now.
    Request(Service& svc, NodeId client, double cost,
            bool (*at_end)(Request&))
        : Step{nullptr}, svc_(svc), cost_(cost), at_end_(at_end),
          client_(client) {}

    // The reply hop to the client. True when it scheduled the event that
    // resumes the caller, false when it took no time.
    bool send_reply() {
      const sim::Simulator::Delay hop = svc_.reply(client_);
      if (hop.dt <= 0) return false;
      fn = &on_reply;
      svc_.sim().schedule_after(hop.dt, *this);
      return true;
    }

   private:
    friend class Service;

    // Each event handler resumes the caller last: the caller's frame, and
    // this awaiter with it, may be gone once it returns.
    static void on_hop(Step& s) {
      auto& r = static_cast<Request&>(s);
      if (r.arrive()) r.end();
    }
    static void on_handoff(Step& s) {
      auto& r = static_cast<Request&>(s);
      if (r.serve()) r.end();
    }
    static void on_slot(Step& s) {
      auto& r = static_cast<Request&>(s);
      r.svc_.finish();
      r.end();
    }
    static void on_reply(Step& s) { static_cast<Request&>(s).caller_.resume(); }

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
    // The request is done and counted: runs the end hook. True when the
    // caller waits for a later event.
    bool served() { return at_end_ != nullptr && at_end_(*this); }
    void end() {
      if (!served()) caller_.resume();
    }

    Service& svc_;
    double cost_;
    bool (*at_end_)(Request&);
    std::coroutine_handle<> caller_;
    Request* next_ = nullptr;  // the FIFO link while waiting for the slot
    NodeId client_;            // last: a Call keeps a flag in the padding
  };

  // A whole handler as one awaiter: a Request whose slot end runs `body`
  // and sends the reply hop, and whose await resumes with the body's
  // result (see the header comment for the rules a body keeps). The body
  // runs exactly once; it is stored inline, and its result takes its
  // place once it has run, so a call allocates nothing and holds one of
  // the two at a time.
  template <typename R>
  class [[nodiscard]] Call : public Request {
    using Stored = std::conditional_t<std::is_void_v<R>, char, R>;

   public:
    template <typename Body>
    Call(Service& svc, NodeId client, double cost, Body body)
        : Request(svc, client, cost, &run<Body>) {
      static_assert(sizeof(Body) <= kBodyBytes &&
                        alignof(Body) <= alignof(void*),
                    "a call body captures at most six words");
      static_assert(std::is_trivially_destructible_v<Body>,
                    "a call body captures pointers, references and scalars");
      ::new (static_cast<void*>(storage_)) Body(std::move(body));
    }
    ~Call() {
      if (has_result_) result().~Stored();
    }

    R await_resume() {
      if constexpr (std::is_void_v<R>) {
        return;
      } else {
        return std::move(result());
      }
    }

   private:
    static constexpr size_t kBodyBytes = 6 * sizeof(void*);

    template <typename Body>
    static bool run(Request& r) {
      auto& c = static_cast<Call&>(r);
      Body& body = *std::launder(reinterpret_cast<Body*>(c.storage_));
      if constexpr (std::is_void_v<R>) {
        body();
      } else {
        // The body is done with its captures once it returns; only then
        // may its result overwrite them.
        R result = body();
        ::new (static_cast<void*>(c.storage_)) R(std::move(result));
        c.has_result_ = true;
      }
      return c.send_reply();
    }
    Stored& result() { return *std::launder(reinterpret_cast<Stored*>(storage_)); }

    bool has_result_ = false;
    alignas(void*) alignas(Stored) unsigned char
        storage_[std::max(kBodyBytes, sizeof(Stored))];
  };

  Request request(NodeId client, double cost = 1.0) {
    return Request(*this, client, cost);
  }

  // One request whose slot end runs `body` (a callable taking no
  // arguments) and then sends the reply: awaiting it resumes the caller
  // with the body's result after the reply hop.
  template <typename Body>
  Call<std::invoke_result_t<Body&>> call(NodeId client, Body body) {
    return call(client, 1.0, std::move(body));
  }
  template <typename Body>
  Call<std::invoke_result_t<Body&>> call(NodeId client, double cost,
                                         Body body) {
    return Call<std::invoke_result_t<Body&>>(*this, client, cost,
                                             std::move(body));
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
