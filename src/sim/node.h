#ifndef PEPPER_SIM_NODE_H_
#define PEPPER_SIM_NODE_H_

#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/message.h"
#include "sim/simulator.h"

namespace pepper::sim {

// Base class for a peer process.  Provides fail-stop semantics, alive-guarded
// timers, one-way messaging, and an asynchronous request/response (RPC)
// facility with timeouts — the substrate every protocol layer builds on.
class Node {
 public:
  using ReplyFn = std::function<void(const Message&)>;
  using TimeoutFn = std::function<void()>;

  explicit Node(Simulator* sim);
  virtual ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  bool alive() const { return alive_; }
  Simulator* sim() const { return sim_; }
  SimTime now() const { return sim_->now(); }

  // Fail-stop: the node stops processing messages and timers permanently.
  void Fail();

  // Sends a one-way message.
  void Send(NodeId to, PayloadPtr payload);

  // Sends a request; exactly one of on_reply / on_timeout eventually runs
  // (unless this node fails first, in which case neither does).
  void Call(NodeId to, PayloadPtr payload, ReplyFn on_reply, SimTime timeout,
            TimeoutFn on_timeout);

  // Responds to a request received via a registered handler.
  void Reply(const Message& request, PayloadPtr payload);

  // Registers the handler for payloads of concrete type T.  Handlers live
  // in a table indexed by the dense payload type id, so delivery is one
  // load — last registration wins, same as the old typeid map.  The
  // callable is stored directly (no inner std::function layer): delivery
  // is a single indirect call into the registered lambda.
  template <typename T, typename F>
  void On(F handler) {
    const uint32_t tid = PayloadTypeId<T>();
    if (handlers_.size() <= tid) handlers_.resize(tid + 1);
    handlers_[tid] = [handler = std::move(handler)](const Message& m) {
      handler(m, static_cast<const T&>(*m.payload));
    };
  }

  // Runs fn after the delay unless this node has failed by then.
  void After(SimTime delay, std::function<void()> fn);

  // Periodic timer with a deterministic id; stops on failure or cancel.
  // Backed by the simulator's per-core TimerHeap: the callback is allocated
  // once here and reused for every tick.  The
  // short `label` (a string literal, e.g. "ring.stab"; the simulator
  // interns it by address) names the timer in the simulator's per-label
  // fire counts, `sim.fires.<label>`.
  uint64_t Every(const char* label, SimTime period, std::function<void()> fn,
                 SimTime initial_delay);
  void CancelTimer(uint64_t timer_id);

  // Entry point used by the Network.
  void Deliver(const Message& msg);

 protected:
  // Hook for subclasses; runs once when the node fails.
  virtual void OnFail() {}

 private:
  void CancelAllTimers();

  Simulator* sim_;
  NodeId id_;
  bool alive_ = true;

  uint64_t next_rpc_id_ = 1;
  struct PendingCall {
    uint64_t rpc_id;
    // One-shot timer record for the timeout, unlinked from the timer heap
    // when the reply arrives, so a completed RPC leaves nothing behind to
    // fizzle.
    uint32_t timeout_timer;
    // Callee, so a fired timeout can be charged to the peer that failed to
    // answer (telemetry health signal).  Lives here, not in the timeout
    // closure — the untraced closure must stay within the std::function
    // small-buffer size.
    NodeId to;
    ReplyFn on_reply;
    TimeoutFn on_timeout;
  };
  PendingCall* FindPending(uint64_t rpc_id);
  void ErasePending(PendingCall* call);
  void CancelPendingRpcTimers();
  // Body of the RPC-timeout closure (shared by the traced and
  // untraced capture shapes — the untraced one must stay within the
  // std::function small-buffer size).
  void RpcTimeoutFire(uint64_t rpc_id);
  // Flat: a node rarely has more than a handful of RPCs in flight, and the
  // linear probe beats hashing at that size.
  std::vector<PendingCall> pending_;
  std::vector<std::function<void(const Message&)>> handlers_;  // by type id
  uint64_t next_timer_id_ = 1;
  // timer id -> timer record.  Erasing an entry (cancel / fail /
  // destruction) cancels the record, which leaves the timer heap at once.
  std::unordered_map<uint64_t, uint32_t> active_timers_;
};

}  // namespace pepper::sim

#endif  // PEPPER_SIM_NODE_H_
