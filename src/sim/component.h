#ifndef PEPPER_SIM_COMPONENT_H_
#define PEPPER_SIM_COMPONENT_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/node.h"

namespace pepper::sim {

// Base for every protocol layer of a peer.  A peer process is one sim::Node
// (one identity, one mailbox, fail-stop as a unit); its protocols — ring
// maintenance, data store engines, replication, routing, indexing — are
// ProtocolComponents stacked on that shared node.  The base gives each layer
// uniform handler registration, alive-guarded timers and scoped RPC helpers,
// so a peer is a composition of components rather than one god object.
//
// The bottom-most component of a peer (the ring layer) constructs with a
// Simulator* and owns the host node; every other layer attaches to an
// existing host via its Node*.  Handler registration is by payload type and
// last-registration-wins on the shared node, so each message type must be
// owned by exactly one component of a peer.
//
// Timers started through Every() are owned by the component: they are
// cancelled when the component is destroyed, even if the host node lives on.
// One-shot After() callbacks and On<> handler registrations are NOT undone
// on destruction — they capture the component and may fire later.  The
// lifetime contract is therefore: a component must outlive its host node's
// last activity, i.e. components are torn down together with (or after
// failing) their peer, never swapped out mid-run.  Peer recomposition
// happens by building a new stack, not by replacing live components.
class ProtocolComponent {
 public:
  // Attaches to an existing host node (not owned).
  explicit ProtocolComponent(Node* host);
  // Creates and owns a fresh host node on `sim` (the peer's bottom layer).
  explicit ProtocolComponent(Simulator* sim);
  virtual ~ProtocolComponent();

  ProtocolComponent(const ProtocolComponent&) = delete;
  ProtocolComponent& operator=(const ProtocolComponent&) = delete;

  Node* node() const { return node_; }
  Simulator* sim() const { return node_->sim(); }
  NodeId id() const { return node_->id(); }
  SimTime now() const { return node_->now(); }
  bool alive() const { return node_->alive(); }

 protected:
  // Registers this component as the handler for payloads of type T arriving
  // at the shared node.
  template <typename T, typename F>
  void On(F handler) {
    node_->On<T>(std::move(handler));
  }

  // One-way message / RPC / reply, sent as the shared peer identity.
  void Send(NodeId to, PayloadPtr payload) {
    node_->Send(to, std::move(payload));
  }
  void Call(NodeId to, PayloadPtr payload, Node::ReplyFn on_reply,
            SimTime timeout, Node::TimeoutFn on_timeout) {
    node_->Call(to, std::move(payload), std::move(on_reply), timeout,
                std::move(on_timeout));
  }
  void Reply(const Message& request, PayloadPtr payload) {
    node_->Reply(request, std::move(payload));
  }

  // Alive-guarded one-shot timer: fn is skipped if the peer fails first.
  void After(SimTime delay, std::function<void()> fn) {
    node_->After(delay, std::move(fn));
  }

  // Alive-guarded periodic timer, owned by this component (auto-cancelled on
  // component destruction); `label` as in Node::Every.
  uint64_t Every(const char* label, SimTime period, std::function<void()> fn,
                 SimTime initial_delay);
  void CancelTimer(uint64_t timer_id);

  // Deterministic per-peer phase in [0, period] so peers sharing a period do
  // not tick in lockstep.
  SimTime RandomPhase(SimTime period);

  // --- Causal tracing (see trace/tracer.h) --------------------------------
  // Opens an operation span on this peer: a child of the active trace when
  // one is flowing through the current event, otherwise a sampled new root.
  // The token is captured by value into the completion path and handed back
  // to TraceFinish; all three are no-ops while tracing is disabled.
  trace::OpToken TraceOp(const char* name, uint64_t tag = 0) {
    return sim()->tracer().StartOp(id(), now(), name, tag);
  }
  void TraceFinish(const trace::OpToken& op) {
    sim()->tracer().FinishOp(op, now());
  }
  void TraceMark(const char* name, uint64_t tag = 0) {
    sim()->tracer().Mark(id(), now(), name, tag);
  }

 private:
  std::unique_ptr<Node> owned_node_;  // only set for the bottom layer
  Node* node_;
  std::vector<uint64_t> timers_;
};

}  // namespace pepper::sim

#endif  // PEPPER_SIM_COMPONENT_H_
