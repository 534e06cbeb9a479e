#ifndef PEPPER_DATASTORE_FREE_PEER_POOL_H_
#define PEPPER_DATASTORE_FREE_PEER_POOL_H_

#include <deque>
#include <functional>
#include <optional>

#include "sim/message.h"
#include "sim/simulator.h"

namespace pepper::datastore {

// Registry of free peers (Section 2.3: "free peers are maintained separately
// in the system and do not store any data items").  The paper leaves the
// free-peer directory mechanism unspecified; this pool is the cluster-level
// stand-in.  Splits acquire a free peer here; merged-away peers return.
//
// The pool is cluster-global state, only touched from the simulator's
// control context.  Mutations arriving from protocol code (a node's
// split/merge execution) route through Simulator::Defer — to the next
// window barrier — and protocol-side acquisition uses AcquireAsync, which
// hands the answer back on the requesting node's own execution context.
class FreePeerPool {
 public:
  explicit FreePeerPool(sim::Simulator* sim) : sim_(sim) {}

  void Add(sim::NodeId peer) {
    sim_->Defer([this, peer]() { peers_.push_back(peer); });
  }

  // Called when a merged-away peer departs the ring.  Ring identities are
  // single-use (the paper's system model: a peer that left does not
  // re-enter with the same identifier), so the departed peer is NOT
  // returned to the pool; instead the owner-provided replenisher creates a
  // brand-new free peer, modelling the departed process rejoining under a
  // fresh identity.
  void Retire(sim::NodeId /*peer*/) {
    sim_->Defer([this]() {
      if (replenish_) replenish_();
    });
  }

  void set_replenish(std::function<void()> fn) { replenish_ = std::move(fn); }

  // Scenario harness (FreePeerDrought): while suspended, Acquire answers as
  // if the directory were empty — splits stall with `ds.split_no_free_peer`
  // — without forgetting the queued peers, which become available again the
  // moment the drought lifts.
  void set_suspended(bool suspended) { suspended_ = suspended; }
  bool suspended() const { return suspended_; }

  // Pops the next *alive* free peer, if any.  Control-context callers only
  // (scenario probes, setup); protocol code uses AcquireAsync.
  std::optional<sim::NodeId> Acquire() {
    if (suspended_) return std::nullopt;
    while (!peers_.empty()) {
      sim::NodeId id = peers_.front();
      peers_.pop_front();
      if (sim_->IsAlive(id)) return id;
    }
    return std::nullopt;
  }

  // Acquire from protocol code: pops at the control context, then delivers
  // the answer on `requester`'s execution context (alive-guarded — the
  // popped peer goes back to the front if the requester died in between).
  void AcquireAsync(sim::NodeId requester,
                    std::function<void(std::optional<sim::NodeId>)> cb) {
    sim_->Defer([this, requester, cb = std::move(cb)]() {
      std::optional<sim::NodeId> got = Acquire();
      if (!sim_->IsAlive(requester)) {
        if (got.has_value()) peers_.push_front(*got);
        return;
      }
      sim_->PostToNode(requester,
                       [cb = std::move(cb), got]() { cb(got); });
    });
  }

  size_t size() const { return peers_.size(); }

 private:
  sim::Simulator* sim_;
  std::deque<sim::NodeId> peers_;
  std::function<void()> replenish_;
  bool suspended_ = false;
};

}  // namespace pepper::datastore

#endif  // PEPPER_DATASTORE_FREE_PEER_POOL_H_
