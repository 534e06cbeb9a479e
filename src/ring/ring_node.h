#ifndef PEPPER_RING_RING_NODE_H_
#define PEPPER_RING_RING_NODE_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/key_space.h"
#include "common/stats.h"
#include "common/status.h"
#include "ring/ring_messages.h"
#include "ring/succ_list.h"
#include "sim/component.h"

namespace pepper::ring {

struct RingOptions {
  // d — successor list window (fault tolerance parameter).  Paper default 4.
  size_t succ_list_length = 4;
  // Ring stabilization period.  Paper default 4 s.
  sim::SimTime stabilization_period = 4 * sim::kSecond;
  // Successor ping (failure detection) period.
  sim::SimTime ping_period = 2 * sim::kSecond;
  // Request/response timeouts.
  sim::SimTime rpc_timeout = 250 * sim::kMillisecond;
  sim::SimTime ping_timeout = 100 * sim::kMillisecond;
  // Give up on an insert / leave if the acknowledgement never arrives
  // (predecessors failed); the operation completes with a timeout status.
  sim::SimTime insert_ack_timeout = 60 * sim::kSecond;
  sim::SimTime leave_ack_timeout = 60 * sim::kSecond;
  // Predecessor liveness TTL: a predecessor hint older than this may be
  // displaced by a farther claimant (repair after predecessor failure).
  sim::SimTime pred_ttl = 12 * sim::kSecond;

  // PEPPER consistent insert (Section 4.3.1) vs naive insert.
  bool pepper_insert = true;
  // PEPPER consistent leave (Section 5.1) vs naive leave.
  bool pepper_leave = true;
  // Section 4.3.1 optimization: proactively trigger predecessor
  // stabilization while an insert/leave is in flight.
  bool proactive_stabilize = true;

  MetricsHub* metrics = nullptr;  // optional, not owned
};

// The PEPPER Fault Tolerant Ring (Figure 1 bottom layer).  Implements the
// paper's ring API — initRing, insertSucc, leave, getSucc — with the
// consistent-successor-pointer insert protocol of Section 4.3.1, the
// consistent leave of Section 5.1, Chord-style stabilization and ping-based
// failure detection, plus the naive variants used as the evaluation
// baselines.  Higher layers (Data Store, Replication Manager) attach through
// the event hooks, mirroring the events of the framework (INFOFORSUCC,
// INFOFROMPRED, NEWSUCC, INSERT/INSERTED, LEAVE).
//
// The ring is the bottom-most ProtocolComponent of a peer: it creates and
// owns the peer's host sim::Node, which the upper-layer components (data
// store engines, replication, router, index) share via node().
class RingNode : public sim::ProtocolComponent {
 public:
  using DoneFn = std::function<void(const Status&)>;
  // Collects inserter-side data for a peer being inserted as our successor
  // (the framework's INSERT event).
  using JoinDataProvider =
      std::function<sim::PayloadPtr(sim::NodeId peer, Key val)>;
  // Data to ship to a successor on first stabilization contact
  // (INFOFORSUCCEVENT).
  using InfoForSuccProvider =
      std::function<sim::PayloadPtr(sim::NodeId succ, Key succ_val)>;
  // Predecessor changed / sent piggyback data (INFOFROMPREDEVENT).
  using PredChangedFn =
      std::function<void(sim::NodeId pred, Key pred_val, sim::PayloadPtr info)>;
  // First stabilized successor changed (NEWSUCCEVENT).
  using NewSuccessorFn = std::function<void(sim::NodeId succ, Key succ_val)>;
  // A believed successor stopped answering pings and was dropped from the
  // list (crash suspicion; graceful departures are not reported).  Fired
  // after the list is repaired, so handlers observing getSucc see the new
  // chain.  The replication layer uses it to re-push along the repaired
  // chain immediately.
  using SuccessorFailedFn = std::function<void(sim::NodeId succ, Key succ_val)>;
  // Fired at the joining peer once it transitions to JOINED (INSERTED
  // event); `data` / `inserter_data` are the payloads from JoinPeerMsg.
  using JoinedFn = std::function<void(sim::NodeId pred, Key pred_val,
                                      sim::PayloadPtr data,
                                      sim::PayloadPtr inserter_data)>;

  RingNode(sim::Simulator* sim, Key val, RingOptions options);

  // --- Ring API -----------------------------------------------------------

  // Makes this peer the first (and only) member of a new ring.
  void InitRing();

  // Inserts `peer` (a FREE peer whose ring value is `peer_val`) as this
  // peer's immediate successor.  `join_data` is handed to the joining peer
  // (Data Store split payload).  `done` fires when the insert completes
  // (PEPPER: after every relevant predecessor learned about the peer and the
  // peer confirmed; naive: after one round trip).
  void InsertSucc(sim::NodeId peer, Key peer_val, sim::PayloadPtr join_data,
                  DoneFn done);

  // Consistent (or naive) leave.  After `done(OK)` the caller may transfer
  // state and then call Depart().
  void Leave(DoneFn done);

  // Actually exits the ring (fail-stop for protocol purposes; the node
  // object survives and can be re-inserted later as a free peer).
  void Depart();

  // First JOINED *and stabilized* successor — the paper's getSucc.  Returns
  // nullopt until stabilization with the successor completed (callers wait
  // and retry; this is what shields scans from half-inserted peers).  For a
  // single-peer ring returns the peer itself.
  std::optional<SuccEntry> GetSucc() const;

  // First JOINED successor regardless of the stabilized flag — the weaker
  // semantics the naive baselines use.
  std::optional<SuccEntry> GetSuccRelaxed() const;

  // Triggers an immediate stabilization round.
  void StabilizeNow();

  // Fail-stop crash of the whole peer process (every component sharing the
  // host node stops processing messages and timers permanently).
  void Fail() { node()->Fail(); }

  // --- Observers ----------------------------------------------------------

  Key val() const { return val_; }
  // The peer's ring value may grow during a Data Store redistribute.
  void set_val(Key v) { val_ = v; }
  PeerState state() const { return state_; }
  const SuccList& succ_list() const { return succ_list_; }
  bool has_pred() const { return pred_id_ != sim::kNullNode; }
  sim::NodeId pred_id() const { return pred_id_; }
  Key pred_val() const { return pred_val_; }
  const RingOptions& options() const { return options_; }

  // --- Event wiring -------------------------------------------------------

  void set_collect_join_data(JoinDataProvider fn) {
    collect_join_data_ = std::move(fn);
  }
  void set_info_for_succ(InfoForSuccProvider fn) {
    info_for_succ_ = std::move(fn);
  }
  // INFOFROMPRED, NEWSUCC and successor-failed are multi-subscriber: the
  // Data Store and replication layer take the predecessor's data, the
  // content router re-routes the lookups it holds, the replication layer
  // re-pushes along a repaired chain and the HRF router snaps its refresh
  // cadence back to the base period.  Subscribers fire in registration
  // order; they must outlive the ring's last activity (the
  // ProtocolComponent lifetime contract).
  void add_on_pred_changed(PredChangedFn fn) {
    on_pred_changed_.push_back(std::move(fn));
  }
  void add_on_new_successor(NewSuccessorFn fn) {
    on_new_successor_.push_back(std::move(fn));
  }
  void add_on_successor_failed(SuccessorFailedFn fn) {
    on_successor_failed_.push_back(std::move(fn));
  }
  void set_on_joined(JoinedFn fn) { on_joined_ = std::move(fn); }

 private:
  void RegisterHandlers();
  void StartTimers();
  void BecomeJoined();

  void RunStabilization();
  void HandleStabRequest(const sim::Message& msg, const StabRequest& req);
  void ApplyStabResponse(const SuccEntry& target, const StabResponse& resp);
  void HandleJoinAck(const sim::Message& msg, const JoinAckMsg& ack);
  void HandleLeaveAck(const sim::Message& msg, const LeaveAckMsg& ack);
  void HandleJoinPeer(const sim::Message& msg, const JoinPeerMsg& join);
  void HandlePing(const sim::Message& msg, const PingRequest& ping);
  void HandleTriggerStab(const sim::Message& msg, const TriggerStab& trig);

  void CompleteInsert();
  void AbortInsert(const Status& status);
  void RunPing();
  // Ping-verified adoption of a successor's predecessor hint (a peer our
  // successor pointer skipped); shared by the ping-reply and stab-response
  // rectify paths.
  void MaybeAdoptPredHint(sim::NodeId hinted, Key hinted_val, Key upper_val);
  void MaybeRaiseNewSucc();
  void MaybeUpdatePred(sim::NodeId sender, Key sender_val,
                       sim::PayloadPtr info);
  void AcceptPred(sim::NodeId sender, Key sender_val, sim::PayloadPtr info);

  Key val_;
  RingOptions options_;
  PeerState state_ = PeerState::kFree;
  SuccList succ_list_;

  JoinDataProvider collect_join_data_;
  InfoForSuccProvider info_for_succ_;
  std::vector<PredChangedFn> on_pred_changed_;
  std::vector<NewSuccessorFn> on_new_successor_;
  std::vector<SuccessorFailedFn> on_successor_failed_;
  JoinedFn on_joined_;

  sim::NodeId pred_id_ = sim::kNullNode;
  Key pred_val_ = 0;
  sim::SimTime last_pred_contact_ = 0;
  // A farther-back predecessor claim awaiting liveness verification of the
  // current predecessor.
  struct PredCandidate {
    sim::NodeId id = sim::kNullNode;
    Key val = 0;
    sim::PayloadPtr info;
  };
  std::optional<PredCandidate> pred_candidate_;
  bool verifying_pred_ = false;

  struct PendingInsert {
    sim::NodeId peer;
    Key val;
    sim::PayloadPtr join_data;
    DoneFn done;
    sim::SimTime started;
    uint64_t epoch;
    // Span over the whole handshake: ack propagation, JoinPeer round trip,
    // completion or abort.
    trace::OpToken op;
  };
  std::optional<PendingInsert> pending_insert_;

  struct PendingLeave {
    DoneFn done;
    sim::SimTime started;
    uint64_t epoch;
    trace::OpToken op;
  };
  std::optional<PendingLeave> pending_leave_;

  bool stabilizing_ = false;
  bool pinging_ = false;
  bool rectifying_ = false;
  uint64_t stab_timer_ = 0;
  uint64_t ping_timer_ = 0;
  bool timers_started_ = false;
  sim::NodeId last_new_succ_ = sim::kNullNode;
  uint64_t op_epoch_ = 0;  // guards stale timeouts
};

}  // namespace pepper::ring

#endif  // PEPPER_RING_RING_NODE_H_
