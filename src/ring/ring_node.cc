#include "ring/ring_node.h"

#include <utility>

#include <cstdio>
#include <cstdlib>

#include "common/logging.h"

namespace pepper::ring {

RingNode::RingNode(sim::Simulator* sim, Key val, RingOptions options)
    : sim::ProtocolComponent(sim), val_(val), options_(std::move(options)) {
  RegisterHandlers();
}

void RingNode::RegisterHandlers() {
  On<StabRequest>([this](const sim::Message& m, const StabRequest& req) {
    HandleStabRequest(m, req);
  });
  On<JoinAckMsg>([this](const sim::Message& m, const JoinAckMsg& ack) {
    HandleJoinAck(m, ack);
  });
  On<LeaveAckMsg>([this](const sim::Message& m, const LeaveAckMsg& ack) {
    HandleLeaveAck(m, ack);
  });
  On<JoinPeerMsg>([this](const sim::Message& m, const JoinPeerMsg& join) {
    HandleJoinPeer(m, join);
  });
  On<PingRequest>([this](const sim::Message& m, const PingRequest& ping) {
    HandlePing(m, ping);
  });
  On<TriggerStab>([this](const sim::Message& m, const TriggerStab& trig) {
    HandleTriggerStab(m, trig);
  });
}

void RingNode::StartTimers() {
  if (timers_started_) return;
  timers_started_ = true;
  // Deterministic per-node phase offset so peers do not stabilize in
  // lockstep.
  const sim::SimTime stab_phase = RandomPhase(options_.stabilization_period);
  const sim::SimTime ping_phase = RandomPhase(options_.ping_period);
  stab_timer_ = Every(
      "ring.stab", options_.stabilization_period,
      [this]() { RunStabilization(); }, stab_phase);
  ping_timer_ = Every("ring.ping", options_.ping_period,
                      [this]() { RunPing(); }, ping_phase);
}

void RingNode::BecomeJoined() {
  state_ = PeerState::kJoined;
  StartTimers();
}

// --- Ring API --------------------------------------------------------------

void RingNode::InitRing() {
  PEPPER_CHECK(state_ == PeerState::kFree);
  succ_list_ = SuccList();
  pred_id_ = sim::kNullNode;
  BecomeJoined();
}

void RingNode::InsertSucc(sim::NodeId peer, Key peer_val,
                          sim::PayloadPtr join_data, DoneFn done) {
  if (state_ != PeerState::kJoined) {
    // Algorithm 9 lines 1-4: a peer already inserting (or leaving) aborts;
    // the caller retries later.
    done(Status::FailedPrecondition("inserter busy"));
    return;
  }
  if (peer == id() || succ_list_.Contains(peer)) {
    // Re-inserting a peer we already point at would corrupt the list (a
    // retried insert whose first attempt actually went through).
    done(Status::AlreadyExists("peer already a successor"));
    return;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->counters().Inc("ring.inserts_started");
  }
  state_ = PeerState::kInserting;
  succ_list_.PushFront(
      SuccEntry{peer, peer_val, PeerState::kJoining, false});
  pending_insert_ = PendingInsert{peer,  peer_val, std::move(join_data),
                                  std::move(done), now(), ++op_epoch_,
                                  TraceOp("ring.insert", peer_val)};

  if (!options_.pepper_insert || succ_list_.JoinedCount() == 0) {
    // Naive insert completes after a single round trip; a lone peer has no
    // predecessors to inform, so consistency holds trivially.
    CompleteInsert();
    return;
  }

  // PEPPER insert: wait for the join acknowledgement to propagate back
  // through the predecessors (Section 4.3.1).  Proactively kick the
  // propagation instead of waiting a full stabilization period.
  if (options_.proactive_stabilize) {
    StabilizeNow();
    if (has_pred()) Send(pred_id_, sim::MakePayload<TriggerStab>());
  }
  const uint64_t epoch = op_epoch_;
  After(options_.insert_ack_timeout, [this, epoch]() {
    if (pending_insert_.has_value() && pending_insert_->epoch == epoch) {
      AbortInsert(Status::TimedOut("insert ack never arrived"));
    }
  });
}

void RingNode::AbortInsert(const Status& status) {
  PEPPER_CHECK(pending_insert_.has_value());
  PendingInsert pending = std::move(*pending_insert_);
  pending_insert_.reset();
  auto idx = succ_list_.Find(pending.peer);
  if (idx.has_value() &&
      succ_list_.entries()[*idx].state == PeerState::kJoining) {
    succ_list_.Remove(pending.peer);
  }
  if (state_ == PeerState::kInserting) state_ = PeerState::kJoined;
  if (options_.metrics != nullptr) {
    options_.metrics->counters().Inc("ring.inserts_aborted");
  }
  TraceFinish(pending.op);
  if (pending.done) pending.done(status);
}

void RingNode::CompleteInsert() {
  PEPPER_CHECK(pending_insert_.has_value());
  PendingInsert pending = std::move(*pending_insert_);
  pending_insert_.reset();

  auto idx = succ_list_.Find(pending.peer);
  if (!idx.has_value()) {
    // The entry vanished (e.g. via a concurrent repair); fail the insert.
    if (state_ == PeerState::kInserting) state_ = PeerState::kJoined;
    TraceFinish(pending.op);
    if (pending.done) pending.done(Status::Aborted("joining entry lost"));
    return;
  }
  auto& entries = succ_list_.mutable_entries();
  entries[*idx].state = PeerState::kJoined;
  // Without the PEPPER STAB discipline the new pointer is usable at once.
  entries[*idx].stabilized = !options_.pepper_insert;
  state_ = PeerState::kJoined;

  // The joining peer's successor list: everything after it in our list.  In
  // a ring smaller than the window our list ends just before us, so the
  // wrap back to the inserter is appended explicitly; with a full window
  // there may be unknown peers in between, and appending ourselves would
  // hand the new peer a pointer that skips them.
  SuccList tail;
  for (size_t i = *idx + 1; i < entries.size(); ++i) {
    tail.mutable_entries().push_back(entries[i]);
  }
  if (tail.JoinedCount() < options_.succ_list_length) {
    tail.mutable_entries().push_back(
        SuccEntry{id(), val_, PeerState::kJoined, false});
  }
  tail = SuccList::BuildWindowed(tail, options_.succ_list_length);

  // Our own list returns to its normal window.
  succ_list_ = SuccList::BuildWindowed(succ_list_, options_.succ_list_length);

  auto join = std::make_shared<JoinPeerMsg>();
  join->inserter = id();
  join->inserter_val = val_;
  join->assigned_val = pending.val;
  join->succ_list = tail.entries();
  join->data = pending.join_data;
  if (collect_join_data_) {
    join->inserter_data = collect_join_data_(pending.peer, pending.val);
  }

  const sim::SimTime started = pending.started;
  const sim::NodeId peer = pending.peer;
  const trace::OpToken op = pending.op;
  DoneFn done = std::move(pending.done);
  Call(
      peer, join,
      [this, started, done, op](const sim::Message&) {
        if (options_.metrics != nullptr) {
          options_.metrics->RecordLatency("ring.insert_succ",
                                          sim::ToSeconds(now() - started));
          options_.metrics->counters().Inc("ring.inserts_completed");
        }
        TraceFinish(op);
        if (done) done(Status::OK());
      },
      4 * options_.rpc_timeout,
      [this, peer, done, op]() {
        // The joining peer died before confirming; drop it.
        succ_list_.Remove(peer);
        if (options_.metrics != nullptr) {
          options_.metrics->counters().Inc("ring.inserts_aborted");
        }
        TraceFinish(op);
        if (done) done(Status::Unavailable("joining peer did not confirm"));
      });
}

void RingNode::Leave(DoneFn done) {
  if (state_ != PeerState::kJoined) {
    done(Status::FailedPrecondition("peer not joined"));
    return;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->counters().Inc("ring.leaves_started");
  }
  // Span over the leave handshake; the naive and lone-peer variants complete
  // inline, so their spans close at zero width.
  const trace::OpToken op = TraceOp("ring.leave", val_);
  if (!options_.pepper_leave) {
    // Naive leave: no coordination whatsoever (the Figure 14 baseline).
    if (options_.metrics != nullptr) {
      options_.metrics->RecordLatency("ring.leave", 0.0);
    }
    TraceFinish(op);
    done(Status::OK());
    return;
  }
  state_ = PeerState::kLeaving;  // stop initiating stabilization
  if (succ_list_.JoinedCount() == 0 && succ_list_.empty()) {
    // Lone peer: nothing points at us.
    if (options_.metrics != nullptr) {
      options_.metrics->RecordLatency("ring.leave", 0.0);
    }
    TraceFinish(op);
    done(Status::OK());
    return;
  }
  pending_leave_ = PendingLeave{std::move(done), now(), ++op_epoch_, op};
  if (options_.proactive_stabilize && has_pred()) {
    Send(pred_id_, sim::MakePayload<TriggerStab>());
  }
  const uint64_t epoch = op_epoch_;
  After(options_.leave_ack_timeout, [this, epoch]() {
    if (pending_leave_.has_value() && pending_leave_->epoch == epoch) {
      // Predecessors vanished; proceed so the leaver is not blocked forever.
      PendingLeave pending = std::move(*pending_leave_);
      pending_leave_.reset();
      if (options_.metrics != nullptr) {
        options_.metrics->counters().Inc("ring.leave_ack_timeouts");
      }
      TraceFinish(pending.op);
      if (pending.done) pending.done(Status::OK());
    }
  });
}

void RingNode::Depart() {
  state_ = PeerState::kFree;
  succ_list_ = SuccList();
  pred_id_ = sim::kNullNode;
  // Close any span whose completion path can no longer fire.
  if (pending_insert_.has_value()) TraceFinish(pending_insert_->op);
  if (pending_leave_.has_value()) TraceFinish(pending_leave_->op);
  pending_insert_.reset();
  pending_leave_.reset();
  stabilizing_ = false;
  pinging_ = false;
  last_new_succ_ = sim::kNullNode;
  if (timers_started_) {
    CancelTimer(stab_timer_);
    CancelTimer(ping_timer_);
    timers_started_ = false;
  }
}

std::optional<SuccEntry> RingNode::GetSucc() const {
  if (state_ == PeerState::kFree || state_ == PeerState::kJoining) {
    return std::nullopt;
  }
  auto idx = succ_list_.FirstJoined();
  if (!idx.has_value()) {
    if (succ_list_.empty()) {
      // Lone peer: its own successor (the scan of a full ring visits only
      // this peer).
      return SuccEntry{id(), val_, PeerState::kJoined, true};
    }
    return std::nullopt;  // only transient entries; wait for repair
  }
  const SuccEntry& e = succ_list_.entries()[*idx];
  if (!e.stabilized) return std::nullopt;  // paper's STAB gate (Algorithm 21)
  return e;
}

std::optional<SuccEntry> RingNode::GetSuccRelaxed() const {
  if (state_ == PeerState::kFree || state_ == PeerState::kJoining) {
    return std::nullopt;
  }
  auto idx = succ_list_.FirstJoined();
  if (!idx.has_value()) {
    if (succ_list_.empty()) {
      return SuccEntry{id(), val_, PeerState::kJoined, true};
    }
    return std::nullopt;
  }
  return succ_list_.entries()[*idx];
}

void RingNode::StabilizeNow() {
  After(0, [this]() { RunStabilization(); });
}

// --- Stabilization (Algorithm 2 / Algorithms 16-18) ------------------------

void RingNode::RunStabilization() {
  if (state_ != PeerState::kJoined && state_ != PeerState::kInserting) {
    return;  // LEAVING peers stop initiating (Algorithm 12 line 7)
  }
  if (stabilizing_) return;
  auto target_idx = succ_list_.StabilizationTarget();
  if (!target_idx.has_value()) return;  // lone peer
  const SuccEntry target = succ_list_.entries()[*target_idx];

  if (options_.metrics != nullptr) {
    options_.metrics->counters().Inc("ring.stab_rounds");
  }
  stabilizing_ = true;
  // Span over the round trip plus the response application (the acks and
  // rectify pings ApplyStabResponse sends trace as children).
  const trace::OpToken op = TraceOp("ring.stab_round", target.val);

  auto req = std::make_shared<StabRequest>();
  req->sender = id();
  req->sender_val = val_;
  if (!target.stabilized && info_for_succ_) {
    // First contact with this successor: raise INFOFORSUCCEVENT so higher
    // layers can ship data (Algorithm 16 lines 10-18).
    req->info = info_for_succ_(target.id, target.val);
  }
  Call(
      target.id, req,
      [this, target, op](const sim::Message& m) {
        stabilizing_ = false;
        if (state_ != PeerState::kJoined && state_ != PeerState::kInserting) {
          TraceFinish(op);
          return;
        }
        const auto& resp = static_cast<const StabResponse&>(*m.payload);
        ApplyStabResponse(target, resp);
        TraceFinish(op);
      },
      options_.rpc_timeout,
      [this, op]() {
        stabilizing_ = false;  // ping loop handles removal of dead peers
        if (options_.metrics != nullptr) {
          options_.metrics->counters().Inc("ring.stab_timeouts");
        }
        TraceFinish(op);
      });
}

void RingNode::ApplyStabResponse(const SuccEntry& target,
                                 const StabResponse& resp) {
  SuccEntry fresh = target;
  fresh.val = resp.responder_val;
  fresh.state = resp.responder_state == PeerState::kLeaving
                    ? PeerState::kLeaving
                    : PeerState::kJoined;
  fresh.stabilized = true;

  succ_list_ = SuccList::BuildFromStabilization(
      succ_list_, fresh, SuccList(resp.list), id(),
      state_ == PeerState::kInserting, options_.succ_list_length);

  MaybeRaiseNewSucc();

  // Stab-path rectify: the response's predecessor hint names any peer we
  // skipped between ourselves and the target.  Repairing here (ping-
  // verified, same contract as the ping-reply rectify) converges within a
  // stabilization round — important for replication, whose push chain
  // starts at whatever getSucc returns, and for the takeover chain of a
  // skipped peer, whose arc nobody would otherwise claim.
  MaybeAdoptPredHint(resp.pred_id, resp.pred_val, fresh.val);

  // Join / leave acknowledgements (Algorithm 2 lines 10-14, Section 5.1).
  for (const AckAction& ack : succ_list_.ComputeAcks()) {
    if (ack.kind == AckAction::Kind::kJoinAck) {
      if (ack.target == id()) {
        // We are the inserter and also the farthest relevant predecessor.
        JoinAckMsg self_ack;
        self_ack.joining = ack.subject;
        HandleJoinAck(sim::Message{}, self_ack);
      } else {
        auto msg = std::make_shared<JoinAckMsg>();
        msg->joining = ack.subject;
        Send(ack.target, msg);
      }
      if (options_.metrics != nullptr) {
        options_.metrics->counters().Inc("ring.join_acks_sent");
      }
    } else {
      auto msg = std::make_shared<LeaveAckMsg>();
      msg->leaving = ack.subject;
      Send(ack.target, msg);
      if (options_.metrics != nullptr) {
        options_.metrics->counters().Inc("ring.leave_acks_sent");
      }
    }
  }

  // Keep the backward propagation moving while transient entries exist.
  if (options_.proactive_stabilize && has_pred()) {
    bool transient = false;
    for (const SuccEntry& e : succ_list_.entries()) {
      if (e.state == PeerState::kJoining || e.state == PeerState::kLeaving) {
        transient = true;
        break;
      }
    }
    if (transient) Send(pred_id_, sim::MakePayload<TriggerStab>());
  }
}

void RingNode::HandleStabRequest(const sim::Message& msg,
                                 const StabRequest& req) {
  if (state_ != PeerState::kJoined && state_ != PeerState::kInserting &&
      state_ != PeerState::kLeaving) {
    return;  // JOINING / FREE peers do not answer stabilization
  }
  MaybeUpdatePred(req.sender, req.sender_val, req.info);

  auto resp = std::make_shared<StabResponse>();
  resp->responder_val = val_;
  resp->responder_state = state_ == PeerState::kLeaving ? PeerState::kLeaving
                                                        : PeerState::kJoined;
  resp->list = succ_list_.entries();
  resp->pred_id = pred_id_;
  resp->pred_val = pred_val_;
  Reply(msg, resp);
}

void RingNode::MaybeUpdatePred(sim::NodeId sender, Key sender_val,
                               sim::PayloadPtr info) {
  if (sender == pred_id_ || !has_pred() ||
      (sender_val != val_ && InArc(pred_val_, sender_val, val_))) {
    // Same predecessor, first predecessor, or a strictly closer one.
    AcceptPred(sender, sender_val, std::move(info));
    return;
  }
  if (now() - last_pred_contact_ <= options_.pred_ttl) return;
  // A farther-back peer claims to precede us and our predecessor has gone
  // quiet.  Quiet does NOT imply dead: a LEAVING predecessor stops
  // initiating stabilization while it still owns its range, and adopting
  // the farther claim would extend our Data Store range over a live peer's
  // keys (incorrect query results).  Verify by pinging the old predecessor
  // and only adopt the claimant if it is really gone.
  pred_candidate_ = PredCandidate{sender, sender_val, std::move(info)};
  if (verifying_pred_) return;
  verifying_pred_ = true;
  auto adopt_candidate = [this]() {
    verifying_pred_ = false;
    if (!pred_candidate_.has_value()) return;
    PredCandidate cand = std::move(*pred_candidate_);
    pred_candidate_.reset();
    AcceptPred(cand.id, cand.val, std::move(cand.info));
  };
  Call(
      pred_id_, sim::MakePayload<PingRequest>(),
      [this, adopt_candidate](const sim::Message& m) {
        if (static_cast<const PingReply&>(*m.payload).state ==
            PeerState::kFree) {
          adopt_candidate();  // departed: the claimant takes over
          return;
        }
        verifying_pred_ = false;
        pred_candidate_.reset();
        last_pred_contact_ = now();  // still alive (possibly LEAVING)
      },
      options_.ping_timeout, adopt_candidate);
}

void RingNode::AcceptPred(sim::NodeId sender, Key sender_val,
                          sim::PayloadPtr info) {
  const bool changed = (pred_id_ != sender) || (pred_val_ != sender_val);
  pred_id_ = sender;
  pred_val_ = sender_val;
  last_pred_contact_ = now();
  if (info != nullptr || changed) {
    // Raised before the reply is sent, so the predecessor's getSucc cannot
    // observe this peer before it processed the handoff (the paper's
    // INFOFROMPREDEVENT ordering requirement).
    for (const auto& fn : on_pred_changed_) fn(sender, sender_val, info);
  }
}

void RingNode::HandleJoinAck(const sim::Message& /*msg*/,
                             const JoinAckMsg& ack) {
  if (state_ != PeerState::kInserting || !pending_insert_.has_value()) return;
  if (pending_insert_->peer != ack.joining) return;
  CompleteInsert();
}

void RingNode::HandleLeaveAck(const sim::Message& /*msg*/,
                              const LeaveAckMsg& ack) {
  if (state_ != PeerState::kLeaving || !pending_leave_.has_value()) return;
  if (ack.leaving != id()) return;
  PendingLeave pending = std::move(*pending_leave_);
  pending_leave_.reset();
  if (options_.metrics != nullptr) {
    options_.metrics->RecordLatency("ring.leave",
                                    sim::ToSeconds(now() - pending.started));
  }
  TraceFinish(pending.op);
  if (pending.done) pending.done(Status::OK());
}

void RingNode::HandleJoinPeer(const sim::Message& msg,
                              const JoinPeerMsg& join) {
  if (state_ == PeerState::kJoined && pred_id_ == join.inserter) {
    Reply(msg, sim::MakePayload<JoinPeerOk>());  // duplicate, idempotent
    return;
  }
  if (state_ != PeerState::kFree) {
    return;  // cannot join twice; inserter will time out
  }
  val_ = join.assigned_val;
  succ_list_ = SuccList(join.succ_list);
  for (auto& e : succ_list_.mutable_entries()) {
    e.stabilized = !options_.pepper_insert;
  }
  pred_id_ = join.inserter;
  pred_val_ = join.inserter_val;
  last_pred_contact_ = now();
  BecomeJoined();
  if (on_joined_) {
    on_joined_(join.inserter, join.inserter_val, join.data,
               join.inserter_data);
  }
  Reply(msg, sim::MakePayload<JoinPeerOk>());
  MaybeRaiseNewSucc();
  if (options_.proactive_stabilize) StabilizeNow();
}

void RingNode::HandlePing(const sim::Message& msg, const PingRequest&) {
  // Departed peers still answer — with state FREE ("no longer a member").
  // Callers treat that as gone; unlike a crashed peer, a departed process
  // can say so, which lets replica bookkeeping distinguish obsolete state
  // (handed over at departure) from state needing revival.
  auto reply = std::make_shared<PingReply>();
  reply->state = state_;
  reply->val = val_;
  reply->pred_id = pred_id_;
  reply->pred_val = pred_val_;
  Reply(msg, reply);
}

void RingNode::HandleTriggerStab(const sim::Message&, const TriggerStab&) {
  if (state_ != PeerState::kJoined && state_ != PeerState::kInserting) return;
  RunStabilization();
}

// --- Failure detection (Algorithm 14) --------------------------------------

void RingNode::RunPing() {
  if (state_ == PeerState::kFree || state_ == PeerState::kJoining) return;

  // All successors gone (every pointer failed): fall back to the
  // predecessor so the surviving ring can re-close through stabilization.
  if (succ_list_.empty() && has_pred() &&
      now() - last_pred_contact_ <= options_.pred_ttl) {
    succ_list_.PushFront(
        SuccEntry{pred_id_, pred_val_, PeerState::kJoined, false});
    StabilizeNow();
  }

  auto idx = succ_list_.FirstJoined();
  if (idx.has_value() && !pinging_) {
    const sim::NodeId target = succ_list_.entries()[*idx].id;
    const Key target_val = succ_list_.entries()[*idx].val;
    pinging_ = true;
    Call(
        target, sim::MakePayload<PingRequest>(),
        [this, target, target_val](const sim::Message& m) {
          pinging_ = false;
          const auto& ping_reply = static_cast<const PingReply&>(*m.payload);
          if (ping_reply.state == PeerState::kFree) {
            // Departed: drop the pointer just as if the ping timed out.
            auto pos = succ_list_.Find(target);
            if (pos.has_value()) {
              succ_list_.Remove(target);
              MaybeRaiseNewSucc();
              StabilizeNow();
            }
            return;
          }
          // Chord-style rectify: if our believed successor reports a
          // predecessor strictly between us and it, we missed a peer
          // (e.g. knowledge destroyed by an aborted duplicate insert).
          const auto& reply = static_cast<const PingReply&>(*m.payload);
          MaybeAdoptPredHint(reply.pred_id, reply.pred_val, target_val);
        },
        options_.ping_timeout,
        [this, target]() {
          pinging_ = false;
          auto pos = succ_list_.Find(target);
          auto first = succ_list_.FirstJoined();
          if (!pos.has_value() || !first.has_value() || *first != *pos) {
            return;  // list changed underneath us
          }
          if (options_.metrics != nullptr) {
            options_.metrics->counters().Inc("ring.succ_removed");
          }
          const size_t at = *pos;
          const Key failed_val = succ_list_.entries()[at].val;
          succ_list_.Remove(target);
          // JOINING entries directly behind the failed peer were being
          // inserted *by* it; their join can no longer complete, so drop
          // them rather than route through half-inserted peers.
          auto& entries = succ_list_.mutable_entries();
          while (at < entries.size() &&
                 entries[at].state == PeerState::kJoining) {
            entries.erase(entries.begin() + static_cast<long>(at));
          }
          MaybeRaiseNewSucc();
          StabilizeNow();  // re-stabilize with the repaired successor
          for (const auto& fn : on_successor_failed_) {
            fn(target, failed_val);
          }
        });
  }

  // Ping LEAVING entries so departed peers are eventually dropped.
  std::vector<sim::NodeId> leaving;
  for (const SuccEntry& e : succ_list_.entries()) {
    if (e.state == PeerState::kLeaving) leaving.push_back(e.id);
  }
  for (sim::NodeId peer : leaving) {
    auto drop = [this, peer]() {
      auto pos = succ_list_.Find(peer);
      if (pos.has_value() &&
          succ_list_.entries()[*pos].state == PeerState::kLeaving) {
        succ_list_.Remove(peer);
        MaybeRaiseNewSucc();
      }
    };
    Call(
        peer, sim::MakePayload<PingRequest>(),
        [drop](const sim::Message& m) {
          if (static_cast<const PingReply&>(*m.payload).state ==
              PeerState::kFree) {
            drop();  // departed
          }
        },
        options_.ping_timeout, drop);
  }
}

void RingNode::MaybeAdoptPredHint(sim::NodeId hinted, Key hinted_val,
                                  Key upper_val) {
  // A peer strictly between us and `upper_val` (a successor's reported
  // predecessor) that we do not point at means our successor pointer
  // skipped it.  The hint may be STALE — the reported predecessor may
  // itself be dead (the successor has not noticed yet), and adopting a
  // dead peer would livelock with the ping-removal loop.  Verify by
  // pinging the hinted peer; adopt only on answer.
  if (rectifying_ || hinted == sim::kNullNode || hinted == id() ||
      succ_list_.Contains(hinted) || hinted_val == upper_val ||
      hinted_val == val_ || !InArc(val_, hinted_val, upper_val)) {
    return;
  }
  rectifying_ = true;
  Call(
      hinted, sim::MakePayload<PingRequest>(),
      [this, hinted, upper_val](const sim::Message& m) {
        rectifying_ = false;
        const auto& alive = static_cast<const PingReply&>(*m.payload);
        if (alive.state == PeerState::kFree) return;
        if (succ_list_.Contains(hinted) || alive.val == val_ ||
            !InArc(val_, alive.val, upper_val)) {
          return;  // stale or already known
        }
        succ_list_.PushFront(
            SuccEntry{hinted, alive.val, PeerState::kJoined, false});
        if (options_.metrics != nullptr) {
          options_.metrics->counters().Inc("ring.rectify_adopts");
        }
        StabilizeNow();
      },
      options_.ping_timeout, [this]() { rectifying_ = false; });
}

void RingNode::MaybeRaiseNewSucc() {
  // NEWSUCCEVENT (Algorithm 17 lines 21-28): first JOINED & stabilized entry.
  for (const SuccEntry& e : succ_list_.entries()) {
    if (e.state != PeerState::kJoined) continue;
    if (!e.stabilized) return;  // successor known but not yet stabilized
    if (e.id != last_new_succ_) {
      last_new_succ_ = e.id;
      for (const auto& fn : on_new_successor_) fn(e.id, e.val);
    }
    return;
  }
}

}  // namespace pepper::ring
