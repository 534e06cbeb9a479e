#include "datastore/rebalancer.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "datastore/data_store_node.h"
#include "ring/ring_node.h"
#include "telemetry/load_monitor.h"

namespace pepper::datastore {

Rebalancer::Rebalancer(DataStoreNode* ds)
    : sim::ProtocolComponent(ds->node()), ds_(ds) {
  if (ds_->metrics() != nullptr) {
    Counters& ctr = ds_->metrics()->counters();
    m_revive_sweep_ = ctr.Intern("ds.revive_sweep");
    m_split_no_free_peer_ = ctr.Intern("ds.split_no_free_peer");
    m_split_failed_ = ctr.Intern("ds.split_failed");
    m_splits_ = ctr.Intern("ds.splits");
    m_redistributes_ = ctr.Intern("ds.redistributes");
    m_merges_ = ctr.Intern("ds.merges");
    m_merge_takeover_failed_ = ctr.Intern("ds.merge_takeover_failed");
    m_takeover_expired_ = ctr.Intern("ds.takeover_expired");
    m_takeover_late_ = ctr.Intern("ds.takeover_late");
    m_split_time_ = ds_->metrics()->LatencyHandle("ds.split_time");
    m_redistribute_time_ = ds_->metrics()->LatencyHandle("ds.redistribute_time");
    m_merge_time_ = ds_->metrics()->LatencyHandle("ds.merge_time");
  }
  On<SplitInsertRequest>(
      [this](const sim::Message& m, const SplitInsertRequest& req) {
        HandleSplitInsert(m, req);
      });
  On<MergeProposal>([this](const sim::Message& m, const MergeProposal& req) {
    HandleMergeProposal(m, req);
  });
  On<MergeTakeover>([this](const sim::Message& m, const MergeTakeover& req) {
    HandleMergeTakeover(m, req);
  });
  On<MergeAbort>([this](const sim::Message& m, const MergeAbort& req) {
    HandleMergeAbort(m, req);
  });
  maintenance_timer_ =
      Every("ds.maintenance", ds_->options().maintenance_period,
            [this]() { MaybeRebalance(); },
            RandomPhase(ds_->options().maintenance_period));
}

void Rebalancer::MaybeRebalance() {
  if (!ds_->active() || rebalancing_ || merge_busy_) return;
  MaybeStartReviveSweep();
  const size_t sf = ds_->options().storage_factor;
  if (ds_->ItemCount() > 2 * sf) {
    StartSplit();
  } else if (ds_->ItemCount() < sf && !ds_->range().full()) {
    StartUnderflow();
  }
}

// Revival sweep (last resort for items whose re-home failed or whose
// takeover raced a failure): promote replica-held items inside our own
// range whose owner is confirmed dead.  Owner liveness is verified by the
// replication manager so that frozen groups of merged-away peers cannot
// resurrect deleted items.
void Rebalancer::MaybeStartReviveSweep() {
  ReplicationHooks* replication = ds_->replication();
  if (replication == nullptr || ds_->lock().write_held()) return;
  if (!ReviveSweepNeeded()) return;
  replication->StartReviveSweep(ds_->range(), [this](const Item& it) {
    if (!ds_->active() || ds_->lock().write_held() ||
        !ds_->range().Contains(it.skv) || ds_->HasItem(it.skv)) {
      return;  // next sweep retries if still relevant
    }
    ds_->StoreItem(it);
    TraceMark("ds.revive_sweep_promote", it.skv);
    if (ds_->metrics() != nullptr) {
      ds_->metrics()->counters().Inc(m_revive_sweep_);
    }
    ds_->ReplicateMovedItems();
  });
}

// A "nothing missing" answer can only turn into "something missing" when
// our range changes, the store loses a key, or a held replica gains one.
// The first is compared directly; the store's content version moves on
// every put, erase and clear, and the replicas' upsert count on every
// applied snapshot or delta.  Replica erases and group drops only shrink
// the set of held keys, so they need no invalidation.
bool Rebalancer::ReviveSweepNeeded() {
  ReplicationHooks* replication = ds_->replication();
  if (replication == nullptr) return false;
  ReviveProbe probe;
  probe.range = ds_->range();
  probe.content_version = ds_->content_version();
  probe.replica_upserts = replication->replica_upserts();
  const ReviveProbe& last = last_revive_probe_;
  if (last.negative && last.range == probe.range &&
      last.content_version == probe.content_version &&
      last.replica_upserts == probe.replica_upserts) {
    return false;
  }
  const bool missing = replication->AnyReplicaIn(
      probe.range, [this](Key skv) { return !ds_->HasItem(skv); });
  probe.negative = !missing;
  last_revive_probe_ = probe;
  return missing;
}

void Rebalancer::RequestLeave() {
  if (!ds_->active() || rebalancing_ || merge_busy_) return;
  rebalancing_ = true;
  const trace::OpToken op = TraceOp("ds.leave");
  ds_->AcquireWriteTimed([this, op](bool ok) {
    if (!ok) {
      rebalancing_ = false;
      TraceFinish(op);
      return;
    }
    if (!ds_->active() || ds_->range().full()) {
      EndRebalance(true);  // the last owner cannot hand the circle off
      TraceFinish(op);
      return;
    }
    auto succ = ds_->ring()->GetSucc();
    if (!succ.has_value() || succ->id == id()) {
      EndRebalance(true);
      TraceFinish(op);
      return;
    }
    // The successor was not primed by a MergeProposal; its
    // HandleMergeTakeover late-takeover path re-acquires its own lock.
    DoMergeLeave(succ->id, op);
  });
}

void Rebalancer::EndRebalance(bool locked) {
  if (locked) ds_->lock().ReleaseWrite();
  rebalancing_ = false;
}

void Rebalancer::StartSplit() {
  rebalancing_ = true;
  const sim::SimTime started = now();
  const trace::OpToken op = TraceOp("ds.split");
  ds_->AcquireWriteTimed([this, started, op](bool ok) {
    if (!ok) {
      rebalancing_ = false;
      TraceFinish(op);
      return;
    }
    if (!ds_->active() ||
        ds_->ItemCount() <= 2 * ds_->options().storage_factor) {
      EndRebalance(true);
      TraceFinish(op);
      return;
    }
    // The pool is cluster-global: the pop happens at the control context
    // and the answer comes back on this node's execution (still holding the
    // write lock — re-check activity, the takeover engine may have moved
    // our range while the answer was in flight).
    ds_->pool()->AcquireAsync(
        id(), [this, started, op](std::optional<sim::NodeId> free_peer) {
          ContinueSplitWithPeer(free_peer, started, op);
        });
  });
}

void Rebalancer::ContinueSplitWithPeer(std::optional<sim::NodeId> free_peer,
                                       sim::SimTime started,
                                       const trace::OpToken& op) {
    // The pool answer arrives outside the split's causal chain; rejoin it
    // so the ring insert / predecessor RPC below trace as children.
    if (op.active()) trace::Tracer::SetCurrent(op.ctx);
    if (!free_peer.has_value()) {
      if (ds_->metrics() != nullptr) {
        ds_->metrics()->counters().Inc(m_split_no_free_peer_);
      }
      EndRebalance(true);
      TraceFinish(op);
      return;
    }
    if (!ds_->active() ||
        ds_->ItemCount() <= 2 * ds_->options().storage_factor) {
      ds_->pool()->Add(*free_peer);
      EndRebalance(true);
      TraceFinish(op);
      return;
    }

    // Split point: the new peer takes the lower half of our range
    // (Figure 5: p4 overflows, free peer p3 takes over the lower items).
    // Only the handed-off half is materialized; the view copies nothing.
    ds_->BeginStoreOp();
    const CircularItemView view = ds_->OrderedItems();
    const size_t give = view.size() / 2;
    if (give == 0) {  // in-range items lag the raw count mid-transition
      ds_->pool()->Add(*free_peer);
      EndRebalance(true);
      return;
    }
    std::vector<Item> handed = view.TakePrefix(give);
    const Key split_point = handed.back().skv;

    const RingRange& range = ds_->range();
    auto handoff = std::make_shared<SplitHandoff>();
    handoff->range = range.full()
                         ? RingRange::OpenClosed(range.hi(), split_point)
                         : RingRange::OpenClosed(range.lo(), split_point);
    handoff->items = handed;

    const sim::NodeId new_peer = *free_peer;
    auto finish = [this, new_peer, split_point, handed, started,
                   op](const Status& s) {
      FinishSplit(new_peer, split_point, handed, s, op);
      if (s.ok() && m_split_time_ != nullptr) {
        m_split_time_->Add(sim::ToSeconds(now() - started));
      }
    };

    // Collecting the handed-off prefix walked the store; the accrued
    // simulated I/O delays the handoff dispatch (write lock stays held).
    const bool was_full = range.full();
    ds_->ChargeStoreIo([this, was_full, new_peer, split_point, handoff,
                        finish]() {
      // The new peer must be inserted as the successor of our predecessor.
      // A lone peer (or one with no predecessor hint yet) is its own
      // predecessor.
      ring::RingNode* ring = ds_->ring();
      if (was_full || !ring->has_pred() || ring->pred_id() == id()) {
        ring->InsertSucc(new_peer, split_point, handoff, finish);
        return;
      }
      auto req = std::make_shared<SplitInsertRequest>();
      req->new_peer = new_peer;
      req->new_val = split_point;
      req->handoff = handoff;
      Call(
          ring->pred_id(), req,
          [finish](const sim::Message& m) {
            const auto& ack = static_cast<const DsAck&>(*m.payload);
            finish(ack.ok ? Status::OK() : Status::Aborted(ack.error));
          },
          // The predecessor's insertSucc itself waits for ack propagation.
          ring->options().insert_ack_timeout + ds_->options().rpc_timeout,
          [finish]() { finish(Status::TimedOut("split insert timed out")); });
    });
}

void Rebalancer::FinishSplit(sim::NodeId free_peer, Key split_point,
                             std::vector<Item> handed, const Status& status,
                             const trace::OpToken& op) {
  TraceFinish(op);
  if (!status.ok()) {
    // The free peer was not (observably) inserted; recycle it.  If the
    // insert actually completed late, the range-shrink detection in the
    // takeover engine re-homes any duplicated items.
    ds_->pool()->Add(free_peer);
    if (ds_->metrics() != nullptr) {
      ds_->metrics()->counters().Inc(m_split_failed_);
    }
    EndRebalance(true);
    return;
  }
  for (const Item& it : handed) {
    ds_->DropItem(it.skv);
  }
  ds_->set_range(RingRange::OpenClosed(split_point, ds_->range().hi()));
  // One reorg event per protocol decision, charged to the peer completing
  // it (here the splitter; the recruit's activation is the same split).
  if (ds_->options().monitor != nullptr) {
    ds_->options().monitor->OnReorg(id(), telemetry::ReorgKind::kSplit, now());
  }
  if (ds_->metrics() != nullptr) {
    ds_->metrics()->counters().Inc(m_splits_);
  }
  if (ds_->replication() != nullptr) ds_->replication()->OnLocalItemsChanged();
  EndRebalance(true);
}

void Rebalancer::StartUnderflow() {
  rebalancing_ = true;
  const sim::SimTime started = now();
  const trace::OpToken op = TraceOp("ds.underflow");
  ds_->AcquireWriteTimed([this, started, op](bool ok) {
    if (!ok) {
      rebalancing_ = false;
      TraceFinish(op);
      return;
    }
    if (!ds_->active() ||
        ds_->ItemCount() >= ds_->options().storage_factor ||
        ds_->range().full()) {
      EndRebalance(true);
      TraceFinish(op);
      return;
    }
    auto succ = ds_->ring()->GetSucc();
    if (!succ.has_value() || succ->id == id()) {
      EndRebalance(true);
      TraceFinish(op);
      return;
    }
    // The lock grant runs outside the proposal's chain; rejoin so the
    // MergeProposal RPC below (and everything downstream) traces under it.
    if (op.active()) trace::Tracer::SetCurrent(op.ctx);
    auto proposal = std::make_shared<MergeProposal>();
    proposal->proposer_val = ds_->range().hi();
    proposal->count = ds_->ItemCount();
    const sim::NodeId succ_id = succ->id;
    Call(
        succ_id, proposal,
        [this, succ_id, started, op](const sim::Message& m) {
          const auto& decision = static_cast<const MergeDecision&>(*m.payload);
          switch (decision.kind) {
            case MergeDecision::Kind::kRedistribute: {
              const Key old_hi = ds_->range().hi();
              for (const Item& it : decision.items) ds_->StoreItem(it);
              ds_->set_range(
                  RingRange::OpenClosed(ds_->range().lo(), decision.new_val));
              ds_->ring()->set_val(decision.new_val);
              if (ds_->options().monitor != nullptr) {
                ds_->options().monitor->OnReorg(
                    id(), telemetry::ReorgKind::kRedistribute, now());
              }
              if (ds_->metrics() != nullptr) {
                ds_->metrics()->counters().Inc(m_redistributes_);
                m_redistribute_time_->Add(sim::ToSeconds(now() - started));
              }
              ds_->ReplicateMovedItems();
              // The value jump (old_hi, new_val] may have bridged more than
              // the partner's handoff: if a peer between us and the partner
              // died un-revived (we, its predecessor, never held its
              // group), its arc just became ours with no items.  Pull its
              // replicas from the successor chain; answers for keys the
              // handoff already covered are skipped as present.
              ds_->PullReviveArc(
                  RingRange::OpenClosed(old_hi, decision.new_val));
              EndRebalance(true);
              TraceFinish(op);
              break;
            }
            case MergeDecision::Kind::kTakeover:
              DoMergeLeave(succ_id, op);
              break;
            case MergeDecision::Kind::kRejected:
              EndRebalance(true);
              TraceFinish(op);
              break;
          }
        },
        ds_->options().lock_timeout + ds_->options().rpc_timeout,
        [this, op]() {
          EndRebalance(true);
          TraceFinish(op);
        });
  });
}

// Merge by departure (Sections 2.3 and 5): replicate one extra hop, leave
// the ring consistently, then hand everything to the successor.
void Rebalancer::DoMergeLeave(sim::NodeId succ_id, const trace::OpToken& op) {
  const sim::SimTime merge_started = now();
  auto after_replication = [this, succ_id, merge_started, op](const Status&) {
    // The extra-hop replication ack arrives outside the departure's chain;
    // rejoin so the Leave round and the takeover transfer trace under it.
    if (op.active()) trace::Tracer::SetCurrent(op.ctx);
    ds_->ring()->Leave([this, succ_id, merge_started,
                        op](const Status& leave_status) {
      if (op.active()) trace::Tracer::SetCurrent(op.ctx);
      if (!leave_status.ok()) {
        Send(succ_id, sim::MakePayload<MergeAbort>());
        EndRebalance(true);
        TraceFinish(op);
        return;
      }
      auto takeover = std::make_shared<MergeTakeover>();
      takeover->range = ds_->range();
      ds_->BeginStoreOp();
      takeover->items = ds_->GetLocalItems();
      // Reading out the whole store for the transfer is the departure's
      // I/O bill; it delays the takeover RPC.
      ds_->ChargeStoreIo([this, succ_id, takeover, merge_started, op]() {
      Call(
          succ_id, takeover,
          [this, merge_started, op](const sim::Message& m) {
            const auto& ack = static_cast<const DsAck&>(*m.payload);
            if (ds_->metrics() != nullptr) {
              ds_->metrics()->counters().Inc(
                  ack.ok ? m_merges_ : m_merge_takeover_failed_);
              if (ack.ok) {
                m_merge_time_->Add(sim::ToSeconds(now() - merge_started));
              }
            }
            ds_->Deactivate();
            ds_->ring()->Depart();
            ds_->pool()->Retire(id());
            // The lock dies with the departed peer's Data Store state.
            EndRebalance(true);
            TraceFinish(op);
          },
          ds_->options().lock_timeout + ds_->options().rpc_timeout,
          [this, op]() {
            // Successor vanished mid-takeover.  We already left the ring;
            // depart anyway — the extra-hop replication (and the periodic
            // pushes) let the remaining peers revive our items.
            if (ds_->metrics() != nullptr) {
              ds_->metrics()->counters().Inc(m_merge_takeover_failed_);
            }
            ds_->Deactivate();
            ds_->ring()->Depart();
            ds_->pool()->Retire(id());
            EndRebalance(true);
            TraceFinish(op);
          });
      });
    });
  };
  if (ds_->options().pepper_availability && ds_->replication() != nullptr) {
    ds_->replication()->ReplicateExtraHop(after_replication);
  } else {
    after_replication(Status::OK());
  }
}

void Rebalancer::HandleSplitInsert(const sim::Message& msg,
                                   const SplitInsertRequest& req) {
  ds_->ring()->InsertSucc(req.new_peer, req.new_val, req.handoff,
                          [this, msg](const Status& s) {
                            auto ack = std::make_shared<DsAck>();
                            ack->ok = s.ok();
                            ack->error = s.message();
                            Reply(msg, ack);
                          });
}

void Rebalancer::HandleMergeProposal(const sim::Message& msg,
                                     const MergeProposal& req) {
  auto reject = [this, msg](const std::string& why) {
    auto decision = std::make_shared<MergeDecision>();
    decision->kind = MergeDecision::Kind::kRejected;
    decision->error = why;
    Reply(msg, decision);
  };
  if (!ds_->active() || merge_busy_ || rebalancing_) {
    reject("busy");
    return;
  }
  merge_busy_ = true;
  const size_t proposer_count = req.count;
  ds_->AcquireWriteTimed([this, msg, proposer_count, reject](bool ok) {
    if (!ok) {
      merge_busy_ = false;
      reject("lock timeout");
      return;
    }
    if (!ds_->active()) {
      merge_busy_ = false;
      ds_->lock().ReleaseWrite();
      reject("inactive");
      return;
    }
    const size_t sf = ds_->options().storage_factor;
    const size_t total = ds_->ItemCount() + proposer_count;
    if (total >= 2 * sf && ds_->ItemCount() > sf) {
      // Redistribute: hand the proposer our low-side items so both end up
      // near total/2 (Section 2.3).
      ds_->BeginStoreOp();
      const CircularItemView view = ds_->OrderedItems();
      if (view.size() < 2) {
        merge_busy_ = false;
        ds_->lock().ReleaseWrite();
        reject("nothing to redistribute");
        return;
      }
      size_t target_give = ds_->ItemCount() - total / 2;
      target_give = std::max<size_t>(target_give, 1);
      target_give = std::min(target_give, view.size() - 1);
      std::vector<Item> given = view.TakePrefix(target_give);
      auto decision = std::make_shared<MergeDecision>();
      decision->kind = MergeDecision::Kind::kRedistribute;
      decision->items = given;
      decision->new_val = given.back().skv;
      for (const Item& it : given) ds_->DropItem(it.skv);
      ds_->set_range(RingRange::OpenClosed(decision->new_val,
                                           ds_->range().hi()));
      // Collecting and dropping the handed prefix walked the store; the
      // accrued I/O delays the redistribute reply, lock still held.
      ds_->ChargeStoreIo([this, msg, decision]() {
        Reply(msg, decision);
        ds_->ReplicateMovedItems();
        ds_->lock().ReleaseWrite();
        merge_busy_ = false;
      });
      return;
    }
    // Full takeover: keep our write lock until the leaver transfers its
    // state (or we give up).  The expiry timer is epoch-guarded so a stale
    // timer from an earlier offer cannot release a later offer's lock.
    takeover_from_ = msg.from;
    const uint64_t epoch = ++takeover_epoch_;
    auto decision = std::make_shared<MergeDecision>();
    decision->kind = MergeDecision::Kind::kTakeover;
    Reply(msg, decision);
    After(ds_->options().takeover_timeout, [this, epoch]() {
      if (merge_busy_ && takeover_from_ != sim::kNullNode &&
          takeover_epoch_ == epoch) {
        takeover_from_ = sim::kNullNode;
        merge_busy_ = false;
        ds_->lock().ReleaseWrite();
        TraceMark("ds.takeover_expired");
        if (ds_->metrics() != nullptr) {
          ds_->metrics()->counters().Inc(m_takeover_expired_);
        }
      }
    });
  });
}

void Rebalancer::HandleMergeTakeover(const sim::Message& msg,
                                     const MergeTakeover& req) {
  auto absorb = [this, msg, req]() {
    ds_->BeginStoreOp();
    for (const Item& it : req.items) ds_->StoreItem(it);
    const Key hi = ds_->range().hi();
    const Key new_lo = req.range.full() ? hi : req.range.lo();
    ds_->set_range((new_lo == hi) ? RingRange::Full(hi)
                                  : RingRange::OpenClosed(new_lo, hi));
    if (ds_->options().monitor != nullptr) {
      ds_->options().monitor->OnReorg(id(), telemetry::ReorgKind::kMerge,
                                      now());
    }
    // Absorbing the leaver's items faulted pages; the accrued I/O delays
    // the takeover ack (and our lock release) — the honest merge cost.
    ds_->ChargeStoreIo([this, msg]() {
      ds_->lock().ReleaseWrite();
      Reply(msg, sim::MakePayload<DsAck>());
      ds_->ReplicateMovedItems();
      After(0, [this]() { MaybeRebalance(); });
    });
  };
  if (merge_busy_ && takeover_from_ == msg.from) {
    takeover_from_ = sim::kNullNode;
    merge_busy_ = false;
    absorb();  // our write lock is already held
    return;
  }
  // Late takeover (our offer expired): the leaver has already left the
  // ring, so absorbing is still the right thing — re-acquire the lock.
  if (!ds_->active()) {
    auto ack = std::make_shared<DsAck>();
    ack->ok = false;
    ack->error = "inactive";
    Reply(msg, ack);
    return;
  }
  TraceMark("ds.takeover_late");
  if (ds_->metrics() != nullptr) {
    ds_->metrics()->counters().Inc(m_takeover_late_);
  }
  ds_->AcquireWriteTimed([this, msg, absorb](bool ok) {
    if (!ok) {
      auto ack = std::make_shared<DsAck>();
      ack->ok = false;
      ack->error = "lock timeout";
      Reply(msg, ack);
      return;
    }
    absorb();
  });
}

void Rebalancer::HandleMergeAbort(const sim::Message& msg,
                                  const MergeAbort&) {
  if (merge_busy_ && takeover_from_ == msg.from) {
    takeover_from_ = sim::kNullNode;
    merge_busy_ = false;
    ds_->lock().ReleaseWrite();
  }
}

}  // namespace pepper::datastore
