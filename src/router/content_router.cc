#include "router/content_router.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "telemetry/load_monitor.h"

namespace pepper::router {

// `refused`: the hop is not a ring member (free — typically merged away
// while a stale pointer still names it — or still joining), so it can
// neither answer nor forward; the sender must pick another hop.
struct LookupForwardAck : sim::Payload {
  explicit LookupForwardAck(bool refused = false) : refused(refused) {}
  bool refused;
};

namespace {

// Hops a lookup may take before it is dropped and left to the initiator's
// retry.  The routing rules never loop, so this only bounds a defect.
constexpr int kHopBudget = 1024;

}  // namespace

RouterBase::RouterBase(ring::RingNode* ring, datastore::DataStoreNode* ds,
                       RouterOptions options, bool greedy)
    : sim::ProtocolComponent(ring->node()),
      ring_(ring),
      ds_(ds),
      options_(std::move(options)),
      greedy_(greedy),
      // Lookup ids must be globally unique (replies are matched by id).
      next_lookup_id_(static_cast<uint64_t>(ring->id()) << 32) {
  if (options_.metrics != nullptr) {
    Counters& c = options_.metrics->counters();
    m_lookups_ = c.Intern("router.lookups");
    m_attempts_ = c.Intern("router.attempts");
    m_retries_ = c.Intern("router.retries");
    m_budget_exhausted_ = c.Intern("router.hop_budget_exhausted");
    m_dead_end_ = c.Intern("router.fwd_dead_end");
    m_held_ = c.Intern("router.held");
    m_handed_back_ = c.Intern("router.handed_back");
    m_hops_ = options_.metrics->LatencyHandle("router.hops");
  }
  On<LookupRequest>(
      [this](const sim::Message& m, const LookupRequest& req) {
        HandleRequest(m, req);
      });
  On<LookupReply>(
      [this](const sim::Message& m, const LookupReply& reply) {
        HandleReply(m, reply);
      });
  // A held lookup waits for the owner to appear between its forwarder and
  // this peer: our range growing over it, or a new predecessor owning it.
  ds_->add_on_range_change([this]() { WakeHeld(); });
  ring_->add_on_pred_changed(
      [this](sim::NodeId, Key, sim::PayloadPtr) { WakeHeld(); });
}

void RouterBase::Lookup(Key key, LookupFn done) {
  // `router.lookups` counts user-facing calls; retries only show up in
  // `router.attempts` / `router.retries`, so success-rate math over
  // lookups is not inflated by retried attempts.
  if (options_.metrics != nullptr) {
    options_.metrics->counters().Inc(m_lookups_);
  }
  const uint64_t lookup_id = ++next_lookup_id_;
  // Root (or child, when the index layer is already tracing) span covering
  // every attempt of this lookup.
  const trace::OpToken op = TraceOp("router.lookup", key);
  StartAttempt(key, lookup_id, options_.max_retries, std::move(done), op);
}

void RouterBase::StartAttempt(Key key, uint64_t lookup_id, int retries_left,
                              LookupFn done, const trace::OpToken& op) {
  if (options_.metrics != nullptr) {
    options_.metrics->counters().Inc(m_attempts_);
  }
  pending_[lookup_id] = PendingLookup{std::move(done), op};
  LookupRequest req;
  req.lookup_id = lookup_id;
  req.key = key;
  req.initiator = id();
  req.hops = 0;
  req.hops_left = kHopBudget;
  req.greedy = greedy_;
  RouteOrAnswer(req);

  After(options_.lookup_timeout,
               [this, key, lookup_id, retries_left]() {
                 auto it = pending_.find(lookup_id);
                 if (it == pending_.end()) return;  // answered
                 LookupFn done = std::move(it->second.done);
                 const trace::OpToken op = it->second.op;
                 pending_.erase(it);
                 if (retries_left > 0) {
                   if (options_.metrics != nullptr) {
                     options_.metrics->counters().Inc(m_retries_);
                   }
                   TraceMark("router.lookup_retry", key);
                   // The retry id must come from the same allocator as fresh
                   // ids: a derived id (the old lookup_id + (1<<20) scheme)
                   // eventually collides with a fresh lookup, whose pending_
                   // insert then silently overwrites the live retry entry
                   // and drops its callback.
                   StartAttempt(key, ++next_lookup_id_, retries_left - 1,
                                std::move(done), op);
                 } else {
                   TraceFinish(op);
                   done(Status::TimedOut("lookup failed"), sim::kNullNode, 0);
                 }
               });
}

void RouterBase::HandleRequest(const sim::Message& msg,
                               const LookupRequest& req) {
  const ring::PeerState state = ring_->state();
  const bool member =
      state != ring::PeerState::kFree && state != ring::PeerState::kJoining;
  if (msg.rpc_id != 0) {
    Reply(msg, sim::MakePayload<LookupForwardAck>(!member));
    if (!member) return;
  }
  RouteOrAnswer(req);
}

void RouterBase::HandleReply(const sim::Message&, const LookupReply& reply) {
  auto it = pending_.find(reply.lookup_id);
  if (it == pending_.end()) return;  // late duplicate
  LookupFn done = std::move(it->second.done);
  TraceFinish(it->second.op);
  pending_.erase(it);
  if (m_hops_ != nullptr) {
    m_hops_->Add(static_cast<double>(reply.hops));
  }
  done(Status::OK(), reply.owner, reply.hops);
}

void RouterBase::RouteOrAnswer(const LookupRequest& req, sim::NodeId avoid,
                               sim::SimTime held_since) {
  if (ds_->active() && ds_->range().Contains(req.key)) {
    if (options_.monitor != nullptr) {
      // Owner answer: the lookup is charged to this arc, once, at the hop
      // that resolves it — forwarding hops are message traffic, not load.
      options_.monitor->OnLookupServed(id(), now());
    }
    auto reply = std::make_shared<LookupReply>();
    reply->lookup_id = req.lookup_id;
    reply->owner = id();
    reply->hops = req.hops;
    if (req.initiator == id()) {
      // Local hit: complete without a network round trip.
      HandleReply(sim::Message{}, *reply);
    } else {
      Send(req.initiator, reply);
    }
    return;
  }
  if (req.hops_left <= 0) {
    // Budget exhausted: the initiator retries.
    if (options_.metrics != nullptr) {
      options_.metrics->counters().Inc(m_budget_exhausted_);
    }
    TraceMark("router.budget_exhausted", req.key);
    return;
  }

  const Key self = ring_->val();
  const RingRange passed = RingRange::OpenClosed(req.from_val, self);
  if (req.has_from && ds_->active() && passed.Contains(req.key)) {
    // Sent here as the key's successor, yet not the owner: the owner lies
    // in (from_val, self].  Walk back rather than on round the ring.
    const sim::NodeId pred = ring_->pred_id();
    const Key pred_val = ring_->pred_val();
    if (ring_->has_pred() && pred != id() && pred != avoid &&
        pred_val != self && passed.Contains(pred_val) &&
        RingRange::OpenClosed(req.from_val, pred_val).Contains(req.key)) {
      if (options_.metrics != nullptr) {
        options_.metrics->counters().Inc(m_handed_back_);
      }
      TraceMark("router.handed_back", req.key);
      auto back = std::make_shared<LookupRequest>(req);
      back->hops = req.hops + 1;
      back->hops_left = req.hops_left - 1;
      // A predecessor that refuses or does not ack is not asked again for
      // this lookup; it is re-checked here and held.
      Call(
          pred, back,
          [this, req, pred, held_since](const sim::Message& m) {
            const auto& ack = static_cast<const LookupForwardAck&>(*m.payload);
            if (ack.refused) RouteOrAnswer(req, pred, held_since);
          },
          4 * ring_->options().ping_timeout,
          [this, req, pred, held_since]() {
            RouteOrAnswer(req, pred, held_since);
          });
      return;
    }
    Hold(req, avoid, held_since);
    return;
  }

  sim::NodeId next = req.greedy ? NextHop(req.key) : sim::kNullNode;
  if (next == sim::kNullNode || next == id()) {
    auto succ = ring_->GetSuccRelaxed();
    if (!succ.has_value() || succ->id == id()) {
      // Nowhere to forward at all — the same silent stall as an
      // unreachable hop, so it counts toward the same bounded event.
      if (options_.metrics != nullptr) {
        options_.metrics->counters().Inc(m_dead_end_);
      }
      TraceMark("router.fwd_dead_end", req.key);
      return;
    }
    next = succ->id;
  }

  auto fwd = std::make_shared<LookupRequest>(req);
  fwd->hops = req.hops + 1;
  fwd->hops_left = req.hops_left - 1;
  fwd->has_from = true;
  fwd->from_val = self;

  // Acknowledged forwarding: if the chosen hop is dead, fall back to the
  // ring successor, re-consulting the ring once more after that (the chain
  // repairs between consults) before the lookup is allowed to dead-end.
  ForwardLookup(std::move(fwd), next, /*ring_consults_left=*/2);
}

void RouterBase::Hold(const LookupRequest& req, sim::NodeId avoid,
                      sim::SimTime held_since) {
  const sim::SimTime t = now();
  const auto expired = [this, t](const HeldLookup& h) {
    return t - h.since >= options_.lookup_timeout;
  };
  held_.erase(std::remove_if(held_.begin(), held_.end(), expired),
              held_.end());
  if (held_since == kNotHeld) {
    held_since = t;
    if (options_.metrics != nullptr) {
      options_.metrics->counters().Inc(m_held_);
    }
    TraceMark("router.held", req.key);
  }
  HeldLookup h{req, avoid, held_since};
  if (!expired(h)) held_.push_back(std::move(h));
}

void RouterBase::WakeHeld() {
  if (held_.empty()) return;
  std::vector<HeldLookup> batch;
  batch.swap(held_);
  for (const HeldLookup& h : batch) {
    if (now() - h.since >= options_.lookup_timeout) continue;
    RouteOrAnswer(h.req, h.avoid, h.since);
  }
}

void RouterBase::ForwardLookup(std::shared_ptr<LookupRequest> fwd,
                               sim::NodeId next, int ring_consults_left) {
  Call(
      next, fwd,
      [this, fwd, next, ring_consults_left](const sim::Message& m) {
        const auto& ack = static_cast<const LookupForwardAck&>(*m.payload);
        if (ack.refused) ForwardFallback(fwd, next, ring_consults_left);
      },
      4 * ring_->options().ping_timeout,
      [this, fwd, next, ring_consults_left]() {
        ForwardFallback(fwd, next, ring_consults_left);
      });
}

void RouterBase::ForwardFallback(std::shared_ptr<LookupRequest> fwd,
                                 sim::NodeId next, int ring_consults_left) {
  auto succ = ring_->GetSuccRelaxed();
  if (ring_consults_left <= 0 || !succ.has_value() || succ->id == id() ||
      succ->id == next) {
    // No fresh hop to try: the lookup silently stalls until the
    // initiator-side retry.  Counted so scenario probes can see and bound
    // the event instead of misattributing it as a timeout.
    if (options_.metrics != nullptr) {
      options_.metrics->counters().Inc(m_dead_end_);
    }
    TraceMark("router.fwd_dead_end", fwd->key);
    return;
  }
  ForwardLookup(std::move(fwd), succ->id, ring_consults_left - 1);
}

sim::NodeId LinearRouter::NextHop(Key /*key*/) {
  auto succ = ring_->GetSuccRelaxed();
  if (!succ.has_value()) return sim::kNullNode;
  return succ->id;
}

}  // namespace pepper::router
