#include "router/hrf_router.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "telemetry/load_monitor.h"

namespace pepper::router {

namespace {

// Height cap of the routing hierarchy: level i spans ~2^i peers, so rings
// never come near it; it only bounds a refresh pass.
constexpr size_t kMaxLevels = 48;

}  // namespace

HrfRouter::HrfRouter(ring::RingNode* ring, datastore::DataStoreNode* ds,
                     HrfOptions options)
    : RouterBase(ring, ds, options.base, /*greedy=*/true),
      hrf_options_(std::move(options)),
      current_period_(hrf_options_.refresh_period),
      last_state_(ring->state()) {
  if (options_.metrics != nullptr) {
    Counters& c = options_.metrics->counters();
    m_refresh_replies_ = c.Intern("router.refresh_replies");
    m_refresh_rpcs_ = c.Intern("router.refresh_rpcs");
    m_refresh_passes_ = c.Intern("router.refresh_passes");
    m_levels_spill_ = c.Intern("router.levels_spill");
    m_refresh_skipped_ = c.Intern("router.refresh_skipped");
    m_refresh_hard_events_ = c.Intern("router.refresh_hard_events");
    m_refresh_deltas_ = c.Intern("router.refresh_deltas");
    m_cadence_backoffs_ = c.Intern("router.cadence_backoffs");
    m_cadence_resets_ = c.Intern("router.cadence_resets");
  }
  if (options_.monitor != nullptr) {
    // Seed the staleness clock at birth: a freshly recruited peer has not
    // *missed* a refresh yet, so the stall probe must not trip on it.
    options_.monitor->OnRefreshPass(id(), now());
  }
  On<GetLevelsRequest>(
      [this](const sim::Message& m, const GetLevelsRequest&) {
        auto reply = std::make_shared<GetLevelsReply>();
        if (!levels_.empty()) {
          reply->valid = true;
          for (const LevelEntry& e : levels_) reply->entries.push_back(e);
        }
        if (options_.metrics != nullptr) {
          options_.metrics->counters().Inc(m_refresh_replies_);
          if (reply->entries.spilled()) {
            options_.metrics->counters().Inc(m_levels_spill_);
          }
        }
        Reply(m, reply);
      });
  // Any ring event snaps the refresh cadence back to the base period; the
  // hooks are multi-subscriber (replication listens too).
  ring_->add_on_successor_failed([this](sim::NodeId, Key) { OnRingEvent(); });
  ring_->add_on_new_successor([this](sim::NodeId, Key) { OnRingEvent(); });
  // The only RNG draw the refresh path ever makes: the initial phase.
  // Cadence changes re-arm with fixed delays (SetPeriod), so adaptive
  // behavior never shifts the simulator's random stream — same-seed replay
  // holds.
  refresh_timer_ = Every("router.refresh", hrf_options_.refresh_period,
                         [this]() { Tick(); },
                         RandomPhase(hrf_options_.refresh_period));
}

uint64_t HrfRouter::DistFromSelf(Key to) const {
  return to - ring_->val();  // modular arithmetic on unsigned Key
}

// --- Refresh pass with stability-adaptive cadence --------------------------

void HrfRouter::Tick() {
  const ring::PeerState state = ring_->state();
  if (state != last_state_) {
    last_state_ = state;
    SetPeriod(hrf_options_.refresh_period);
  }
  if (state != ring::PeerState::kJoined &&
      state != ring::PeerState::kInserting) {
    if (!levels_.empty()) {
      levels_.clear();
      SetPeriod(hrf_options_.refresh_period);
    }
    // No pass is owed outside member states — advance the staleness clock so
    // time spent in the free pool never reads as a refresh stall on join.
    if (options_.monitor != nullptr) {
      options_.monitor->OnRefreshPass(id(), now());
    }
    return;
  }
  if (pass_active_) {
    // The previous pass is still waiting on a chain peer (slow or dead
    // hop); starting another would race it on levels_, and its outcome
    // will reset the cadence anyway.
    if (options_.metrics != nullptr) {
      options_.metrics->counters().Inc(m_refresh_skipped_);
    }
    return;
  }
  auto succ = ring_->GetSuccRelaxed();
  if (!succ.has_value() || succ->id == id()) {
    if (!levels_.empty()) {
      levels_.clear();
      SetPeriod(hrf_options_.refresh_period);
    }
    // Lone peer: nothing to refresh, so no pass is owed.  The pass_active_
    // skip above deliberately does NOT mark — a pass stuck in flight is the
    // very signal the stall probe exists to catch.
    if (options_.monitor != nullptr) {
      options_.monitor->OnRefreshPass(id(), now());
    }
    return;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->counters().Inc(m_refresh_passes_);
  }
  ++pass_epoch_;
  pass_active_ = true;
  pass_changed_ = false;
  pass_op_ = TraceOp("router.refresh_pass");
  const LevelEntry level0{succ->id, succ->val};
  if (levels_.empty()) {
    levels_.push_back(level0);
    pass_changed_ = true;
  } else if (levels_[0] != level0) {
    levels_[0] = level0;
    pass_changed_ = true;
  }
  ChainStep(1, pass_epoch_);
}

void HrfRouter::ChainStep(size_t level, uint64_t pass_epoch) {
  if (level >= kMaxLevels || level > levels_.size()) {
    FinishPass(pass_epoch, false);
    return;
  }
  const LevelEntry base = levels_[level - 1];
  if (base.id == sim::kNullNode) {
    FinishPass(pass_epoch, false);
    return;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->counters().Inc(m_refresh_rpcs_);
  }
  Call(
      base.id, std::make_shared<GetLevelsRequest>(),
      [this, level, base, pass_epoch](const sim::Message& m) {
        if (pass_epoch != pass_epoch_) return;  // superseded pass
        // In-flight race guards: a reply landing after the hierarchy was
        // cleared/truncated below `level` (or rebuilt through another peer)
        // must not re-grow it.
        if (level > levels_.size() || levels_[level - 1] != base) {
          FinishPass(pass_epoch, true);
          return;
        }
        const auto& reply = static_cast<const GetLevelsReply&>(*m.payload);
        // The level-i pointer is the remote's level-(i-1) entry (the remote
        // *is* our level-(i-1) pointer, so its level-(i-1) entry is ~2^i
        // successors away) — validated by the wrap/monotonic-distance
        // checks.
        if (!reply.valid || reply.entries.size() < level) {
          TruncateAndFinish(level, pass_epoch);
          return;
        }
        const LevelEntry entry = reply.entries[level - 1];
        if (entry.id == sim::kNullNode || entry.id == id() ||
            DistFromSelf(entry.val) <= DistFromSelf(base.val)) {
          TruncateAndFinish(level, pass_epoch);
          return;
        }
        if (level < levels_.size()) {
          if (levels_[level] != entry) {
            levels_[level] = entry;
            pass_changed_ = true;
          }
        } else {
          levels_.push_back(entry);
          pass_changed_ = true;
        }
        ChainStep(level + 1, pass_epoch);
      },
      options_.lookup_timeout, [this, level, pass_epoch]() {
        // Truncate only (growing here would insert null entries), and treat
        // a timed-out chain peer as instability: the hierarchy references a
        // dead or slow hop and should be rebuilt at the base cadence.
        if (pass_epoch == pass_epoch_ && levels_.size() > level) {
          levels_.resize(level);
        }
        FinishPass(pass_epoch, true);
      });
}

void HrfRouter::TruncateAndFinish(size_t level, uint64_t pass_epoch) {
  // The hierarchy wraps at `level`.  Shrinking is a change; wrapping at the
  // same height as the previous pass is the steady state.
  if (levels_.size() > level) {
    levels_.resize(level);
    pass_changed_ = true;
  }
  FinishPass(pass_epoch, /*hard=*/false);
}

void HrfRouter::FinishPass(uint64_t pass_epoch, bool hard) {
  if (pass_epoch != pass_epoch_ || !pass_active_) return;
  pass_active_ = false;
  TraceFinish(pass_op_);
  pass_op_ = trace::OpToken{};
  // Marks completion: a pass stuck on a dead chain peer keeps
  // the staleness clock running, which is exactly the health signal.
  if (options_.monitor != nullptr) {
    options_.monitor->OnRefreshPass(id(), now());
  }
  if (hard) {
    // A dead/stalled chain peer or a hierarchy cleared under the pass:
    // instability right here — full snap to the base period.  Counted
    // separately from soft vector deltas so the two cadence rules stay
    // distinguishable in the metrics.
    if (options_.metrics != nullptr) {
      options_.metrics->counters().Inc(m_refresh_hard_events_);
    }
    soft_delta_streak_ = 0;
    SetPeriod(hrf_options_.refresh_period);
  } else if (pass_changed_) {
    // A remote vector delta.  At paper scale over half of all passes see
    // *some* far-away entry move (splits, joins and failures anywhere in a
    // level's 2^i-span show up in the assembled vector), so reacting to
    // every one would pin the whole ring at the base cadence and forfeit
    // the batching win.  Staleness is harmless by contract; only a
    // *sustained* delta stream is worth chasing: two consecutive delta
    // passes halve the period (converging to base within a few passes
    // wherever churn is persistent), a one-off delta leaves it alone.
    // Hard local events (successor failed / new successor / state change /
    // chain timeout) still snap straight to base above.
    if (options_.metrics != nullptr) {
      options_.metrics->counters().Inc(m_refresh_deltas_);
    }
    if (++soft_delta_streak_ >= 2) {
      soft_delta_streak_ = 0;
      SetPeriod(std::max(hrf_options_.refresh_period, current_period_ / 2));
    }
  } else if (current_period_ < hrf_options_.max_refresh_period) {
    soft_delta_streak_ = 0;
    SetPeriod(std::min(current_period_ * 2,
                       hrf_options_.max_refresh_period));
  } else {
    soft_delta_streak_ = 0;
  }
}

void HrfRouter::SetPeriod(sim::SimTime period) {
  if (period == current_period_) return;
  if (options_.metrics != nullptr) {
    options_.metrics->counters().Inc(period > current_period_
                                         ? m_cadence_backoffs_
                                         : m_cadence_resets_);
  }
  current_period_ = period;
  CancelTimer(refresh_timer_);
  // Event-driven re-arm with a fixed initial delay — deliberately NOT a
  // RandomPhase draw: cadence changes must not consume simulator
  // randomness, or adaptive runs would diverge from the same-seed replay
  // contract.
  refresh_timer_ =
      Every("router.refresh", period, [this]() { Tick(); }, period);
}

void HrfRouter::OnRingEvent() {
  // Successor failed / new successor: the ring changed right here — snap
  // back to the base cadence so the hierarchy re-converges quickly.
  SetPeriod(hrf_options_.refresh_period);
}

sim::NodeId HrfRouter::NextHop(Key key) {
  const uint64_t target = DistFromSelf(key);
  if (target == 0) return sim::kNullNode;
  sim::NodeId best = sim::kNullNode;
  uint64_t best_dist = 0;
  for (const LevelEntry& e : levels_) {
    const uint64_t d = DistFromSelf(e.val);
    if (d == 0) continue;
    // Safe jumps land at or before the key's owner candidate: e.val in
    // (self, key].
    if (d <= target && d > best_dist) {
      best = e.id;
      best_dist = d;
    }
  }
  return best;
}

}  // namespace pepper::router
