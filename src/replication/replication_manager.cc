#include "replication/replication_manager.h"

#include <memory>
#include <optional>
#include <utility>

#include "replication/revive_protocol.h"
#include "ring/ring_messages.h"

namespace pepper::replication {

namespace {

// A snapshot of `owner`'s group as held here, forwarded `hops_left` more
// times: a departure's extra hop, or a cut chain re-forwarded.
std::shared_ptr<ReplicaPushMsg> GroupSnapshot(sim::NodeId owner,
                                              const ReplicaGroup& group,
                                              int hops_left) {
  auto push = std::make_shared<ReplicaPushMsg>();
  push->owner = owner;
  push->owner_val = group.owner_val;
  push->items.reserve(group.items().size());
  push->epochs.reserve(group.epochs().size());
  for (const auto& [skv, item] : group.items()) push->items.push_back(item);
  for (const auto& [skv, epoch] : group.epochs()) push->epochs.push_back(epoch);
  push->manifest = group.Manifest();
  push->hops_left = hops_left;
  return push;
}

}  // namespace

ReplicationManager::ReplicationManager(ring::RingNode* ring,
                                       datastore::DataStoreNode* ds,
                                       ReplicationOptions options)
    : sim::ProtocolComponent(ring->node()),
      ring_(ring),
      ds_(ds),
      options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    Counters& c = options_.metrics->counters();
    m_push_msgs_ = c.Intern("repl.push_msgs");
    m_push_rpcs_ = c.Intern("repl.push_rpcs");
    m_push_acked_ = c.Intern("repl.push_acked");
    m_delta_pushes_ = c.Intern("repl.delta_pushes");
    m_snapshot_pushes_ = c.Intern("repl.snapshot_pushes");
    m_push_bytes_ = c.Intern("repl.push_bytes");
    m_bytes_saved_ = c.Intern("repl.bytes_saved");
    m_pushes_ = c.Intern("repl.pushes");
    m_pushes_coalesced_ = c.Intern("repl.pushes_coalesced");
    m_groups_expired_ = c.Intern("repl.groups_expired");
    m_dead_groups_retained_ = c.Intern("repl.dead_groups_retained");
    m_push_timeouts_ = c.Intern("repl.push_timeouts");
    m_chain_resets_ = c.Intern("repl.chain_resets");
    m_stale_snapshots_ = c.Intern("repl.stale_snapshots");
    m_delta_misses_ = c.Intern("repl.delta_misses");
    m_stale_deltas_ = c.Intern("repl.stale_deltas");
    m_manifest_mismatches_ = c.Intern("repl.manifest_mismatches");
    m_delta_applies_ = c.Intern("repl.delta_applies");
    m_snapshot_repairs_ = c.Intern("repl.snapshot_repairs");
    m_chain_reforwards_ = c.Intern("repl.chain_reforwards");
    m_extra_hop_ops_ = c.Intern("repl.extra_hop_ops");
    m_extra_hop_groups_ = c.Intern("repl.extra_hop_groups");
    m_groups_purged_ = c.Intern("repl.groups_purged");
  }
  On<ReplicaPushMsg>(
      [this](const sim::Message& m, const ReplicaPushMsg& push) {
        HandlePush(m, push);
      });
  On<ReplicaDeltaMsg>(
      [this](const sim::Message& m, const ReplicaDeltaMsg& delta) {
        HandleDelta(m, delta);
      });
  On<ReplicaRepairRequest>(
      [this](const sim::Message& m, const ReplicaRepairRequest&) {
        HandleRepairRequest(m);
      });
  revive_ = std::make_unique<ReviveProtocol>(this);
  Every("repl.refresh", options_.refresh_period,
        [this]() { RefreshTick(); }, RandomPhase(options_.refresh_period));
}

ReplicationManager::~ReplicationManager() = default;

void ReplicaGroup::Upsert(const datastore::Item& item, uint64_t epoch) {
  auto [it, inserted] = epochs_.try_emplace(item.skv, epoch);
  if (!inserted) {
    hash_ -= ManifestTerm(item.skv, it->second);
    it->second = epoch;
  }
  hash_ += ManifestTerm(item.skv, epoch);
  items_.insert_or_assign(item.skv, item);
}

void ReplicaGroup::Erase(Key skv) {
  auto it = epochs_.find(skv);
  if (it == epochs_.end()) return;
  hash_ -= ManifestTerm(skv, it->second);
  epochs_.erase(it);
  items_.erase(skv);
}

ReplicaManifest ReplicaGroup::ManifestAfter(
    const std::vector<datastore::Item>& upserts,
    const std::vector<uint64_t>& upsert_epochs,
    const std::vector<Key>& deletes, uint64_t at) const {
  // Final epoch of every key the delta touches (none: erased), applied in
  // the order HandleDelta applies them — upserts, then deletes.
  std::map<Key, std::optional<uint64_t>> touched;
  for (size_t i = 0; i < upserts.size(); ++i) {
    touched[upserts[i].skv] = upsert_epochs[i];
  }
  for (Key k : deletes) touched[k] = std::nullopt;
  ReplicaManifest m = ManifestAt(at);
  for (const auto& [skv, epoch] : touched) {
    auto it = epochs_.find(skv);
    if (it != epochs_.end()) {
      m.hash -= ManifestTerm(skv, it->second);
      --m.count;
    }
    if (epoch.has_value()) {
      m.hash += ManifestTerm(skv, *epoch);
      ++m.count;
    }
  }
  return m;
}

void ReplicaGroup::Reset() {
  items_.clear();
  epochs_.clear();
  hash_ = 0;
}

void ReplicationManager::RefreshTick() {
  // Age out groups whose owner stopped refreshing long ago — but never
  // blindly: an expired group whose owner is DEAD may hold the last copies
  // of an arc the ring has not yet repaired its way back to (a successor
  // pointer that skipped a peer can stall the takeover for minutes).  Ping
  // the owner: an answer (alive, or departed FREE) means the copy is
  // disposable bookkeeping; silence means revival may still need it, so it
  // survives another TTL period, up to the strike budget.
  const sim::SimTime now_us = now();
  for (auto it = groups_.begin(); it != groups_.end();) {
    ReplicaGroup& group = it->second;
    if (now_us - group.refreshed_at > options_.group_ttl) {
      if (group.ttl_strikes >= options_.dead_owner_ttl_strikes) {
        it = groups_.erase(it);
        continue;
      }
      ++group.ttl_strikes;
      group.refreshed_at = now_us;  // re-arm one TTL while the ping settles
      const sim::NodeId owner = it->first;
      Call(
          owner, sim::MakePayload<ring::PingRequest>(),
          [this, owner](const sim::Message&) {
            // The owner answered: whatever it is now (live and displaced
            // us, or departed after handing off), this copy is obsolete.
            // A push since the ping (strikes reset) keeps the group.
            auto group_it = groups_.find(owner);
            if (group_it != groups_.end() &&
                group_it->second.ttl_strikes > 0) {
              groups_.erase(group_it);
              Inc(m_groups_expired_);
            }
          },
          ring_->options().ping_timeout,
          [this]() { Inc(m_dead_groups_retained_); });
    }
    ++it;
  }
  PushNow();
}

template <typename Visit>
void ReplicationManager::ScanOwnItems(Visit&& visit) {
  ReplicaManifest manifest{ds_->mutation_epoch(), 0, 0};
  size_t snapshot_cost = kManifestWireBytes;
  ds_->ForEachItem([&](const datastore::Item& item, uint64_t epoch) {
    ++manifest.count;
    manifest.hash += ManifestTerm(item.skv, epoch);
    snapshot_cost += WireBytes(item);
    visit(item, epoch);
  });
  own_manifest_ = manifest;
  own_snapshot_cost_ = snapshot_cost;
}

std::shared_ptr<ReplicaPushMsg> ReplicationManager::MakeSnapshot(
    int hops_left, bool direct) {
  auto push = std::make_shared<ReplicaPushMsg>();
  push->owner = id();
  push->owner_val = ring_->val();
  const size_t n = ds_->ItemCount();
  push->items.reserve(n);
  push->epochs.reserve(n);
  ScanOwnItems([&push](const datastore::Item& item, uint64_t epoch) {
    push->items.push_back(item);
    push->epochs.push_back(epoch);
  });
  push->manifest = own_manifest_;
  push->hops_left = hops_left;
  push->direct = direct;
  return push;
}

// --- Push hops ---------------------------------------------------------------
// Only a hop whose sender waits on it is an RPC.  Channels are reliable and
// FIFO and peers fail-stop, so resending a plain hop could only duplicate
// it, and the ring's failure detector already reports a dead successor.
// The bookkeeping invariant (checked by tests after a quiesce):
//   repl.push_rpcs == repl.push_acked + repl.push_timeouts
// with outstanding_pushes() == 0.  repl.push_msgs counts every hop.

void ReplicationManager::SendPushHop(
    sim::NodeId to, sim::PayloadPtr payload,
    std::function<void(HopResult)> on_settled) {
  Inc(m_push_msgs_);
  if (!on_settled) {
    Send(to, std::move(payload));
    return;
  }
  ++outstanding_pushes_;
  Inc(m_push_rpcs_);
  Call(
      to, std::move(payload),
      [this, on_settled](const sim::Message& m) {
        --outstanding_pushes_;
        Inc(m_push_acked_);
        // Delivered; `applied` distinguishes a hop that also absorbed the
        // content from one that needs a snapshot first (durable acks care).
        const auto& ack = static_cast<const ReplicaPushAck&>(*m.payload);
        on_settled(ack.applied ? HopResult::kApplied : HopResult::kNotApplied);
      },
      options_.rpc_timeout,
      [this, on_settled]() {
        --outstanding_pushes_;
        Inc(m_push_timeouts_);
        on_settled(HopResult::kLost);
      });
}

// --- Owner side: refresh pushes ---------------------------------------------

void ReplicationManager::PushNow(std::function<void(bool)> settled) {
  if (!ds_->active() || options_.replication_factor == 0) {
    // Nothing to replicate (or nowhere meaningful): moot, not a failure.
    if (settled) settled(true);
    return;
  }
  auto succ = ring_->GetSuccRelaxed();
  if (!succ.has_value() || succ->id == id()) {
    if (settled) settled(true);  // lone peer: as durable as it can get
    return;
  }
  const int hops = static_cast<int>(options_.replication_factor) - 1;
  const bool warm = chain_warm_;
  // A quiet round: the store has not changed since the last push on this
  // warm chain (every change that moves the mutation epoch moves the content
  // version too), so the delta is provably empty, and the manifest and
  // snapshot cost that push left in the cache still hold.  The store is not
  // walked.
  const bool quiet = warm && ds_->content_version() == last_push_content_;

  std::function<void(HopResult)> on_first_hop;
  if (settled) {
    on_first_hop = [settled = std::move(settled)](HopResult r) {
      settled(r == HopResult::kApplied);
    };
  }
  std::shared_ptr<ReplicaPushMsg> snapshot;
  std::shared_ptr<ReplicaDeltaMsg> delta;
  if (!warm) {
    snapshot = MakeSnapshot(hops, /*direct=*/false);
    last_push_epochs_.clear();
    for (size_t i = 0; i < snapshot->items.size(); ++i) {
      last_push_epochs_.emplace_back(snapshot->items[i].skv,
                                     snapshot->epochs[i]);
    }
  } else {
    delta = std::make_shared<ReplicaDeltaMsg>();
    delta->owner = id();
    delta->owner_val = ring_->val();
    delta->from_version = last_push_version_;
    delta->hops_left = hops;
    if (!quiet) {
      // One walk, merge-joined against the key-ascending base: keys new or
      // re-stamped since the base are upserts, keys only in the base are
      // deletes.
      std::vector<std::pair<Key, uint64_t>> current;
      current.reserve(ds_->ItemCount());
      auto base = last_push_epochs_.cbegin();
      const auto base_end = last_push_epochs_.cend();
      ScanOwnItems([&](const datastore::Item& item, uint64_t epoch) {
        current.emplace_back(item.skv, epoch);
        while (base != base_end && base->first < item.skv) {
          delta->deletes.push_back((base++)->first);
        }
        if (base != base_end && base->first == item.skv) {
          const bool unchanged = base->second == epoch;
          ++base;
          if (unchanged) return;
        }
        delta->upserts.push_back(item);
        delta->upsert_epochs.push_back(epoch);
      });
      for (; base != base_end; ++base) delta->deletes.push_back(base->first);
      last_push_epochs_ = std::move(current);
    }
    delta->manifest = own_manifest_;
  }
  const size_t snapshot_cost = own_snapshot_cost_;
  if (delta != nullptr) {
    size_t delta_cost =
        kManifestWireBytes + delta->deletes.size() * kDeleteWireBytes;
    for (const auto& it : delta->upserts) delta_cost += WireBytes(it);
    if (delta_cost < snapshot_cost) {
      SendPushHop(succ->id, delta, std::move(on_first_hop));
      Inc(m_delta_pushes_);
      Inc(m_push_bytes_, delta_cost);
      Inc(m_bytes_saved_, snapshot_cost - delta_cost);
    } else {
      // A delta as large as the snapshot (a total rewrite, or an empty
      // store) goes as the snapshot: same bytes, unconditional apply.
      snapshot = MakeSnapshot(hops, /*direct=*/false);
    }
  }
  if (snapshot != nullptr) {
    SendPushHop(succ->id, snapshot, std::move(on_first_hop));
    Inc(m_snapshot_pushes_);
    Inc(m_push_bytes_, snapshot_cost);
  }
  Inc(m_pushes_);
  last_push_version_ = ds_->mutation_epoch();
  last_push_content_ = ds_->content_version();
  chain_warm_ = true;
}

void ReplicationManager::OnLocalItemsChanged() {
  if (push_scheduled_) return;
  push_scheduled_ = true;
  After(options_.push_delay, [this]() {
    push_scheduled_ = false;
    // The durable-ack path often pushes the same mutation synchronously
    // before this debounce fires; an extra empty heartbeat down k
    // hops per mutation adds nothing (the periodic refresh handles
    // keep-alive).  The test is on the content version, not the mutation
    // epoch: an activation clear that stores nothing changes the content
    // but not the epoch, and its push must still go out.
    if (chain_warm_ && ds_->content_version() == last_push_content_) {
      Inc(m_pushes_coalesced_);
      return;
    }
    PushNow();
  });
}

void ReplicationManager::OnSuccessorFailed(sim::NodeId /*succ*/) {
  // Reacting *immediately* (instead of waiting for the next refresh) is part
  // of the PEPPER availability protocol; the naive CFS baseline the
  // ablations compare against reacts to nothing.
  const bool react = ds_->options().pepper_availability;
  auto next = ring_->GetSuccRelaxed();
  if (react && next.has_value() && next->id != id()) {
    // Every chain forwarded here since the successor died stopped with it
    // (chain hops are plain sends), so the holders behind it missed those
    // rounds.  Mend each chain from here, before its owner and this copy
    // can both die: the group goes on as a snapshot, as far as its last
    // chain message would have gone.
    for (const auto& [owner, group] : groups_) {
      if (group.hops_left <= 0 || owner == next->id) continue;
      SendPushHop(next->id, GroupSnapshot(owner, group, group.hops_left - 1));
      Inc(m_chain_reforwards_);
    }
  }
  if (!ds_->active()) return;
  // The chain's first hop changed under crash suspicion: the next push must
  // be a full snapshot along the repaired chain.  The window where a fresh
  // first holder lacks our group is exactly the Definition 7 gap.
  chain_warm_ = false;
  Inc(m_chain_resets_);
  if (react) PushNow();
}

// --- Holder side: applying pushes -------------------------------------------

template <typename ChainMsg>
void ReplicationManager::ContinueChain(const ChainMsg& msg) {
  auto group = groups_.find(msg.owner);
  if (group != groups_.end()) group->second.hops_left = msg.hops_left;
  if (msg.hops_left <= 0) return;
  auto succ = ring_->GetSuccRelaxed();
  // The chain also ends where it wraps back to its owner on a small ring.
  if (!succ.has_value() || succ->id == id() || succ->id == msg.owner) return;
  auto fwd = std::make_shared<ChainMsg>(msg);
  fwd->hops_left = msg.hops_left - 1;
  SendPushHop(succ->id, std::move(fwd));
}

void ReplicationManager::ApplySnapshot(const ReplicaPushMsg& push) {
  ReplicaGroup& group = groups_[push.owner];
  if (group.version > push.manifest.version) {
    // Stale copy (an extra-hop forward or a chain hop racing a direct
    // repair): never regress a fresher group.
    Inc(m_stale_snapshots_);
    return;
  }
  group.owner_val = push.owner_val;
  group.Reset();
  for (size_t i = 0; i < push.items.size(); ++i) {
    group.Upsert(push.items[i], push.epochs[i]);
  }
  ++replica_upserts_;
  group.version = push.manifest.version;
  group.refreshed_at = now();
  group.ttl_strikes = 0;
}

void ReplicationManager::HandlePush(const sim::Message& msg,
                                    const ReplicaPushMsg& push) {
  ApplySnapshot(push);
  if (msg.rpc_id != 0) {
    Reply(msg, sim::MakePayload<ReplicaPushAck>());
  }
  if (!push.direct) ContinueChain(push);
}

void ReplicationManager::HandleDelta(const sim::Message& msg,
                                     const ReplicaDeltaMsg& delta) {
  bool need_full = false;
  auto it = groups_.find(delta.owner);
  if (it == groups_.end()) {
    // Never seen this owner (new holder, or the group aged out): only a
    // snapshot can seed us.
    need_full = true;
    Inc(m_delta_misses_);
  } else {
    ReplicaGroup& group = it->second;
    if (group.version == delta.manifest.version) {
      // Already current (the owner went quiet): the delta doubles as a
      // heartbeat.
      group.owner_val = delta.owner_val;
      group.refreshed_at = now();
      group.ttl_strikes = 0;
    } else if (group.version > delta.manifest.version) {
      // Stale delta (channels are FIFO only per sender pair: a forwarded
      // chain delta can trail a direct repair snapshot).  Our copy is
      // fresher — same never-regress rule as ApplySnapshot, and no repair
      // request: a repair would just re-send what we already hold.
      Inc(m_stale_deltas_);
    } else if (group.version == delta.from_version) {
      // End-to-end check, before touching the copy: applying the exact
      // diff must land on the owner's manifest; anything else is divergence
      // and gets the snapshot path.
      if (group.ManifestAfter(delta.upserts, delta.upsert_epochs,
                              delta.deletes, delta.manifest.version) !=
          delta.manifest) {
        // The copy stays as it was, at its pre-delta version and refresh
        // time: it still serves revival, but cannot outrank a verified copy
        // when a revive picks the freshest answer.  The owner is alive, so
        // the copy must not age out before the repair snapshot lands.
        group.owner_val = delta.owner_val;
        group.ttl_strikes = 0;
        need_full = true;
        Inc(m_manifest_mismatches_);
      } else {
        for (size_t i = 0; i < delta.upserts.size(); ++i) {
          group.Upsert(delta.upserts[i], delta.upsert_epochs[i]);
        }
        ++replica_upserts_;
        for (Key k : delta.deletes) group.Erase(k);
        group.version = delta.manifest.version;
        group.owner_val = delta.owner_val;
        group.refreshed_at = now();
        group.ttl_strikes = 0;
        Inc(m_delta_applies_);
      }
    } else {
      // Our copy is off the chain (missed a push, or was point-repaired at
      // an off-chain version).  Keep the stale group — it still serves
      // revival — and ask for a snapshot.
      need_full = true;
      Inc(m_delta_misses_);
    }
  }
  if (msg.rpc_id != 0) {
    auto ack = std::make_shared<ReplicaPushAck>();
    ack->applied = !need_full;
    Reply(msg, ack);
  }
  if (need_full && delta.owner != id()) {
    Send(delta.owner, sim::MakePayload<ReplicaRepairRequest>());
  }
  ContinueChain(delta);
}

// --- Owner side: repair ------------------------------------------------------

void ReplicationManager::HandleRepairRequest(const sim::Message& msg) {
  if (!ds_->active() || repairs_in_flight_.count(msg.from) > 0) return;
  RepairHolder(msg.from);
  // A repaired holder sits at an off-chain version until the next snapshot
  // round; re-sync the whole chain instead of re-repairing it every delta.
  chain_warm_ = false;
}

void ReplicationManager::RepairHolder(sim::NodeId holder) {
  repairs_in_flight_.insert(holder);
  Inc(m_snapshot_repairs_);
  SendPushHop(holder, MakeSnapshot(0, /*direct=*/true),
              [this, holder](HopResult) { repairs_in_flight_.erase(holder); });
}

// --- Departure (Section 5.2) -------------------------------------------------

void ReplicationManager::ReplicateExtraHop(
    std::function<void(const Status&)> done) {
  auto succ = ring_->GetSuccRelaxed();
  if (!succ.has_value() || succ->id == id()) {
    done(Status::Unavailable("no successor for extra-hop replication"));
    return;
  }
  // One message per group we hold, plus one for our own items; all pushed a
  // single additional hop (Figure 18).  Completion after the last ack.
  struct Pending {
    int remaining = 0;
    std::function<void(const Status&)> done;
    bool failed = false;
  };
  auto pending = std::make_shared<Pending>();
  pending->done = std::move(done);

  std::vector<std::shared_ptr<ReplicaPushMsg>> msgs;
  for (const auto& [owner, group] : groups_) {
    msgs.push_back(GroupSnapshot(owner, group, /*hops_left=*/0));
  }
  {
    // Our own items already sit on our k successors — and the first of them
    // is about to *own* them (merge takeover), which silently removes one
    // copy.  Push the extra replica one hop beyond the current holders
    // (Figure 18): k forwarding hops reach successor k+1.
    msgs.push_back(MakeSnapshot(static_cast<int>(options_.replication_factor),
                                /*direct=*/false));
  }
  pending->remaining = static_cast<int>(msgs.size());
  Inc(m_extra_hop_ops_);
  Inc(m_extra_hop_groups_, msgs.size());
  for (auto& m : msgs) {
    SendPushHop(succ->id, m, [pending](HopResult r) {
      if (r == HopResult::kLost) pending->failed = true;
      if (--pending->remaining == 0) {
        pending->done(pending->failed
                          ? Status::Unavailable("extra-hop push timed out")
                          : Status::OK());
      }
    });
  }
}

// --- Revival feeds -----------------------------------------------------------

std::vector<datastore::Item> ReplicationManager::CollectReplicasIn(
    const RingRange& arc) {
  std::vector<datastore::Item> out;
  for (const auto& kv : groups_) {
    ForEachInRange(kv.second.items(), arc, [&out](const auto& item_kv) {
      out.push_back(item_kv.second);
    });
  }
  return out;
}

bool ReplicationManager::AnyReplicaIn(
    const RingRange& arc, const std::function<bool(Key)>& pred) const {
  for (const auto& kv : groups_) {
    for (const auto& [first, last] : RunsInRange(kv.second.items(), arc)) {
      for (auto it = first; it != last; ++it) {
        if (pred(it->first)) return true;
      }
    }
  }
  return false;
}

std::vector<std::pair<sim::NodeId, Key>> ReplicationManager::GroupOwnersIn(
    const RingRange& arc) {
  std::vector<std::pair<sim::NodeId, Key>> out;
  for (const auto& kv : groups_) {
    if (arc.Contains(kv.second.owner_val)) {
      out.emplace_back(kv.first, kv.second.owner_val);
    }
  }
  return out;
}

void ReplicationManager::StartPullRevive(
    const RingRange& arc,
    std::function<void(const datastore::Item&)> promote) {
  if (!options_.pull_revive) return;
  revive_->StartRevive(arc, std::move(promote));
}

void ReplicationManager::StartReviveSweep(
    const RingRange& range, std::function<void(const datastore::Item&)> promote) {
  if (sweeping_) return;
  // Owners whose groups hold something inside the swept range.
  auto candidates = std::make_shared<std::vector<sim::NodeId>>();
  for (const auto& kv : groups_) {
    if (AnyInRange(kv.second.items(), range)) candidates->push_back(kv.first);
  }
  if (candidates->empty()) return;
  sweeping_ = true;
  // The stored lambda captures itself weakly (a strong capture would be a
  // shared_ptr cycle); the in-flight RPC callbacks hold the strong
  // reference that keeps the chain alive until it finishes.
  auto step = std::make_shared<std::function<void()>>();
  *step = [this, candidates, range, promote,
           weak_step = std::weak_ptr<std::function<void()>>(step)]() {
    auto step = weak_step.lock();
    if (step == nullptr) return;
    if (candidates->empty()) {
      sweeping_ = false;
      return;
    }
    const sim::NodeId owner = candidates->back();
    candidates->pop_back();
    Call(
        owner, sim::MakePayload<ring::PingRequest>(),
        [this, owner, step](const sim::Message& m) {
          const auto& reply = static_cast<const ring::PingReply&>(*m.payload);
          if (reply.state == ring::PeerState::kFree) {
            // Departed owner: its items were handed over at departure; this
            // frozen snapshot can only resurrect since-deleted items.
            groups_.erase(owner);
            Inc(m_groups_purged_);
          }
          (*step)();
        },
        ring_->options().ping_timeout,
        [this, owner, range, promote, step]() {
          // Owner is dead: its group is the legitimate revival source.
          auto it = groups_.find(owner);
          if (it != groups_.end()) {
            ForEachInRange(it->second.items(), range,
                           [&promote](const auto& item_kv) {
                             promote(item_kv.second);
                           });
          }
          (*step)();
        });
  };
  (*step)();
}

bool ReplicationManager::HoldsReplica(Key skv) const {
  for (const auto& kv : groups_) {
    if (kv.second.items().count(skv) > 0) return true;
  }
  return false;
}

sim::PayloadPtr ReplicationManager::MakeSeedForSuccessor() {
  if (!ds_->active()) return nullptr;
  // Align the chain base with the seed: the new successor's copy sits at
  // exactly the version the next delta will diff from, so it joins the
  // delta chain without a snapshot repair round.
  PushNow();
  return MakeSnapshot(0, /*direct=*/true);
}

void ReplicationManager::OnInfoFromPred(sim::NodeId /*pred*/,
                                        const sim::PayloadPtr& info) {
  if (info == nullptr) return;
  const auto* seed = dynamic_cast<const ReplicaPushMsg*>(info.get());
  if (seed != nullptr) ApplySnapshot(*seed);
}

}  // namespace pepper::replication
