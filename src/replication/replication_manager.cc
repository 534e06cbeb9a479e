#include "replication/replication_manager.h"

#include <memory>
#include <optional>
#include <utility>

#include "replication/revive_protocol.h"
#include "ring/ring_messages.h"

namespace pepper::replication {

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
    m_anti_entropy_probes_ = c.Intern("repl.anti_entropy_probes");
    m_anti_entropy_repairs_ = c.Intern("repl.anti_entropy_repairs");
    m_holders_dropped_ = c.Intern("repl.holders_dropped");
    m_holders_displaced_ = c.Intern("repl.holders_displaced");
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
  On<ReplicaStatusMsg>(
      [this](const sim::Message& m, const ReplicaStatusMsg& status) {
        HandleStatus(m, status);
      });
  On<ManifestProbeMsg>(
      [this](const sim::Message& m, const ManifestProbeMsg& probe) {
        HandleProbe(m, probe);
      });
  revive_ = std::make_unique<ReviveProtocol>(this);
  Every("repl.refresh", options_.refresh_period,
        [this]() { RefreshTick(); }, RandomPhase(options_.refresh_period));
  Every("repl.anti_entropy", anti_entropy_period(),
        [this]() { AntiEntropyTick(); }, RandomPhase(anti_entropy_period()));
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

sim::SimTime ReplicationManager::anti_entropy_period() const {
  return options_.anti_entropy_period != 0 ? options_.anti_entropy_period
                                           : 8 * options_.refresh_period;
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
  own_content_version_ = ds_->content_version();
  own_snapshot_cost_ = snapshot_cost;
}

const ReplicaManifest& ReplicationManager::OwnManifest() {
  if (own_content_version_ != ds_->content_version()) {
    ScanOwnItems([](const datastore::Item&, uint64_t) {});
  }
  return own_manifest_;
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
  push->pushed_at = now();
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
    delta->pushed_at = now();
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

void ReplicationManager::OnSuccessorFailed(sim::NodeId succ) {
  holders_.erase(succ);
  if (!ds_->active()) return;
  // The chain's first hop changed under crash suspicion: the next push must
  // be a full snapshot along the repaired chain.
  chain_warm_ = false;
  Inc(m_chain_resets_);
  // Re-pushing *immediately* (instead of waiting for the next refresh) is
  // part of the PEPPER availability protocol; the naive CFS baseline the
  // ablations compare against reacts to nothing.  The window where a fresh
  // first holder lacks our group is exactly the Definition 7 gap.
  if (ds_->options().pepper_availability) PushNow();
}

// --- Holder side: applying pushes -------------------------------------------

void ReplicationManager::SendStatus(sim::NodeId owner,
                                    std::vector<sim::NodeId> holders,
                                    bool need_full, bool from_chain,
                                    sim::SimTime round) {
  if (owner == id() || holders.empty()) return;
  auto status = std::make_shared<ReplicaStatusMsg>();
  status->holders = std::move(holders);
  status->need_full = need_full;
  status->from_chain = from_chain;
  status->round = round;
  Send(owner, status);
}

template <typename ChainMsg>
void ReplicationManager::ContinueChain(const ChainMsg& msg, bool clean) {
  const bool credit_self = clean && msg.owner != id();
  std::optional<ring::SuccEntry> succ;
  if (msg.hops_left > 0) succ = ring_->GetSuccRelaxed();
  if (!succ.has_value() || succ->id == id() || succ->id == msg.owner) {
    // The chain ends here (no hops left, or it wrapped around a small
    // ring): report every clean holder along it in one status.  Out of
    // hops or back at the owner, it has visited every holder the owner
    // still has, so it echoes its round.
    std::vector<sim::NodeId> credited = msg.clean_holders;
    if (credit_self) credited.push_back(id());
    const bool complete = !succ.has_value() ? msg.hops_left == 0
                                            : succ->id == msg.owner;
    SendStatus(msg.owner, std::move(credited), /*need_full=*/false,
               /*from_chain=*/true, complete ? msg.pushed_at : 0);
    return;
  }
  auto fwd = std::make_shared<ChainMsg>(msg);
  fwd->hops_left = msg.hops_left - 1;
  if (credit_self) fwd->clean_holders.push_back(id());
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
  // Applied, or stale behind a fresher copy: clean either way.
  if (push.direct) {
    SendStatus(push.owner, {id()}, /*need_full=*/false, /*from_chain=*/false);
  } else {
    ContinueChain(push, /*clean=*/true);
  }
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
      // fresher — same never-regress rule as ApplySnapshot, and no
      // need_full: a repair would just re-send what we already hold.
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
  // A repair is asked for at once; a clean copy is reported by the rollup.
  if (need_full) {
    SendStatus(delta.owner, {id()}, /*need_full=*/true, /*from_chain=*/true);
  }
  ContinueChain(delta, /*clean=*/!need_full);
}

// --- Owner side: holder book, repair, anti-entropy --------------------------

void ReplicationManager::HandleStatus(const sim::Message&,
                                      const ReplicaStatusMsg& status) {
  if (!ds_->active()) return;
  for (const sim::NodeId h : status.holders) {
    auto booked = holders_.find(h);
    if (booked == holders_.end()) {
      // New book entry: chain-credited from now, so the echo of a round
      // pushed earlier does not drop it.
      booked = holders_.emplace(h, HolderState{}).first;
      booked->second.last_chain_ack = now();
    }
    HolderState& holder = booked->second;
    holder.last_ack = now();
    if (status.from_chain) holder.last_chain_ack = now();
    if (!status.need_full) {
      holder.repair_in_flight = false;
      continue;
    }
    if (holder.repair_in_flight) continue;
    RepairHolder(h, m_snapshot_repairs_);
    // A repaired holder sits at an off-chain version until the next
    // snapshot round; re-sync the whole chain instead of re-repairing it
    // every delta.
    chain_warm_ = false;
  }
  if (status.round == 0) return;
  // A chain pushed at `round` ran all its hops: a holder no chain status
  // credited since then was displaced from our successors (repair and probe
  // acks alone must not keep it booked and probed).
  for (auto it = holders_.begin(); it != holders_.end();) {
    if (it->second.last_chain_ack < status.round) {
      it = holders_.erase(it);
      Inc(m_holders_displaced_);
    } else {
      ++it;
    }
  }
}

void ReplicationManager::RepairHolder(sim::NodeId holder,
                                      Counters::Id counter) {
  holders_[holder].repair_in_flight = true;
  Inc(counter);
  SendPushHop(holder, MakeSnapshot(0, /*direct=*/true),
              [this, holder](HopResult r) {
                auto it = holders_.find(holder);
                if (it == holders_.end()) return;
                it->second.repair_in_flight = false;
                if (r == HopResult::kLost) holders_.erase(it);  // dead holder
              });
}

void ReplicationManager::AntiEntropyTick() {
  if (!ds_->active() || options_.replication_factor == 0) return;
  const sim::SimTime idle = 3 * options_.refresh_period + options_.rpc_timeout;
  const ReplicaManifest manifest = OwnManifest();
  for (const auto& kv : holders_) {
    const sim::NodeId holder = kv.first;
    const HolderState& state = kv.second;
    if (state.repair_in_flight || now() - state.last_ack <= idle) continue;
    // This holder acked once but has gone quiet: the forward chain no
    // longer reaches it (dead intermediate hop, ring rewiring).  Compare
    // manifests directly and repair divergence with a snapshot.
    Inc(m_anti_entropy_probes_);
    auto probe = std::make_shared<ManifestProbeMsg>();
    probe->owner = id();
    probe->manifest = manifest;
    Call(
        holder, probe,
        [this, holder](const sim::Message& m) {
          const auto& reply =
              static_cast<const ManifestProbeReply&>(*m.payload);
          auto it = holders_.find(holder);
          if (it == holders_.end()) return;
          it->second.last_ack = now();
          if (reply.divergent && !it->second.repair_in_flight) {
            RepairHolder(holder, m_anti_entropy_repairs_);
          }
        },
        options_.rpc_timeout,
        [this, holder]() {
          // Quiet and unreachable: dead or moved on.  It re-enters the
          // book with its next status ack if it ever comes back.
          holders_.erase(holder);
          Inc(m_holders_dropped_);
        });
  }
}

void ReplicationManager::HandleProbe(const sim::Message& msg,
                                     const ManifestProbeMsg& probe) {
  auto reply = std::make_shared<ManifestProbeReply>();
  auto it = groups_.find(probe.owner);
  if (it == groups_.end()) {
    reply->divergent = true;
  } else {
    // Deliberately no refreshed_at bump: only pushes keep a group alive.
    // If this holder was displaced from the owner's chain, its copy must
    // still age out even while probes find it current.
    reply->divergent = it->second.Manifest() != probe.manifest;
  }
  Reply(msg, reply);
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
  for (const auto& kv : groups_) {
    const ReplicaGroup& group = kv.second;
    auto m = std::make_shared<ReplicaPushMsg>();
    m->owner = kv.first;
    m->owner_val = group.owner_val;
    m->items.reserve(group.items().size());
    m->epochs.reserve(group.epochs().size());
    for (const auto& item_kv : group.items()) {
      m->items.push_back(item_kv.second);
    }
    for (const auto& epoch_kv : group.epochs()) {
      m->epochs.push_back(epoch_kv.second);
    }
    m->manifest = group.Manifest();
    m->hops_left = 0;
    msgs.push_back(std::move(m));
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
  if (seed == nullptr) return;
  ApplySnapshot(*seed);
  // The seed makes us the owner's first chain hop: a chain-confirmed status.
  SendStatus(seed->owner, {id()}, /*need_full=*/false, /*from_chain=*/true);
}

}  // namespace pepper::replication
