#ifndef PEPPER_REPLICATION_REPLICATION_MANAGER_H_
#define PEPPER_REPLICATION_REPLICATION_MANAGER_H_

#include <array>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/key_space.h"
#include "common/stats.h"
#include "common/status.h"
#include "datastore/data_store_node.h"
#include "datastore/item.h"
#include "replication/replica_manifest.h"
#include "ring/ring_node.h"
#include "sim/component.h"

namespace pepper::replication {

class ReviveProtocol;

struct ReplicationOptions {
  // k: number of successors holding a copy of each item (CFS replication,
  // Section 2.3).  Paper default 6.
  size_t replication_factor = 6;
  // Replica refresh period (push own items k hops along the ring).
  sim::SimTime refresh_period = 2 * sim::kSecond;
  // Debounce for change-triggered pushes.
  sim::SimTime push_delay = 50 * sim::kMillisecond;
  sim::SimTime rpc_timeout = 250 * sim::kMillisecond;
  // Drop replica groups not refreshed for this long (their owner is gone
  // and the range was revived elsewhere).  Expiry is ping-verified: a
  // group whose owner answers (alive, or departed-FREE) is discarded; a
  // group whose owner is unreachable — dead, its arc possibly unrevived —
  // is retained for another TTL period, up to `dead_owner_ttl_strikes`
  // times, so slow ring repair cannot outlive the last copies of an arc.
  sim::SimTime group_ttl = 60 * sim::kSecond;
  int dead_owner_ttl_strikes = 32;
  // Pull-based revive on range extension.  false reproduces the pre-revive
  // availability gap (a peer whose successor joined less than one refresh
  // ago dies, and the survivors never reconstruct its arc) — kept as a
  // switch so the regression tests can demonstrate the gap is real.
  bool pull_revive = true;
  MetricsHub* metrics = nullptr;  // optional, not owned
};

// The entries of a key-ordered map whose keys lie on `arc`, as at most two
// iterator runs in ascending key order: the entries, and the order, of a
// full scan filtered by arc.Contains, found with upper_bound in O(log n).
// A wrapping arc (lo, hi] with lo > hi is the run [min, hi]
// followed by (lo, max]; unused runs are empty.
template <typename Map>
auto RunsInRange(const Map& map, const RingRange& arc) {
  using Run = std::pair<typename Map::const_iterator,
                        typename Map::const_iterator>;
  std::array<Run, 2> runs{Run{map.end(), map.end()},
                          Run{map.end(), map.end()}};
  if (arc.IsEmpty()) return runs;
  if (arc.full()) {
    runs[0] = {map.begin(), map.end()};
  } else if (arc.lo() < arc.hi()) {
    runs[0] = {map.upper_bound(arc.lo()), map.upper_bound(arc.hi())};
  } else {
    runs[0] = {map.begin(), map.upper_bound(arc.hi())};
    runs[1] = {map.upper_bound(arc.lo()), map.end()};
  }
  return runs;
}

// Visits, in ascending key order, the entries of `map` whose keys lie on
// `arc`, in O(log n + visited).
template <typename Map, typename Fn>
void ForEachInRange(const Map& map, const RingRange& arc, Fn&& fn) {
  for (const auto& [first, last] : RunsInRange(map, arc)) {
    for (auto it = first; it != last; ++it) fn(*it);
  }
}

// True if some key of `map` lies on `arc`, in O(log n).
template <typename Map>
bool AnyInRange(const Map& map, const RingRange& arc) {
  for (const auto& [first, last] : RunsInRange(map, arc)) {
    if (first != last) return true;
  }
  return false;
}

// A snapshot of one owner's items held as replicas (the box above each peer
// in Figure 7), together with the owner-side epochs that version it.  The
// items, their epochs and the running manifest hash change only through
// Upsert / Erase / Reset, so they cannot drift apart and the group's
// manifest costs O(1).
class ReplicaGroup {
 public:
  Key owner_val = 0;
  // Owner mutation epoch this copy reflects (the manifest version acked
  // back to the owner).
  uint64_t version = 0;
  sim::SimTime refreshed_at = 0;
  // TTL expirations survived because the owner was unreachable (presumed
  // dead).  A dead owner's group may be the arc's LAST copy — it is
  // retained for revival, no matter how slowly the ring repairs, until the
  // strike budget runs out; any push from the owner resets the count.
  int ttl_strikes = 0;
  // hops_left of the last chain push or delta that reached this copy: how
  // far this holder forwards the group again when its successor dies.
  int hops_left = 0;

  const std::map<Key, datastore::Item>& items() const { return items_; }
  // Owner mutation epoch of each item; keys mirror items().
  const std::map<Key, uint64_t>& epochs() const { return epochs_; }

  void Upsert(const datastore::Item& item, uint64_t epoch);
  void Erase(Key skv);
  void Reset();

  // Equals BuildManifest(epochs(), at).
  ReplicaManifest ManifestAt(uint64_t at) const {
    return ReplicaManifest{at, epochs_.size(), hash_};
  }
  ReplicaManifest Manifest() const { return ManifestAt(version); }
  // The manifest at `at` that upserting `upserts` (stamped `upsert_epochs`)
  // and then erasing `deletes` would give, computed without changing the
  // group, in O(delta log n): a delta is checked before it is applied.
  ReplicaManifest ManifestAfter(const std::vector<datastore::Item>& upserts,
                                const std::vector<uint64_t>& upsert_epochs,
                                const std::vector<Key>& deletes,
                                uint64_t at) const;

 private:
  std::map<Key, datastore::Item> items_;
  std::map<Key, uint64_t> epochs_;
  uint64_t hash_ = 0;  // sum of ManifestTerm over epochs_
};

// Full-snapshot replica push: `owner`'s current item set, forwarded
// `hops_left` more times along the ring.  Also the point-repair payload
// (direct=true: addressed to one holder, never forwarded).
struct ReplicaPushMsg : sim::Payload {
  sim::NodeId owner = sim::kNullNode;
  Key owner_val = 0;
  std::vector<datastore::Item> items;
  std::vector<uint64_t> epochs;  // parallel to items
  ReplicaManifest manifest;
  int hops_left = 0;
  bool direct = false;
};

// Delta push: the mutations between two owner epochs, plus the manifest of
// the full group at the target version.  A holder whose copy sits exactly
// at `from_version` applies it and lands, verifiably, at
// `manifest.version`; any other holder asks the owner for a repair and is
// repaired with a direct snapshot.
struct ReplicaDeltaMsg : sim::Payload {
  sim::NodeId owner = sim::kNullNode;
  Key owner_val = 0;
  uint64_t from_version = 0;
  std::vector<datastore::Item> upserts;
  std::vector<uint64_t> upsert_epochs;  // parallel to upserts
  std::vector<Key> deletes;
  ReplicaManifest manifest;
  int hops_left = 0;
};

// Hop-level delivery ack, only for a hop whose sender waits on it (a durable
// push's first hop, a repair snapshot, a departure push; chain hops are
// plain sends).  `applied` is false when the hop was delivered but the
// content could not be applied (a delta whose base the holder does not
// have) — the durable-ack path treats that as not-yet-replicated.
struct ReplicaPushAck : sim::Payload {
  bool applied = true;
};

// Holder -> owner, one-way: a delta did not apply to the sender's copy, so
// it needs a direct snapshot.  The only message a holder sends its owner;
// the sender is the message's `from`.
struct ReplicaRepairRequest : sim::Payload {};

// CFS-style Replication Manager (Section 2.3) with the PEPPER
// replicate-to-additional-hop departure protocol (Section 5.2), grown into
// the replica lifecycle subsystem: versioned delta pushes (per-item
// mutation epochs + per-group manifests, full-snapshot fallback on
// mismatch), pull-based revive (ReviveProtocol: reconstruct a dead owner's
// arc from the freshest replica holder along the successor chain), and
// chain mending (a holder whose successor dies forwards the groups it would
// have passed on to its new successor).  Each owner periodically pushes
// along its k ring successors; when a predecessor fails, the successor
// revives the lost range from the held replica group (or pulls it from
// farther holders); before a merge-departure, everything the leaver stores
// travels one extra hop so the replica count never dips (Figure 18).
class ReplicationManager : public sim::ProtocolComponent,
                           public datastore::ReplicationHooks {
 public:
  ReplicationManager(ring::RingNode* ring, datastore::DataStoreNode* ds,
                     ReplicationOptions options);
  ~ReplicationManager() override;

  ReplicationManager(const ReplicationManager&) = delete;
  ReplicationManager& operator=(const ReplicationManager&) = delete;

  // --- ReplicationHooks ----------------------------------------------------
  void ReplicateExtraHop(std::function<void(const Status&)> done) override;
  std::vector<datastore::Item> CollectReplicasIn(
      const RingRange& arc) override;
  bool AnyReplicaIn(const RingRange& arc,
                    const std::function<bool(Key)>& pred) const override;
  uint64_t replica_upserts() const override { return replica_upserts_; }
  std::vector<std::pair<sim::NodeId, Key>> GroupOwnersIn(
      const RingRange& arc) override;
  void StartReviveSweep(const RingRange& range,
                        std::function<void(const datastore::Item&)> promote) override;
  void StartPullRevive(const RingRange& arc,
                       std::function<void(const datastore::Item&)> promote)
      override;
  void OnLocalItemsChanged() override;
  void PushImmediate() override { PushNow(); }
  void PushDurable(std::function<void(bool)> settled) override {
    PushNow(std::move(settled));
  }

  // Pushes this peer's items to its successors now (delta when the chain is
  // warm, snapshot otherwise).  `settled`, if given, makes the first hop an
  // RPC and fires once it acked-and-applied (true), or with false after its
  // timeout / a hop that could not apply.  The nothing-to-send cases —
  // inactive store, replication factor 0, lone peer — settle true: the
  // mutation is as durable as it can possibly be.
  void PushNow() { PushNow(nullptr); }
  void PushNow(std::function<void(bool)> settled);

  // Wired to the ring's successor-failure notification (a believed
  // successor stopped answering pings).  As an owner: the push chain's first
  // hop is gone, so the chain state is reset and the items re-pushed
  // immediately — the window where a new first holder lacks our group is
  // what the Definition 7 gap was made of.  As a holder: every chain that
  // ran through the dead successor was cut here, so each held group with
  // hops left goes on, as a snapshot, from the new successor.
  void OnSuccessorFailed(sim::NodeId succ);

  // The piggyback payload shipped to a brand-new successor on first
  // stabilization contact (INFOFORSUCCEVENT): our current snapshot.
  sim::PayloadPtr MakeSeedForSuccessor();

  // Called when a piggybacked seed arrives from the predecessor.
  void OnInfoFromPred(sim::NodeId pred, const sim::PayloadPtr& info);

  const std::map<sim::NodeId, ReplicaGroup>& groups() const {
    return groups_;
  }
  // True if a replica of `skv` is held here for any owner.
  bool HoldsReplica(Key skv) const;

  const ReplicationOptions& options() const { return options_; }
  ring::RingNode* ring() { return ring_; }

  // Push-delivery audit observability: RPC push hops sent minus (acked +
  // timed out); 0 when every awaited hop has been accounted for.
  size_t outstanding_pushes() const { return outstanding_pushes_; }

 private:
  friend class ReviveProtocol;

  // How one audited push hop settled.
  enum class HopResult { kApplied, kNotApplied, kLost };

  void HandlePush(const sim::Message& msg, const ReplicaPushMsg& push);
  void HandleDelta(const sim::Message& msg, const ReplicaDeltaMsg& delta);
  void HandleRepairRequest(const sim::Message& msg);

  // Stores a full snapshot, guarding against regressing a fresher copy.
  void ApplySnapshot(const ReplicaPushMsg& push);
  // Records the chain message's hops_left on the held group and passes the
  // message on to the successor, unless it has no hops left or the ring
  // wrapped back to its owner.
  template <typename ChainMsg>
  void ContinueChain(const ChainMsg& msg);
  // One push hop: a plain send, or with `on_settled` an RPC settled once by
  // its ack or its timeout (counted in `repl.push_timeouts`).
  void SendPushHop(sim::NodeId to, sim::PayloadPtr payload,
                   std::function<void(HopResult)> on_settled = nullptr);
  // Direct full snapshot to one holder that asked for a repair.
  void RepairHolder(sim::NodeId holder);
  // Walks the own store once, handing `visit` each (item, epoch) in key
  // order, and refreshes the cached own manifest and snapshot cost.
  template <typename Visit>
  void ScanOwnItems(Visit&& visit);
  std::shared_ptr<ReplicaPushMsg> MakeSnapshot(int hops_left, bool direct);
  void RefreshTick();
  // Interned fast path (the only path left — every repl.* counter interns
  // its name once at construction; no string scan per event anywhere).
  void Inc(Counters::Id id, uint64_t delta = 1) {
    if (options_.metrics != nullptr) options_.metrics->counters().Inc(id, delta);
  }

  ring::RingNode* ring_;
  datastore::DataStoreNode* ds_;
  ReplicationOptions options_;
  std::unique_ptr<ReviveProtocol> revive_;
  std::map<sim::NodeId, ReplicaGroup> groups_;
  // Holders whose repair snapshot has not settled yet: a holder asks once
  // per delta that misses, and one snapshot answers them all.
  std::set<sim::NodeId> repairs_in_flight_;
  // (key, epoch) of every item as of the last push, ascending by key (the
  // delta base snapshot).
  std::vector<std::pair<Key, uint64_t>> last_push_epochs_;
  // The store's mutation epoch (the next delta's from_version) and content
  // version (the quiet-round and coalesce test) at the last push.
  uint64_t last_push_version_ = 0;
  uint64_t last_push_content_ = 0;
  bool chain_warm_ = false;  // a push went out since the last chain reset
  // The own store's manifest and full-snapshot wire cost as of the last
  // scan; a quiet round reuses them.  The defaults describe the empty
  // store.
  ReplicaManifest own_manifest_;
  size_t own_snapshot_cost_ = kManifestWireBytes;
  size_t outstanding_pushes_ = 0;
  bool push_scheduled_ = false;
  bool sweeping_ = false;
  // Upsert batches applied to groups_ (snapshots and deltas).
  uint64_t replica_upserts_ = 0;

  // Interned handles for the push hot path (valid iff metrics set).
  Counters::Id m_push_msgs_ = 0;
  Counters::Id m_push_rpcs_ = 0;
  Counters::Id m_push_acked_ = 0;
  Counters::Id m_delta_pushes_ = 0;
  Counters::Id m_snapshot_pushes_ = 0;
  Counters::Id m_push_bytes_ = 0;
  Counters::Id m_bytes_saved_ = 0;
  Counters::Id m_pushes_ = 0;
  Counters::Id m_pushes_coalesced_ = 0;
  // Maintenance/expiry counters (colder, but still per-tick under churn).
  Counters::Id m_groups_expired_ = 0;
  Counters::Id m_dead_groups_retained_ = 0;
  Counters::Id m_push_timeouts_ = 0;
  Counters::Id m_chain_resets_ = 0;
  Counters::Id m_stale_snapshots_ = 0;
  Counters::Id m_delta_misses_ = 0;
  Counters::Id m_stale_deltas_ = 0;
  Counters::Id m_manifest_mismatches_ = 0;
  Counters::Id m_delta_applies_ = 0;
  Counters::Id m_snapshot_repairs_ = 0;
  Counters::Id m_chain_reforwards_ = 0;
  Counters::Id m_extra_hop_ops_ = 0;
  Counters::Id m_extra_hop_groups_ = 0;
  Counters::Id m_groups_purged_ = 0;
};

}  // namespace pepper::replication

#endif  // PEPPER_REPLICATION_REPLICATION_MANAGER_H_
