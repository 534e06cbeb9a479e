// Versioned delta replication: manifest identity, the delta-reconstruction
// equivalence property (a group assembled from any interleaving of deltas is
// byte-identical to a fresh snapshot of the owner), the push-delivery audit
// (every push hop a caller waits on acked or counted), and the byte savings
// the deltas exist for.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster_test_util.h"
#include "datastore/ds_messages.h"
#include "replication/replica_manifest.h"
#include "replication/replication_manager.h"
#include "sim/node.h"
#include "workload/cluster.h"

namespace pepper::workload {
namespace {

using replication::BuildManifest;
using replication::ReplicaGroup;
using replication::ReplicaManifest;

constexpr Key kKeySpan = 1000000;

ClusterOptions TestOptions(uint64_t seed, size_t k) {
  ClusterOptions o = ClusterOptions::FastDefaults();
  o.seed = seed;
  o.repl.replication_factor = k;
  return o;
}

TEST(ReplicaManifestTest, IdentityAndSensitivity) {
  std::map<Key, uint64_t> epochs{{10, 1}, {20, 2}, {30, 5}};
  const ReplicaManifest a = BuildManifest(epochs, 5);
  EXPECT_EQ(a, BuildManifest(epochs, 5));  // deterministic
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.version, 5u);

  // A version bump alone diverges (the == covers version).
  EXPECT_NE(a, BuildManifest(epochs, 6));
  // An epoch change diverges even with identical keys and count.
  std::map<Key, uint64_t> touched = epochs;
  touched[20] = 7;
  EXPECT_NE(a.hash, BuildManifest(touched, 5).hash);
  // A membership change diverges.
  std::map<Key, uint64_t> extra = epochs;
  extra[40] = 9;
  EXPECT_NE(a.hash, BuildManifest(extra, 5).hash);
}

// A holder's running manifest (kept by ReplicaGroup's upsert, erase and
// reset) always equals a rebuild from its epochs, and still tells a one-key
// or one-epoch difference apart.
TEST(ReplicaManifestTest, RunningGroupManifestMatchesRebuild) {
  sim::Rng rng(404);
  ReplicaGroup group;
  uint64_t epoch = 0;
  for (int op = 0; op < 4000; ++op) {
    const uint64_t dice = rng.Uniform(0, 99);
    // A small key space, so upserts often re-stamp a held key and erases
    // often miss.
    const Key k = rng.Uniform(0, 63);
    if (dice < 55) {
      group.Upsert(datastore::Item{k, "d" + std::to_string(op)}, ++epoch);
    } else if (dice < 95) {
      group.Erase(k);
    } else if (dice < 97) {
      group.Reset();
    }
    group.version = epoch;
    ASSERT_EQ(group.Manifest(), BuildManifest(group.epochs(), group.version))
        << "after op " << op;
    ASSERT_EQ(group.items().size(), group.epochs().size());
  }
  ASSERT_GT(group.epochs().size(), 1u);

  const ReplicaManifest before = group.Manifest();
  const Key held = group.epochs().begin()->first;
  // One re-stamped epoch.
  ReplicaGroup restamped = group;
  restamped.Upsert(datastore::Item{held, "x"}, epoch + 1);
  EXPECT_NE(restamped.Manifest(), before);
  std::map<Key, uint64_t> epochs = group.epochs();
  ++epochs[held];
  EXPECT_NE(BuildManifest(epochs, group.version), before);
  // One key more, one key fewer, and one key swapped at the same epoch.
  ReplicaGroup grown = group;
  grown.Upsert(datastore::Item{1000, "y"}, epoch + 1);
  EXPECT_NE(grown.Manifest(), before);
  ReplicaGroup shrunk = group;
  shrunk.Erase(held);
  EXPECT_NE(shrunk.Manifest(), before);
  std::map<Key, uint64_t> swapped = group.epochs();
  const uint64_t held_epoch = swapped.at(held);
  swapped.erase(held);
  swapped[1000] = held_epoch;
  const ReplicaManifest swapped_at = BuildManifest(swapped, group.version);
  EXPECT_EQ(swapped_at.count, before.count);
  EXPECT_NE(swapped_at.hash, before.hash);
  // Erasing a key that is not held changes nothing.
  ReplicaGroup untouched = group;
  untouched.Erase(1000);
  EXPECT_EQ(untouched.Manifest(), before);
  group.Reset();
  EXPECT_EQ(group.Manifest(), BuildManifest({}, group.version));
}

// A delta is checked before it is applied: the previewed manifest equals
// the manifest after applying (upserts, then deletes), even for deltas that
// repeat a key, erase what they just upserted, or erase what is not held.
TEST(ReplicaManifestTest, DeltaPreviewMatchesApplying) {
  sim::Rng rng(405);
  ReplicaGroup group;
  uint64_t epoch = 0;
  for (int round = 0; round < 500; ++round) {
    std::vector<datastore::Item> upserts;
    std::vector<uint64_t> upsert_epochs;
    std::vector<Key> deletes;
    const uint64_t n_upserts = rng.Uniform(0, 6);
    for (uint64_t i = 0; i < n_upserts; ++i) {
      upserts.push_back(datastore::Item{rng.Uniform(0, 31), "u"});
      upsert_epochs.push_back(++epoch);
    }
    const uint64_t n_deletes = rng.Uniform(0, 4);
    for (uint64_t i = 0; i < n_deletes; ++i) {
      deletes.push_back(rng.Uniform(0, 31));
    }
    const ReplicaGroup before = group;
    const ReplicaManifest preview =
        group.ManifestAfter(upserts, upsert_epochs, deletes, epoch);
    ASSERT_EQ(group.Manifest(), before.Manifest());
    ASSERT_EQ(group.epochs(), before.epochs());
    for (size_t i = 0; i < upserts.size(); ++i) {
      group.Upsert(upserts[i], upsert_epochs[i]);
    }
    for (Key k : deletes) group.Erase(k);
    group.version = epoch;
    ASSERT_EQ(preview, group.Manifest()) << "round " << round;
  }
}

// The facade stamps a fresh epoch on every mutation, so re-inserting a key
// with different data is visible to manifests.
TEST(ReplicaManifestTest, FacadeEpochsAdvanceOnEveryMutation) {
  Cluster c(TestOptions(90, 2));
  c.Bootstrap(kKeySpan);
  c.RunFor(sim::kSecond);
  PeerStack* p = c.LiveMembers()[0];
  ASSERT_TRUE(c.InsertItem(100, "v1").ok());
  const uint64_t e1 = p->ds->ItemEpochsSnapshot().at(100);
  ASSERT_TRUE(c.InsertItem(100, "v2").ok());
  const uint64_t e2 = p->ds->ItemEpochsSnapshot().at(100);
  EXPECT_GT(e2, e1);
  const uint64_t before = p->ds->mutation_epoch();
  ASSERT_TRUE(c.DeleteItem(100).ok());
  EXPECT_GT(p->ds->mutation_epoch(), before);  // deletes advance the version
  EXPECT_EQ(p->ds->ItemEpochsSnapshot().count(100), 0u);
}

// The delta-push equivalence property: after any interleaving of inserts,
// deletes and the splits/redistributes they trigger, every replica group a
// holder still keeps (once stale copies aged out) is byte-identical to a
// fresh snapshot of its owner — same keys, same data, same manifest.
TEST(ReplicationDeltaTest, DeltaReconstructedGroupsMatchFreshSnapshots) {
  for (uint64_t seed : {11, 12, 13, 14}) {
    ClusterOptions o = TestOptions(seed, 3);
    o.repl.group_ttl = 2 * sim::kSecond;
    Cluster c(o);
    c.Bootstrap(kKeySpan);
    for (int i = 0; i < 30; ++i) c.AddFreePeer();
    c.RunFor(sim::kSecond);

    // Random interleaving of inserts and deletes; inserts overflow peers
    // into splits, deletes underflow them into merges/redistributes.
    sim::Rng rng(seed * 977);
    std::vector<Key> live;
    for (int op = 0; op < 220; ++op) {
      if (live.empty() || rng.Uniform(0, 9) < 7) {
        Key k = rng.Uniform(0, kKeySpan);
        if (c.InsertItem(k).ok()) live.push_back(k);
      } else {
        size_t at = rng.Uniform(0, live.size() - 1);
        (void)c.DeleteItem(live[at]);
        live.erase(live.begin() + static_cast<long>(at));
      }
    }

    // Quiesce: the last deltas propagate, displaced holders' copies age
    // out, every surviving group converges on its owner's current state.
    c.RunFor(6 * sim::kSecond);

    size_t groups_checked = 0;
    for (PeerStack* owner : c.LiveMembers()) {
      const ReplicaManifest fresh = BuildManifest(
          owner->ds->ItemEpochsSnapshot(), owner->ds->mutation_epoch());
      for (const auto& holder : c.peers()) {
        if (!holder->ring->alive() || holder->id() == owner->id()) continue;
        auto it = holder->repl->groups().find(owner->id());
        if (it == holder->repl->groups().end()) continue;
        const ReplicaGroup& group = it->second;
        EXPECT_EQ(group.items(), owner->ds->ItemsSnapshot())
            << "holder " << holder->id() << " of owner " << owner->id()
            << " diverged (seed " << seed << ")";
        EXPECT_EQ(BuildManifest(group.epochs(), group.version), fresh)
            << "manifest mismatch at holder " << holder->id() << " of owner "
            << owner->id() << " (seed " << seed << ")";
        EXPECT_EQ(group.Manifest(), fresh)
            << "running manifest drifted at holder " << holder->id()
            << " of owner " << owner->id() << " (seed " << seed << ")";
        ++groups_checked;
      }
    }
    EXPECT_GT(groups_checked, 10u) << "seed " << seed;
    // The equivalence must have been reached through deltas, not snapshots
    // alone.
    EXPECT_GT(c.metrics().counters().Get("repl.delta_pushes"), 0u);
  }
}

// A delta that fails the manifest check is not applied: the holder's copy
// stays exactly at its pre-delta state.  A revive picks the highest version
// among the answers (ties by refresh time), so a diverged copy must claim
// neither the owner's new version nor a fresher copy of the previous one.
TEST(ReplicationDeltaTest, MismatchedDeltaKeepsPreDeltaVersion) {
  ClusterOptions o = TestOptions(41, 3);
  Cluster c(o);
  c.Bootstrap(kKeySpan);
  for (int i = 0; i < 10; ++i) c.AddFreePeer();
  c.RunFor(sim::kSecond);
  sim::Rng rng(41);
  for (int i = 0; i < 40; ++i) (void)c.InsertItem(rng.Uniform(0, kKeySpan));
  c.RunFor(4 * sim::kSecond);

  // A holder whose copy of some owner's group is current.
  PeerStack* owner = nullptr;
  PeerStack* holder = nullptr;
  for (PeerStack* o_peer : c.LiveMembers()) {
    for (PeerStack* h_peer : c.LiveMembers()) {
      if (h_peer == o_peer) continue;
      auto it = h_peer->repl->groups().find(o_peer->id());
      if (it != h_peer->repl->groups().end() &&
          it->second.version == o_peer->ds->mutation_epoch()) {
        owner = o_peer;
        holder = h_peer;
        break;
      }
    }
    if (holder != nullptr) break;
  }
  ASSERT_NE(holder, nullptr);
  const auto& group = holder->repl->groups().at(owner->id());
  const uint64_t base = group.version;
  const sim::SimTime refreshed_at = group.refreshed_at;
  const std::map<Key, uint64_t> epochs = group.epochs();
  const ReplicaManifest manifest = group.Manifest();

  // A delta from the holder's exact version whose manifest does not match
  // what applying it produces.
  auto delta = std::make_shared<replication::ReplicaDeltaMsg>();
  delta->owner = owner->id();
  delta->owner_val = owner->ring->val();
  delta->from_version = base;
  delta->upserts.push_back(datastore::Item{owner->ring->val(), "diverged"});
  delta->upsert_epochs.push_back(base + 1);
  delta->manifest = group.ManifestAt(base + 1);
  delta->manifest.hash ^= 1;
  delta->hops_left = 0;

  const auto& counters = c.metrics().counters();
  const uint64_t mismatches = counters.Get("repl.manifest_mismatches");
  sim::Node sender(&c.sim());
  sender.Send(holder->id(), delta);
  // Step until the holder has handled it, well before the owner's
  // snapshot repair (two more network hops) can land.
  for (int i = 0; i < 10000 && counters.Get("repl.manifest_mismatches") ==
                                   mismatches;
       ++i) {
    c.RunFor(100 * sim::kMicrosecond);
  }
  EXPECT_EQ(counters.Get("repl.manifest_mismatches"), mismatches + 1);
  const auto& after = holder->repl->groups().at(owner->id());
  EXPECT_EQ(after.version, base);
  // The copy is kept (it still serves revival) exactly as it was: the
  // rejected delta was not applied, so its version label stays true.
  EXPECT_EQ(after.refreshed_at, refreshed_at);
  EXPECT_EQ(after.epochs(), epochs);
  EXPECT_EQ(after.Manifest(), manifest);
  auto held = after.items().find(owner->ring->val());
  EXPECT_TRUE(held == after.items().end() || held->second.data != "diverged");
}

// The push-delivery audit: in a crash-free run, every ReplicaPushMsg /
// ReplicaDeltaMsg hop sent as an RPC (durable first hops, repairs,
// departure pushes) is acked or counted as a timeout, none times out, and
// nothing stays outstanding after a quiesce.  Chain hops are plain sends:
// counted in repl.push_msgs, never acked.  Two runs: inserts and deletes
// with a trickle of graceful departures, and a stable ring left to refresh
// for 30 rounds after its population.
TEST(ReplicationDeltaTest, EveryRpcPushHopIsAckedOrCounted) {
  for (const bool churn : {true, false}) {
    SCOPED_TRACE(churn ? "inserts, deletes and departures" : "stable ring");
    Cluster c(churn ? TestOptions(21, 3) : TestOptions(74, 6));
    c.Bootstrap(kKeySpan);
    for (int i = 0; i < 20; ++i) c.AddFreePeer();
    c.RunFor(sim::kSecond);
    sim::Rng rng(churn ? 55 : 74);
    std::vector<Key> live;
    for (int op = 0; op < (churn ? 150 : 100); ++op) {
      if (!churn || live.empty() || rng.Uniform(0, 9) < 7) {
        Key k = rng.Uniform(0, kKeySpan);
        if (c.InsertItem(k).ok()) live.push_back(k);
      } else {
        size_t at = rng.Uniform(0, live.size() - 1);
        (void)c.DeleteItem(live[at]);
        live.erase(live.begin() + static_cast<long>(at));
      }
      // A trickle of graceful departures keeps takeover/extra-hop pushes in
      // the mix without ever crashing a sender mid-push.
      if (churn && op % 40 == 39) {
        auto members = c.LiveMembers();
        if (members.size() > 6) c.DepartPeer(members[members.size() / 2]);
      }
    }
    c.RunFor(6 * sim::kSecond);

    auto outstanding = [&c]() {
      size_t n = 0;
      for (const auto& p : c.peers()) n += p->repl->outstanding_pushes();
      return n;
    };
    // The stable ring keeps refreshing (and repairing), so it is audited at
    // the first instant with no awaited push hop in flight.
    for (int i = 0; !churn && i < 1000 && outstanding() > 0; ++i) {
      c.RunFor(100 * sim::kMicrosecond);
    }
    EXPECT_EQ(outstanding(), 0u);
    const auto& counters = c.metrics().counters();
    const uint64_t rpcs = counters.Get("repl.push_rpcs");
    const uint64_t acked = counters.Get("repl.push_acked");
    const uint64_t timeouts = counters.Get("repl.push_timeouts");
    ASSERT_GT(rpcs, 0u);
    EXPECT_EQ(rpcs, acked + timeouts)
        << "RPC push hops unaccounted for (rpcs=" << rpcs
        << " acked=" << acked << " timeouts=" << timeouts << ")";
    // No peer crashed, so every awaited hop was answered.
    EXPECT_EQ(timeouts, 0u);
    // Every hop is counted in push_msgs; the acked ones are a strict subset.
    EXPECT_LT(rpcs, counters.Get("repl.push_msgs"));
    EXPECT_EQ(acked, c.sim().counters().Get("sim.msgs.ReplicaPushAck"));
  }
}

// What the deltas are for: steady refreshes re-send almost nothing.
TEST(ReplicationDeltaTest, DeltasCutPushBytesAgainstSnapshots) {
  Cluster c(TestOptions(31, 3));
  c.Bootstrap(kKeySpan);
  for (int i = 0; i < 10; ++i) c.AddFreePeer();
  c.RunFor(sim::kSecond);
  sim::Rng rng(77);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(c.InsertItem(rng.Uniform(0, kKeySpan), "payload-payload").ok());
  }
  // Many refresh periods with no further mutation: every refresh would have
  // re-sent the full snapshot; deltas send manifests.
  c.RunFor(10 * sim::kSecond);

  const auto& counters = c.metrics().counters();
  const uint64_t saved = counters.Get("repl.bytes_saved");
  const uint64_t sent = counters.Get("repl.push_bytes");
  ASSERT_GT(saved + sent, 0u);
  EXPECT_GT(counters.Get("repl.delta_pushes"),
            counters.Get("repl.snapshot_pushes"));
  // The acceptance bar: at least half the snapshot-only bytes saved.
  EXPECT_GE(saved * 2, saved + sent)
      << "delta pushes saved " << saved << " of " << (saved + sent)
      << " snapshot-equivalent bytes";
}

// --- Quiet refreshes skip the store walk -------------------------------------
//
// A push whose store has not changed since the last push on a warm chain
// sends the empty delta without walking the store (every walk opens a
// store cursor).  Every push is checked against the diff this test
// computes without any cache: the push kind, its wire bytes, and the
// holders' copies once it has landed.

// A settled ring of k = 2 with one pool peer per split and none left over,
// whose replication moves only when the test pushes.  Storage factor 0
// means no peer underflows, and with the pool drained none can split, so
// the test may set the owner's store to anything.
ClusterOptions HandPushedOptions(uint64_t seed) {
  ClusterOptions o = TestOptions(seed, 2);
  o.ds.storage_factor = 0;
  o.repl.refresh_period = 36000 * sim::kSecond;
  o.repl.group_ttl = 36000 * sim::kSecond;
  return o;
}

class PushChecker {
 public:
  // Builds the ring and picks an owner with a linear arc wide enough for
  // KeyAt, and its two holders.
  explicit PushChecker(Cluster* c) : c_(c) {
    c_->Bootstrap(kKeySpan);
    for (int i = 0; i < 5; ++i) c_->AddFreePeer();
    c_->RunFor(sim::kSecond);
    sim::Rng rng(c_->options().seed);
    for (int i = 0; i < 40; ++i) {
      (void)c_->InsertItem(rng.Uniform(0, kKeySpan));
    }
    c_->RunFor(2 * sim::kSecond);
    const std::vector<PeerStack*> ring = MembersByVal(*c_);
    EXPECT_EQ(ring.size(), 6u);
    for (size_t i = 0; i < ring.size() && owner_ == nullptr; ++i) {
      const RingRange& r = ring[i]->ds->range();
      if (r.lo() < r.hi() && r.hi() - r.lo() > 64 &&
          ring[i]->ds->ItemCount() > 1) {
        owner_ = ring[i];
        holders_ = {ring[(i + 1) % ring.size()], ring[(i + 2) % ring.size()]};
      }
    }
    EXPECT_NE(owner_, nullptr);
    if (owner_ == nullptr) return;
    // Warm every chain along the settled ring.
    for (int round = 0; round < 2; ++round) {
      for (PeerStack* p : c_->LiveMembers()) p->repl->PushNow();
      c_->RunFor(sim::kSecond);
    }
    base_ = owner_->ds->ItemEpochsSnapshot();
    range_ = owner_->ds->range();
  }

  PeerStack* owner() { return owner_; }
  const std::vector<PeerStack*>& holders() const { return holders_; }
  int walks() const { return walks_; }
  int skips() const { return skips_; }
  // A key on the owner's arc.
  Key KeyAt(uint64_t i) const { return range_.lo() + 1 + i % 64; }

  // Store changes made behind the replication manager's back.
  void Store(Key skv, const std::string& data) {
    owner_->ds->StoreItem(datastore::Item{skv, data});
    touched_ = true;
  }
  void Drop(Key skv) {
    owner_->ds->DropItem(skv);
    touched_ = true;
  }
  // The clears of a deactivation and the activation that follows it.
  void Reactivate(const std::vector<Key>& keys) {
    datastore::SplitHandoff handoff;
    handoff.range = range_;
    for (Key k : keys) handoff.items.push_back(datastore::Item{k, "r"});
    owner_->ds->Deactivate();
    owner_->ds->ActivateFromHandoff(handoff);
    touched_ = true;
  }

  // One refresh push.
  void Push(const std::string& what) {
    Check([this]() { owner_->repl->PushNow(); }, what);
  }
  // The push a successor failure triggers: the chain starts over with a
  // snapshot.
  void ChainReset(const std::string& what) {
    warm_ = false;
    Check([this]() { owner_->repl->OnSuccessorFailed(sim::kNullNode); },
          what);
  }

 private:
  // Runs `push`, which pushes the owner's items once, lets it land and
  // checks it.  Only a quiet push on a warm chain skips the walk; an empty
  // store's delta costs as much as its snapshot, so that push sends (and
  // walks for) the snapshot.
  void Check(const std::function<void()>& push, const std::string& what) {
    SCOPED_TRACE(what);
    const std::map<Key, datastore::Item> items = owner_->ds->ItemsSnapshot();
    const std::map<Key, uint64_t> epochs = owner_->ds->ItemEpochsSnapshot();
    size_t snapshot_cost = replication::kManifestWireBytes;
    size_t delta_cost = replication::kManifestWireBytes;
    for (const auto& [skv, item] : items) {
      snapshot_cost += replication::WireBytes(item);
      const auto base = base_.find(skv);
      if (base == base_.end() || base->second != epochs.at(skv)) {
        delta_cost += replication::WireBytes(item);
      }
    }
    for (const auto& kv : base_) {
      if (epochs.count(kv.first) == 0) {
        delta_cost += replication::kDeleteWireBytes;
      }
    }
    const bool expect_delta = warm_ && delta_cost < snapshot_cost;
    const bool expect_walk = touched_ || !warm_ || items.empty();

    const auto& ctr = c_->metrics().counters();
    const uint64_t deltas = ctr.Get("repl.delta_pushes");
    const uint64_t snapshots = ctr.Get("repl.snapshot_pushes");
    const uint64_t bytes = ctr.Get("repl.push_bytes");
    const uint64_t cursors = owner_->ds->store_stats().cursors;
    push();
    EXPECT_EQ(owner_->ds->store_stats().cursors > cursors, expect_walk);
    ++(expect_walk ? walks_ : skips_);
    c_->RunFor(50 * sim::kMillisecond);
    EXPECT_EQ(ctr.Get("repl.delta_pushes") - deltas, expect_delta ? 1u : 0u);
    EXPECT_EQ(ctr.Get("repl.snapshot_pushes") - snapshots,
              expect_delta ? 0u : 1u);
    EXPECT_EQ(ctr.Get("repl.push_bytes") - bytes,
              expect_delta ? delta_cost : snapshot_cost);
    for (PeerStack* h : holders_) {
      const ReplicaGroup& group = h->repl->groups().at(owner_->id());
      EXPECT_EQ(group.version, owner_->ds->mutation_epoch());
      EXPECT_EQ(group.items(), items);
      EXPECT_EQ(group.epochs(), epochs);
    }
    base_ = epochs;
    warm_ = true;
    touched_ = false;
  }

  Cluster* c_;
  PeerStack* owner_ = nullptr;
  std::vector<PeerStack*> holders_;
  RingRange range_ = RingRange::Empty();
  std::map<Key, uint64_t> base_;  // epochs as of the last push
  bool warm_ = true;
  bool touched_ = false;
  int walks_ = 0;
  int skips_ = 0;
};

TEST(QuietPushTest, EveryStoreChangeAndChainResetMakesTheNextPushWalk) {
  Cluster c(HandPushedOptions(81));
  PushChecker check(&c);
  ASSERT_NE(check.owner(), nullptr);
  check.Push("quiet");
  check.Push("quiet again");
  check.Store(check.KeyAt(1), "new");
  check.Push("new key");
  check.Push("quiet after the new key");
  check.Store(check.KeyAt(1), "restamped");
  check.Push("re-stamped key");
  check.Drop(check.KeyAt(1));
  check.Push("dropped key");
  check.Drop(check.KeyAt(2));
  check.Push("drop of a key the store lacks");
  check.Reactivate({});
  check.Push("activation clear, nothing stored since");
  check.Push("quiet, empty store");
  check.Reactivate({check.KeyAt(3), check.KeyAt(4)});
  check.Push("activation with items");
  check.Push("quiet after the activation");
  check.ChainReset("chain reset");
  check.Push("quiet after the chain reset");
}

// An activation clear that stores nothing changes the store's content but
// not its mutation epoch.  The push the activation schedules must still go
// out after its debounce, or every holder keeps items the owner no longer
// has until the next refresh round (here never), and a revive in that
// window could promote them.
TEST(QuietPushTest, EmptyActivationPushesAfterTheDebounce) {
  Cluster c(HandPushedOptions(83));
  PushChecker check(&c);
  ASSERT_NE(check.owner(), nullptr);
  const sim::NodeId owner = check.owner()->id();
  for (PeerStack* h : check.holders()) {
    ASSERT_FALSE(h->repl->groups().at(owner).items().empty());
  }
  check.Reactivate({});
  ASSERT_EQ(check.owner()->ds->ItemCount(), 0u);
  c.RunFor(sim::kSecond);
  for (PeerStack* h : check.holders()) {
    EXPECT_TRUE(h->repl->groups().at(owner).items().empty())
        << "holder " << h->id() << " still holds the pre-clear copy";
  }
}

// Random store changes, activations, chain resets and quiet rounds: every
// push equals the uncached diff, and only the quiet ones skip the walk.
TEST(QuietPushTest, RandomSequenceMatchesTheUncachedDiff) {
  Cluster c(HandPushedOptions(82));
  PushChecker check(&c);
  ASSERT_NE(check.owner(), nullptr);
  sim::Rng rng(82);
  for (int step = 0; step < 300; ++step) {
    const std::string what = "step " + std::to_string(step);
    switch (rng.Uniform(0, 9)) {
      case 0:
      case 1:
        check.Store(check.KeyAt(rng.Uniform(0, 24)),
                    "d" + std::to_string(step));
        break;
      case 2:
      case 3:
        check.Drop(check.KeyAt(rng.Uniform(0, 24)));
        break;
      case 4: {
        std::vector<Key> keys;
        if (rng.Uniform(0, 1) == 0) {
          for (uint64_t i = rng.Uniform(1, 6); i > 0; --i) {
            keys.push_back(check.KeyAt(rng.Uniform(0, 24)));
          }
        }
        check.Reactivate(keys);
        break;
      }
      case 5:
        check.ChainReset(what);
        continue;
      default:
        break;  // a quiet round
    }
    check.Push(what);
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(check.walks(), 100);
  EXPECT_GT(check.skips(), 50);
}

}  // namespace
}  // namespace pepper::workload
