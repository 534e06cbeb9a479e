#include "replication/replication_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster_test_util.h"
#include "replication/replica_manifest.h"
#include "sim/node.h"
#include "workload/cluster.h"
#include "workload/workload.h"

namespace pepper::workload {
namespace {

constexpr Key kKeySpan = 1000000;

ClusterOptions TestOptions(uint64_t seed) {
  ClusterOptions o = ClusterOptions::FastDefaults();
  o.seed = seed;
  return o;
}

void Populate(Cluster& c, int n_items, uint64_t seed,
              std::vector<Key>* keys = nullptr) {
  c.Bootstrap(kKeySpan);
  for (int i = 0; i < n_items / 5 + 4; ++i) c.AddFreePeer();
  c.RunFor(sim::kSecond);
  sim::Rng rng(seed);
  for (int i = 0; i < n_items; ++i) {
    Key k = rng.Uniform(0, kKeySpan);
    if (c.InsertItem(k).ok() && keys != nullptr) keys->push_back(k);
  }
  c.RunFor(5 * sim::kSecond);
}

// Counts, for one key, how many peers hold it (owner or replica).
size_t CopiesOf(const Cluster& c, Key skv) {
  size_t copies = 0;
  for (const auto& p : c.peers()) {
    if (!p->ring->alive()) continue;
    if (p->ds->active() && p->ds->HasItem(skv)) ++copies;
    if (p->repl->HoldsReplica(skv)) ++copies;
  }
  return copies;
}

TEST(ReplicationTest, ItemsReachTheConfiguredReplicaCount) {
  ClusterOptions o = TestOptions(51);
  o.repl.replication_factor = 3;
  Cluster c(o);
  std::vector<Key> keys;
  Populate(c, 100, 9, &keys);
  c.RunFor(3 * sim::kSecond);  // several refresh rounds
  const size_t members = c.LiveMembers().size();
  ASSERT_GE(members, 6u);
  for (Key k : keys) {
    // Owner + up to k successors (k=3), bounded by ring size.
    EXPECT_GE(CopiesOf(c, k), std::min<size_t>(3, members))
        << "key " << k << " under-replicated";
  }
}

TEST(ReplicationTest, FailedPeersItemsAreRevived) {
  Cluster c(TestOptions(52));
  std::vector<Key> keys;
  Populate(c, 120, 19, &keys);
  ASSERT_GE(c.LiveMembers().size(), 8u);
  c.RunFor(3 * sim::kSecond);

  // Kill three peers (fewer than the replication factor 6 between
  // refreshes) and let the ring repair + revive.
  auto members = c.LiveMembers();
  c.FailPeer(members[1]);
  c.FailPeer(members[4]);
  c.FailPeer(members[7]);
  c.RunFor(10 * sim::kSecond);

  auto avail = c.AuditAvailability();
  EXPECT_TRUE(avail.ok) << avail.lost.size() << " items lost, e.g. key "
                        << (avail.lost.empty() ? 0 : avail.lost[0]);
  EXPECT_GT(c.metrics().counters().Get("ds.revived_items"), 0u);

  // And the items are queryable again.
  auto q = c.RangeQuery(Span{0, kKeySpan});
  ASSERT_TRUE(q.status.ok());
  EXPECT_TRUE(q.audit.correct);
}

TEST(ReplicationTest, SequentialFailuresWithinReplicationSlackLoseNothing) {
  Cluster c(TestOptions(53));
  std::vector<Key> keys;
  Populate(c, 100, 23, &keys);
  c.RunFor(3 * sim::kSecond);
  // Kill peers one at a time with recovery gaps: replication factor 6
  // easily covers this.
  for (int round = 0; round < 5; ++round) {
    auto members = c.LiveMembers();
    if (members.size() <= 4) break;
    c.FailPeer(members[members.size() / 2]);
    c.RunFor(5 * sim::kSecond);
  }
  auto avail = c.AuditAvailability();
  EXPECT_TRUE(avail.ok) << avail.lost.size() << " items lost";
}

// Section 5.2: merges followed by a failure.  With the PEPPER
// replicate-to-additional-hop no item is lost; with the naive departure
// (no extra hop) the Figure 17 scenario costs items.
TEST(ReplicationTest, MergePlusFailureAvailabilityPepperVsNaive) {
  size_t pepper_lost = 0;
  size_t naive_lost = 0;
  for (bool pepper : {true, false}) {
    size_t lost_total = 0;
    for (uint64_t seed : {61, 62, 63, 64, 65}) {
      ClusterOptions o = TestOptions(seed);
      o.ds.pepper_availability = pepper;
      // Tight replication (k=1) and slow refresh so the merge-failure
      // window matters, exactly as in Figure 17.
      o.repl.replication_factor = 1;
      o.repl.refresh_period = 20 * sim::kSecond;
      o.repl.push_delay = 10 * sim::kSecond;
      Cluster c(o);
      std::vector<Key> keys;
      Populate(c, 120, seed, &keys);
      ASSERT_GE(c.LiveMembers().size(), 8u);

      // Force merges by deleting items, and right after a merge kill the
      // absorbing successor before any replica refresh (the Figure 17
      // window: the absorbed items' only live copy dies with it).
      const uint64_t merges_before = c.metrics().counters().Get("ds.merges");
      size_t deleted = 0;
      Key last_deleted = 0;
      for (Key k : keys) {
        if (deleted > keys.size() - 30) break;
        if (c.DeleteItem(k).ok()) {
          ++deleted;
          last_deleted = k;
        }
        const uint64_t merges_now = c.metrics().counters().Get("ds.merges");
        if (merges_now > merges_before) break;
      }
      // The absorber now owns the merged-away range; kill it (the "single
      // failure") before any refresh can copy what it absorbed.
      c.RunFor(500 * sim::kMillisecond);
      PeerStack* absorber = nullptr;
      for (auto* peer : c.LiveMembers()) {
        if (peer->ds->range().Contains(last_deleted)) absorber = peer;
      }
      if (absorber != nullptr) c.FailPeer(absorber);
      c.RunFor(15 * sim::kSecond);
      lost_total += c.AuditAvailability().lost.size();
    }
    if (pepper) {
      pepper_lost = lost_total;
    } else {
      naive_lost = lost_total;
    }
  }
  // The PEPPER departure must never do worse than the naive one, and with
  // k=1 the naive one is expected to lose items somewhere across the seeds.
  EXPECT_LE(pepper_lost, naive_lost);
  EXPECT_GT(naive_lost, 0u)
      << "naive merge departure unexpectedly lost nothing";
  EXPECT_EQ(pepper_lost, 0u);
}

TEST(ReplicationTest, ExtraHopRunsOnMergeDepartures) {
  Cluster c(TestOptions(54));
  std::vector<Key> keys;
  Populate(c, 120, 29, &keys);
  size_t deleted = 0;
  for (size_t i = 0; i + 10 < keys.size(); ++i) {
    if (c.DeleteItem(keys[i]).ok()) ++deleted;
  }
  EXPECT_GE(deleted + 5, keys.size() - 10);
  c.RunFor(10 * sim::kSecond);
  const uint64_t merges = c.metrics().counters().Get("ds.merges");
  ASSERT_GT(merges, 0u);
  EXPECT_GE(c.metrics().counters().Get("repl.extra_hop_ops"), merges);
}

// --- Chain rounds, repairs and chain mending ---------------------------------
//
// A holder contacts its owner only to ask for a repair, and a chain cut by a
// crashed holder is mended by the holder in front of the crash.  These tests
// drive single rounds by hand: the periodic refresh sits beyond the test
// horizon, and every message takes exactly kHop, so each arrival instant is
// known.

constexpr sim::SimTime kHop = sim::kMillisecond;

ClusterOptions HandDrivenOptions(uint64_t seed, size_t k) {
  ClusterOptions o = TestOptions(seed);
  o.net.min_latency = kHop;
  o.net.max_latency = kHop;
  o.repl.replication_factor = k;
  o.repl.refresh_period = 36000 * sim::kSecond;
  o.repl.group_ttl = 36000 * sim::kSecond;
  return o;
}

// A populated, settled ring in which every owner's group sits on its
// current k successors and every chain is warm.  Returns the members in
// ring order.
std::vector<PeerStack*> SettledRing(Cluster& c, uint64_t seed) {
  Populate(c, 80, seed);
  for (int round = 0; round < 2; ++round) {
    for (PeerStack* p : c.LiveMembers()) p->repl->PushNow();
    c.RunFor(sim::kSecond);
  }
  return MembersByVal(c);
}

uint64_t Sent(Cluster& c, const std::string& payload_type) {
  return c.sim().counters().Get("sim.msgs." + payload_type);
}

// Sent-message counts of every replication payload type.
std::map<std::string, uint64_t> ReplicationMsgs(Cluster& c) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, v] : c.sim().counters().Snapshot()) {
    if (name.rfind("sim.msgs.Replica", 0) == 0 ||
        name.rfind("sim.msgs.Revive", 0) == 0) {
      out[name] = v;
    }
  }
  return out;
}

// Runs until `holder`'s ring has replaced its crashed successor with
// `next` (false if it has not within a second).
bool AwaitSuccessor(Cluster& c, PeerStack* holder, PeerStack* next) {
  for (int i = 0; i < 100; ++i) {
    const auto succ = holder->ring->GetSuccRelaxed();
    if (succ.has_value() && succ->id == next->id()) return true;
    c.RunFor(10 * sim::kMillisecond);
  }
  return false;
}

TEST(ReplicationChainTest, QuietRoundSendsKDeltasAndNothingElse) {
  constexpr size_t kK = 4;
  Cluster c(HandDrivenOptions(71, kK));
  const std::vector<PeerStack*> ring = SettledRing(c, 71);
  ASSERT_GT(ring.size(), kK + 1);
  PeerStack* owner = ring[0];
  ASSERT_GT(owner->ds->ItemCount(), 0u);
  const uint64_t v = owner->ds->mutation_epoch();

  std::map<std::string, uint64_t> expected = ReplicationMsgs(c);
  const sim::SimTime t0 = c.sim().now();
  owner->repl->PushNow();
  c.RunFor(50 * sim::kMillisecond);

  // k delta hops, none of them acked (no caller waits on a refresh), and no
  // message back to the owner.
  expected["sim.msgs.ReplicaDeltaMsg"] += kK;
  EXPECT_EQ(ReplicationMsgs(c), expected);
  // Hop i lands at t0 + i hops on a copy that is already current.
  for (size_t i = 1; i <= kK; ++i) {
    const auto& group = ring[i]->repl->groups().at(owner->id());
    EXPECT_EQ(group.version, v) << "holder " << i;
    EXPECT_EQ(group.refreshed_at, t0 + static_cast<sim::SimTime>(i) * kHop)
        << "holder " << i;
  }
}

TEST(ReplicationChainTest, OffChainHolderAsksForRepairAtOnce) {
  constexpr size_t kK = 3;
  Cluster c(HandDrivenOptions(72, kK));
  const std::vector<PeerStack*> ring = SettledRing(c, 72);
  ASSERT_GT(ring.size(), kK + 1);
  PeerStack* owner = ring[0];
  PeerStack* off_chain = ring[2];
  const uint64_t v = owner->ds->mutation_epoch();
  ASSERT_EQ(off_chain->repl->groups().at(owner->id()).version, v);

  // Point-repair the second holder to a version the owner's chain never
  // passes through (v + 1), then move the owner two mutations on: the
  // v -> v + 2 delta neither starts nor ends at that copy.
  auto push = std::make_shared<replication::ReplicaPushMsg>();
  push->owner = owner->id();
  push->owner_val = owner->ring->val();
  push->manifest = replication::ReplicaManifest{v + 1, 0, 0};
  push->direct = true;
  sim::Node sender(&c.sim());
  sender.Send(off_chain->id(), push);
  c.RunFor(50 * sim::kMillisecond);
  ASSERT_EQ(off_chain->repl->groups().at(owner->id()).version, v + 1);
  const Key lo = owner->ds->range().hi();
  owner->ds->StoreItem(datastore::Item{lo, "a"});
  owner->ds->StoreItem(datastore::Item{lo, "b"});
  ASSERT_EQ(owner->ds->mutation_epoch(), v + 2);

  const uint64_t repairs = c.metrics().counters().Get("repl.snapshot_repairs");
  const uint64_t requests = Sent(c, "ReplicaRepairRequest");
  const sim::SimTime t0 = c.sim().now();
  owner->repl->PushNow();
  c.RunFor(50 * sim::kMillisecond);

  // The delta reaches the second holder at t0 + 2 hops; its repair request
  // goes out then, and the owner's repair snapshot lands two hops later.
  EXPECT_EQ(Sent(c, "ReplicaRepairRequest") - requests, 1u);
  EXPECT_EQ(c.metrics().counters().Get("repl.snapshot_repairs") - repairs, 1u);
  const auto& repaired = off_chain->repl->groups().at(owner->id());
  EXPECT_EQ(repaired.version, v + 2);
  EXPECT_EQ(repaired.refreshed_at, t0 + 4 * kHop);
  EXPECT_EQ(repaired.items(), owner->ds->ItemsSnapshot());
}

// A chain hop is a plain send, so a holder that forwards into a crashed
// successor learns nothing, and the holders behind the crash miss the
// round.  Once the ring has dropped the crashed holder, the holder in front
// of it forwards the group again: the holders behind the crash hold the
// owner's current version before the owner pushes again.
TEST(ReplicationChainTest, HolderInFrontOfACrashMendsTheCutChain) {
  constexpr size_t kK = 4;
  Cluster c(HandDrivenOptions(73, kK));
  const std::vector<PeerStack*> ring = SettledRing(c, 73);
  ASSERT_GT(ring.size(), kK + 2);
  PeerStack* owner = ring[0];

  // The third holder dies at the instant of a push that carries a change:
  // the second holder forwards into it before the ring can notice, so the
  // fourth holder misses the change.
  const Key lo = owner->ds->range().hi();
  owner->ds->StoreItem(datastore::Item{lo, "changed"});
  c.FailPeer(ring[3]);
  owner->repl->PushNow();
  c.RunFor(50 * sim::kMillisecond);
  ASSERT_NE(ring[4]->repl->groups().at(owner->id()).version,
            owner->ds->mutation_epoch());

  // The ring drops the crashed holder from the second holder's successors;
  // the chain goes on from there as far as it would have gone: holders 4
  // and 5 now stand in for 3 and 4.
  const uint64_t reforwards =
      c.metrics().counters().Get("repl.chain_reforwards");
  ASSERT_TRUE(AwaitSuccessor(c, ring[2], ring[4]));
  c.RunFor(5 * kHop);
  EXPECT_GT(c.metrics().counters().Get("repl.chain_reforwards"), reforwards);
  for (size_t i : {4, 5}) {
    const auto it = ring[i]->repl->groups().find(owner->id());
    ASSERT_NE(it, ring[i]->repl->groups().end()) << "holder " << i;
    EXPECT_EQ(it->second.version, owner->ds->mutation_epoch())
        << "holder " << i;
    EXPECT_EQ(it->second.items(), owner->ds->ItemsSnapshot())
        << "holder " << i;
  }
}

// The loss the chain mending closes: an insert acked once its first holder
// applied it, a chain cut at the (crashed) second holder, and the owner and
// the first holder crashing after the ring noticed the cut.  The holder
// behind the cut takes over both arcs, and must hold the item.
TEST(ReplicationChainTest, AckedInsertSurvivesACutChainAndTwoCrashes) {
  constexpr size_t kK = 3;
  Cluster c(HandDrivenOptions(75, kK));
  std::vector<PeerStack*> ring = SettledRing(c, 75);
  ASSERT_GT(ring.size(), kK + 2);
  // The owner is the member that stores the fewest items, so that one more
  // does not split it.
  std::rotate(ring.begin(),
              std::min_element(ring.begin(), ring.end(),
                               [](PeerStack* a, PeerStack* b) {
                                 return a->ds->ItemCount() <
                                        b->ds->ItemCount();
                               }),
              ring.end());
  PeerStack* owner = ring[0];
  const auto& counters = c.metrics().counters();
  const uint64_t splits = counters.Get("ds.splits");
  Key key = owner->ds->range().hi();
  while (owner->ds->HasItem(key)) --key;
  ASSERT_TRUE(owner->ds->range().Contains(key));

  // The insert enters through the first holder, so the owner acks it only
  // once its durable first hop applied (an owner that is its own gateway
  // stores the item without that push).
  c.FailPeer(ring[2]);
  ASSERT_TRUE(c.InsertItem(key, "acked", ring[1]).ok());
  ASSERT_EQ(counters.Get("ds.splits"), splits);
  ASSERT_EQ(ring[1]->ring->GetSuccRelaxed()->id, ring[2]->id())
      << "the ring noticed the crash before the insert";
  ASSERT_EQ(ring[1]->repl->groups().at(owner->id()).items().count(key), 1u);
  ASSERT_EQ(ring[3]->repl->groups().at(owner->id()).items().count(key), 0u);

  ASSERT_TRUE(AwaitSuccessor(c, ring[1], ring[3]));
  c.RunFor(5 * kHop);
  c.FailPeer(owner);
  c.RunFor(kHop);
  c.FailPeer(ring[1]);
  c.RunFor(10 * sim::kSecond);

  const auto avail = c.AuditAvailability();
  EXPECT_TRUE(avail.ok) << avail.lost.size() << " items lost";
  EXPECT_TRUE(std::find(avail.lost.begin(), avail.lost.end(), key) ==
              avail.lost.end())
      << "the acked key " << key << " is lost";
}

}  // namespace
}  // namespace pepper::workload
