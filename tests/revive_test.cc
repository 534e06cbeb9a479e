// Pull-based revive: regression tests for the Definition 7 availability gap
// documented after PR 2 — a peer whose successor joined less than one
// replication refresh ago dies before that successor ever held its replica
// group, and the survivors never reconstruct the arc (far replica holders
// only sweep their own range).  The construction below engineers exactly
// that window deterministically, shows items are lost with pull revive
// disabled, and recovered with it enabled.

#include <algorithm>
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "cluster_test_util.h"
#include "datastore/rebalancer.h"
#include "replication/replication_manager.h"
#include "ring/ring_messages.h"
#include "sim/node.h"
#include "workload/cluster.h"

namespace pepper::workload {
namespace {

constexpr Key kKeySpan = 1000000;

// The gap construction itself (GapOptions / BuildGapAndKill) lives in
// cluster_test_util.h — trace_test reuses it for flight-recorder forensics.

TEST(ReviveTest, RecentSuccessorGapLosesItemsWithoutPullRevive) {
  size_t constructed = 0;
  size_t lost_total = 0;
  for (uint64_t seed : {101, 102, 103, 104, 105}) {
    Cluster c(GapOptions(seed, /*pull_revive=*/false));
    const size_t at_stake = BuildGapAndKill(c, seed);
    if (at_stake == 0) continue;  // topology did not offer the trio
    ++constructed;
    c.RunFor(20 * sim::kSecond);
    lost_total += c.AuditAvailability().lost.size();
  }
  ASSERT_GT(constructed, 0u) << "gap construction never succeeded";
  // The pre-revive protocol loses the arc: this is the PR 2 gap, alive.
  EXPECT_GT(lost_total, 0u)
      << "expected the engineered Definition 7 gap to lose items with "
         "pull revive disabled";
}

TEST(ReviveTest, PullReviveClosesRecentSuccessorGap) {
  size_t constructed = 0;
  for (uint64_t seed : {101, 102, 103, 104, 105}) {
    Cluster c(GapOptions(seed, /*pull_revive=*/true));
    const size_t at_stake = BuildGapAndKill(c, seed);
    if (at_stake == 0) continue;
    ++constructed;
    c.RunFor(20 * sim::kSecond);
    const auto avail = c.AuditAvailability();
    EXPECT_TRUE(avail.ok)
        << avail.lost.size() << " item(s) lost despite pull revive (seed "
        << seed << ", " << at_stake << " at stake)";
    EXPECT_GT(c.metrics().counters().Get("repl.revives_triggered"), 0u);
  }
  ASSERT_GT(constructed, 0u) << "gap construction never succeeded";
}

// Rapid successor churn at the replication slack boundary: adjacent pairs
// die in the same instant (exactly k=2 consecutive holders), repeatedly,
// with recovery gaps.  The subsystem must keep every item live.
TEST(ReviveTest, AdjacentPairFailuresWithinSlackLoseNothing) {
  ClusterOptions o = ClusterOptions::FastDefaults();
  o.seed = 61;
  o.repl.replication_factor = 3;
  Cluster c(o);
  c.Bootstrap(kKeySpan);
  for (int i = 0; i < 24; ++i) c.AddFreePeer();
  c.RunFor(sim::kSecond);
  sim::Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(c.InsertItem(rng.Uniform(0, kKeySpan)).ok());
  }
  c.RunFor(3 * sim::kSecond);

  for (int round = 0; round < 4; ++round) {
    auto members = MembersByVal(c);
    if (members.size() <= 6) break;
    const size_t at = rng.Uniform(0, members.size() - 1);
    c.FailPeer(members[at]);
    c.FailPeer(members[(at + 1) % members.size()]);
    c.RunFor(6 * sim::kSecond);
  }
  const auto avail = c.AuditAvailability();
  EXPECT_TRUE(avail.ok) << avail.lost.size() << " item(s) lost";
  auto q = c.RangeQuery(Span{0, kKeySpan});
  ASSERT_TRUE(q.status.ok());
  EXPECT_TRUE(q.audit.correct);
}

// --- The revive-sweep probe memo ----------------------------------------------
//
// The maintenance tick starts a revive sweep when a held replica inside the
// peer's range holds a key its store lacks, and reuses a negative answer
// until the range, the store or the held replicas change.  These tests feed
// one lone peer hand-built replica groups and check that every change that
// can make a key go missing reaches the next tick.

datastore::Item MakeItem(Key skv) {
  datastore::Item item;
  item.skv = skv;
  item.data = "r";
  return item;
}

// A replica-group owner that exists only to feed the peer under test: it
// pushes hand-built snapshots and deltas, answers the sweep's liveness ping
// as a joined peer (so nothing is ever promoted from it), and counts those
// pings — each one is a sweep that started.
class FakeOwner : public sim::Node {
 public:
  explicit FakeOwner(sim::Simulator* sim) : sim::Node(sim) {
    On<ring::PingRequest>(
        [this](const sim::Message& m, const ring::PingRequest&) {
          ++pings;
          Reply(m, sim::MakePayload<ring::PingReply>());
        });
  }

  // Replaces `to`'s copy of this owner's group with `keys`.
  void Snapshot(sim::NodeId to, const std::vector<Key>& keys) {
    auto push = std::make_shared<replication::ReplicaPushMsg>();
    push->owner = id();
    push->direct = true;
    ++version_;
    std::map<Key, uint64_t> epochs;
    for (Key k : keys) {
      push->items.push_back(MakeItem(k));
      push->epochs.push_back(version_);
      epochs[k] = version_;
    }
    push->manifest = replication::BuildManifest(epochs, version_);
    Send(to, push);
  }

  // Upserts then erases keys in `copy`, `to`'s current copy of the group.
  void Delta(sim::NodeId to, const replication::ReplicaGroup& copy,
             const std::vector<Key>& upserts, const std::vector<Key>& deletes) {
    auto delta = std::make_shared<replication::ReplicaDeltaMsg>();
    delta->owner = id();
    delta->from_version = copy.version;
    version_ = copy.version + 1;
    replication::ReplicaGroup next = copy;
    for (Key k : upserts) {
      delta->upserts.push_back(MakeItem(k));
      delta->upsert_epochs.push_back(version_);
      next.Upsert(MakeItem(k), version_);
    }
    for (Key k : deletes) {
      delta->deletes.push_back(k);
      next.Erase(k);
    }
    delta->manifest = next.ManifestAt(version_);
    Send(to, delta);
  }

  uint64_t version() const { return version_; }
  int pings = 0;

 private:
  uint64_t version_ = 0;
};

// The uncached trigger: some held replica inside the range is not stored.
bool FullScanNeedsSweep(PeerStack* p) {
  for (const auto& [owner, group] : p->repl->groups()) {
    for (const auto& [skv, item] : group.items()) {
      if (p->ds->range().Contains(skv) && !p->ds->HasItem(skv)) return true;
    }
  }
  return false;
}

// One bootstrapped peer (no free peers, so no splits) holding `stored`.
PeerStack* LonePeer(Cluster& c, const std::vector<Key>& stored) {
  PeerStack* p = c.Bootstrap(kKeySpan);
  c.RunFor(sim::kSecond);
  for (Key k : stored) p->ds->StoreItem(MakeItem(k));
  return p;
}

// Runs past the next maintenance tick, plus the ping's round trip.
void RunPastNextTick(Cluster& c) {
  c.RunFor(c.options().ds.maintenance_period + 50 * sim::kMillisecond);
}

TEST(ReviveProbeMemoTest, DeltaUpsertOfMissingKeyStartsTheSweep) {
  Cluster c(ClusterOptions::FastDefaults());
  PeerStack* p = LonePeer(c, {100, 200, 300});
  FakeOwner owner(&c.sim());
  owner.Snapshot(p->id(), {100, 200});  // all stored: nothing missing
  c.RunFor(sim::kSecond);
  ASSERT_EQ(owner.pings, 0);
  ASSERT_FALSE(FullScanNeedsSweep(p));
  owner.Delta(p->id(), p->repl->groups().at(owner.id()), {400}, {});
  RunPastNextTick(c);
  ASSERT_EQ(p->repl->groups().at(owner.id()).version, owner.version());
  EXPECT_GT(owner.pings, 0);
}

TEST(ReviveProbeMemoTest, StoreDropOfHeldKeyStartsTheSweep) {
  Cluster c(ClusterOptions::FastDefaults());
  PeerStack* p = LonePeer(c, {100, 200, 300});
  FakeOwner owner(&c.sim());
  owner.Snapshot(p->id(), {100, 200});
  c.RunFor(sim::kSecond);
  ASSERT_EQ(owner.pings, 0);
  p->ds->DropItem(200);
  RunPastNextTick(c);
  EXPECT_GT(owner.pings, 0);
}

TEST(ReviveProbeMemoTest, ArcExtensionOverHeldReplicasStartsTheSweep) {
  Cluster c(ClusterOptions::FastDefaults());
  // Six stored items inside (1000, 2000]: no underflow on the part arc.
  PeerStack* p = LonePeer(c, {1100, 1200, 1300, 1400, 1500, 1600});
  p->ds->set_range(RingRange::OpenClosed(1000, 2000));
  FakeOwner owner(&c.sim());
  owner.Snapshot(p->id(), {900, 1100});  // 900 lies outside the arc
  c.RunFor(sim::kSecond);
  ASSERT_EQ(owner.pings, 0);
  p->ds->set_range(RingRange::OpenClosed(800, 2000));
  RunPastNextTick(c);
  EXPECT_GT(owner.pings, 0);
}

// Random snapshots, deltas, store puts and drops and range changes: the
// memoized trigger equals the uncached full scan at every step, while the
// peer's own maintenance ticks consult the same memo in between.
TEST(ReviveProbeMemoTest, MemoizedProbeMatchesAFullScanAtEveryStep) {
  Cluster c(ClusterOptions::FastDefaults());
  PeerStack* p = LonePeer(c, {});
  std::vector<std::unique_ptr<FakeOwner>> owners;
  for (int i = 0; i < 3; ++i) {
    owners.push_back(std::make_unique<FakeOwner>(&c.sim()));
  }
  std::vector<Key> universe;
  for (Key i = 1; i <= 24; ++i) universe.push_back(i * (kKeySpan / 25));
  const std::vector<RingRange> arcs = {
      RingRange::Full(kKeySpan),
      RingRange::OpenClosed(universe[3], universe[15]),
      RingRange::OpenClosed(universe[18], universe[5]),  // wraps
      RingRange::OpenClosed(universe[0], universe[23]),
      RingRange::OpenClosed(universe[10], universe[11]),
  };
  sim::Rng rng(29);
  auto some_keys = [&](uint64_t max_n) {
    std::vector<Key> keys;
    const uint64_t n = rng.Uniform(0, max_n);
    for (uint64_t i = 0; i < n; ++i) {
      keys.push_back(universe[rng.Uniform(0, universe.size() - 1)]);
    }
    return keys;
  };
  int positive = 0;
  int negative = 0;
  for (int step = 0; step < 800; ++step) {
    FakeOwner& owner = *owners[rng.Uniform(0, owners.size() - 1)];
    const auto copy = p->repl->groups().find(owner.id());
    switch (rng.Uniform(0, 5)) {
      case 0:
        owner.Snapshot(p->id(), some_keys(6));
        break;
      case 1:
        // A delta applies only on top of the owner's latest version.
        if (copy != p->repl->groups().end() &&
            copy->second.version == owner.version()) {
          owner.Delta(p->id(), copy->second, some_keys(3), some_keys(2));
        }
        break;
      case 2:
        if (p->ds->ItemCount() < 10) {
          p->ds->StoreItem(MakeItem(universe[rng.Uniform(0, 23)]));
        }
        break;
      case 3:
        p->ds->DropItem(universe[rng.Uniform(0, 23)]);
        break;
      case 4:
        p->ds->set_range(arcs[rng.Uniform(0, arcs.size() - 1)]);
        break;
      default:
        break;
    }
    c.RunFor(rng.Uniform(1, 30) * sim::kMillisecond);
    const bool want = FullScanNeedsSweep(p);
    ASSERT_EQ(p->ds->rebalancer().ReviveSweepNeeded(), want)
        << "step " << step;
    // Asked twice in a row: a reused answer must still be right.
    ASSERT_EQ(p->ds->rebalancer().ReviveSweepNeeded(), want)
        << "step " << step;
    ++(want ? positive : negative);
  }
  EXPECT_GT(positive, 50);
  EXPECT_GT(negative, 50);
}

}  // namespace
}  // namespace pepper::workload
