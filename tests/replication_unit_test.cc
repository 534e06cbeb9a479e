// Unit-level Replication Manager behaviours: push hop counting, group
// refresh/aging, seeds to new successors, and revival feeds.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "cluster_test_util.h"
#include "replication/replication_manager.h"
#include "workload/cluster.h"

namespace pepper::workload {
namespace {

ClusterOptions TestOptions(uint64_t seed, size_t k) {
  ClusterOptions o = ClusterOptions::FastDefaults();
  o.seed = seed;
  o.repl.replication_factor = k;
  return o;
}

void Grow(Cluster& c, int items, uint64_t seed) {
  c.Bootstrap(1000000);
  for (int i = 0; i < items / 5 + 4; ++i) c.AddFreePeer();
  c.RunFor(sim::kSecond);
  sim::Rng rng(seed);
  for (int i = 0; i < items; ++i) {
    ASSERT_TRUE(c.InsertItem(rng.Uniform(0, 1000000)).ok());
  }
  c.RunFor(5 * sim::kSecond);
}

// Counts how many peers hold a replica group for `owner`.
size_t GroupHolders(const Cluster& c, sim::NodeId owner) {
  size_t n = 0;
  for (const auto& p : c.peers()) {
    if (p->ring->alive() && p->repl->groups().count(owner) > 0) ++n;
  }
  return n;
}

TEST(ReplicationUnitTest, PushReachesExactlyKSuccessors) {
  // Former successors (displaced by splits) keep stale copies until the
  // group TTL prunes them; after quiescing past the TTL, exactly the k
  // current successors hold each owner's group.
  ClusterOptions o = TestOptions(1, /*k=*/3);
  o.repl.group_ttl = 2 * sim::kSecond;
  Cluster c(o);
  Grow(c, 100, 3);
  c.RunFor(6 * sim::kSecond);  // several TTL sweeps
  const size_t members = c.LiveMembers().size();
  ASSERT_GE(members, 8u);
  for (PeerStack* p : c.LiveMembers()) {
    EXPECT_EQ(GroupHolders(c, p->id()), 3u)
        << "owner " << p->id() << " group fan-out";
  }
}

TEST(ReplicationUnitTest, ReplicationFactorOneMeansOneHolder) {
  ClusterOptions o = TestOptions(2, /*k=*/1);
  o.repl.group_ttl = 2 * sim::kSecond;
  Cluster c(o);
  Grow(c, 80, 5);
  c.RunFor(6 * sim::kSecond);
  for (PeerStack* p : c.LiveMembers()) {
    EXPECT_EQ(GroupHolders(c, p->id()), 1u);
  }
}

TEST(ReplicationUnitTest, GroupsTrackOwnerDeletes) {
  ClusterOptions opts = TestOptions(3, 3);
  opts.repl.group_ttl = 2 * sim::kSecond;
  Cluster c(opts);
  Grow(c, 60, 7);
  c.RunFor(6 * sim::kSecond);
  // Pick an owner and one of its items.
  PeerStack* owner = c.LiveMembers()[2];
  ASSERT_FALSE(owner->ds->ItemCount() == 0);
  const Key victim = owner->ds->ItemsSnapshot().begin()->first;
  ASSERT_TRUE(c.DeleteItem(victim).ok());
  c.RunFor(2 * sim::kSecond);  // refresh replaces snapshots
  for (const auto& p : c.peers()) {
    if (!p->ring->alive()) continue;
    auto it = p->repl->groups().find(owner->id());
    if (it != p->repl->groups().end()) {
      EXPECT_EQ(it->second.items().count(victim), 0u)
          << "stale replica of deleted item at peer " << p->id();
    }
  }
}

TEST(ReplicationUnitTest, StaleGroupsAgeOut) {
  ClusterOptions o = TestOptions(4, 3);
  o.repl.group_ttl = 2 * sim::kSecond;
  // A dead owner's group is deliberately retained past the TTL (it may be
  // the arc's last copy while the ring repairs); the strike budget bounds
  // the retention.  Small budget here so the aging-out path is testable.
  o.repl.dead_owner_ttl_strikes = 2;
  Cluster c(o);
  Grow(c, 80, 9);
  c.RunFor(2 * sim::kSecond);
  auto members = c.LiveMembers();
  PeerStack* doomed = members[1];
  const sim::NodeId doomed_id = doomed->id();
  ASSERT_GT(GroupHolders(c, doomed_id), 0u);
  c.FailPeer(doomed);
  // The dead owner never refreshes again: its groups survive the strike
  // budget's worth of TTL periods (covering the revival), then age out.
  c.RunFor(4 * sim::kSecond);
  EXPECT_GT(c.metrics().counters().Get("repl.dead_groups_retained"), 0u);
  c.RunFor(10 * sim::kSecond);
  EXPECT_EQ(GroupHolders(c, doomed_id), 0u);
}

TEST(ReplicationUnitTest, NewSuccessorReceivesSeedOnFirstContact) {
  // When a fresh peer joins (split), its predecessor pushes a replica seed
  // through the stabilization piggyback — the new peer can revive its
  // predecessor's items immediately, without waiting for a refresh cycle.
  ClusterOptions o = TestOptions(5, 2);
  o.repl.refresh_period = 30 * sim::kSecond;  // no periodic help
  Cluster c(o);
  c.Bootstrap(1000000);
  c.AddFreePeer();
  c.RunFor(sim::kSecond);
  for (Key k = 1; k <= 11; ++k) {
    ASSERT_TRUE(c.InsertItem(k * 10).ok());
  }
  c.RunFor(5 * sim::kSecond);
  ASSERT_EQ(c.LiveMembers().size(), 2u);
  // Each of the two peers should know the other's group via the seed (the
  // split handoff inserter data plus first-contact stabilization info).
  PeerStack* a = c.LiveMembers()[0];
  PeerStack* b = c.LiveMembers()[1];
  EXPECT_TRUE(a->repl->groups().count(b->id()) > 0 ||
              b->repl->groups().count(a->id()) > 0);
  c.RunFor(2 * sim::kSecond);
}

TEST(ReplicationUnitTest, RevivedItemsServeQueriesWithoutRefreshWindow) {
  // Kill an owner right after a push: the successor's group is current and
  // the revival must restore every item.
  Cluster c(TestOptions(6, 4));
  Grow(c, 100, 11);
  c.RunFor(3 * sim::kSecond);
  PeerStack* victim = c.LiveMembers()[4];
  const size_t victim_items = victim->ds->ItemCount();
  ASSERT_GT(victim_items, 0u);
  c.FailPeer(victim);
  c.RunFor(8 * sim::kSecond);
  EXPECT_TRUE(c.AuditAvailability().ok);
  auto q = c.RangeQuery(Span{0, 1000000});
  ASSERT_TRUE(q.status.ok());
  EXPECT_TRUE(q.audit.correct);
}

// The reference the range lookups replace: a full scan filtered by
// Contains, groups in owner order, items in key order within each group.
std::vector<datastore::Item> FilteredScan(
    const replication::ReplicationManager& repl, const RingRange& arc) {
  std::vector<datastore::Item> out;
  for (const auto& kv : repl.groups()) {
    for (const auto& item_kv : kv.second.items()) {
      if (arc.Contains(item_kv.first)) out.push_back(item_kv.second);
    }
  }
  return out;
}

TEST(ReplicationUnitTest, CollectReplicasInFiltersByArc) {
  Cluster c(TestOptions(7, 3));
  Grow(c, 80, 13);
  c.RunFor(3 * sim::kSecond);
  const std::vector<std::pair<const char*, RingRange>> arcs = {
      {"plain", RingRange::OpenClosed(100000, 200000)},
      {"wrapping", RingRange::OpenClosed(800000, 300000)},
      {"full", RingRange::Full(500000)},
      {"empty", RingRange::Empty()},
  };
  size_t collected = 0;
  for (PeerStack* p : c.LiveMembers()) {
    for (const auto& [shape, arc] : arcs) {
      // Exactly the filtered scan's items, in its order: the takeover
      // engine stores them in this order, stamping an epoch on each.
      const auto got = p->repl->CollectReplicasIn(arc);
      EXPECT_EQ(got, FilteredScan(*p->repl, arc))
          << shape << " arc " << arc.ToString() << " at peer " << p->id();
      collected += got.size();
      // Owners listed for an arc must have their values inside it.
      for (const auto& owner : p->repl->GroupOwnersIn(arc)) {
        EXPECT_TRUE(arc.Contains(owner.second));
      }
    }
  }
  EXPECT_GT(collected, 0u);
}

// The range visit against Contains at the arc boundaries: lo excluded, hi
// included, the smallest and largest keys, and every arc shape (plain,
// wrapping across the top of the key space, full, empty).
TEST(ReplicationUnitTest, ForEachInRangeMatchesContainsAtBoundaries) {
  constexpr Key kMax = std::numeric_limits<Key>::max();
  const std::vector<Key> keys = {0,   1,   99,  100,      101, 499,
                                 500, 501, 900, kMax - 1, kMax};
  std::map<Key, int> map;
  for (Key k : keys) map.emplace(k, static_cast<int>(k % 7));
  const std::vector<RingRange> arcs = {
      // Plain arcs, including ones touching either end of the key space.
      RingRange::OpenClosed(100, 500),
      RingRange::OpenClosed(0, 500),
      RingRange::OpenClosed(100, kMax),
      RingRange::OpenClosed(0, kMax),
      RingRange::OpenClosed(kMax - 1, kMax),
      RingRange::OpenClosed(2, 3),
      // Wrapping arcs.
      RingRange::OpenClosed(500, 100),
      RingRange::OpenClosed(kMax, 0),
      RingRange::OpenClosed(kMax, 100),
      RingRange::OpenClosed(500, 0),
      // Full and empty.
      RingRange::Full(500),
      RingRange::Full(0),
      RingRange::Empty(),
      RingRange::OpenClosed(500, 500),
  };
  auto visited = [&map](const RingRange& arc) {
    std::vector<Key> got;
    replication::ForEachInRange(
        map, arc, [&got](const auto& kv) { got.push_back(kv.first); });
    return got;
  };
  for (const RingRange& arc : arcs) {
    std::vector<Key> want;
    for (const auto& kv : map) {
      if (arc.Contains(kv.first)) want.push_back(kv.first);
    }
    EXPECT_EQ(visited(arc), want) << "arc " << arc.ToString();
    EXPECT_EQ(replication::AnyInRange(map, arc), !want.empty())
        << "arc " << arc.ToString();
  }
  // Spot checks of the boundary rules themselves.
  EXPECT_EQ(visited(RingRange::OpenClosed(100, 500)),
            (std::vector<Key>{101, 499, 500}));
  EXPECT_EQ(visited(RingRange::OpenClosed(500, 1)),
            (std::vector<Key>{0, 1, 501, 900, kMax - 1, kMax}));
}

}  // namespace
}  // namespace pepper::workload
