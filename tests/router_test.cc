#include "router/hrf_router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cluster_test_util.h"
#include "workload/cluster.h"

namespace pepper::workload {
namespace {

constexpr Key kKeySpan = 1000000;

void Populate(Cluster& c, int n_items, uint64_t seed) {
  c.Bootstrap(kKeySpan);
  for (int i = 0; i < n_items / 5 + 4; ++i) c.AddFreePeer();
  c.RunFor(sim::kSecond);
  sim::Rng rng(seed);
  for (int i = 0; i < n_items; ++i) {
    ASSERT_TRUE(c.InsertItem(rng.Uniform(0, kKeySpan)).ok());
  }
  c.RunFor(5 * sim::kSecond);
}

struct LookupResult {
  Status status = Status::Internal("pending");
  sim::NodeId owner = sim::kNullNode;
  int hops = 0;
  bool done = false;
};

LookupResult LookupSync(Cluster& c, PeerStack* via, Key key) {
  auto res = std::make_shared<LookupResult>();
  via->router->Lookup(key, [res](const Status& s, sim::NodeId owner,
                                 int hops) {
    res->status = s;
    res->owner = owner;
    res->hops = hops;
    res->done = true;
  });
  const sim::SimTime give_up = c.sim().now() + 30 * sim::kSecond;
  while (!res->done && c.sim().now() < give_up) {
    if (!c.sim().Step()) break;
  }
  return *res;
}

// use_hrf_router: the linear baseline and the HRF router must both land
// lookups on the current owner.
class RouterKindTest : public ::testing::TestWithParam<bool> {};

TEST_P(RouterKindTest, LookupsFindTheCurrentOwner) {
  ClusterOptions o = ClusterOptions::FastDefaults();
  o.seed = 71;
  o.use_hrf_router = GetParam();
  Cluster c(o);
  Populate(c, 150, 7);
  auto members = c.LiveMembers();
  ASSERT_GE(members.size(), 10u);

  sim::Rng rng(13);
  for (int i = 0; i < 40; ++i) {
    PeerStack* via = members[rng.Uniform(0, members.size() - 1)];
    const Key key = rng.Uniform(0, kKeySpan);
    LookupResult res = LookupSync(c, via, key);
    ASSERT_TRUE(res.status.ok()) << res.status.ToString();
    PeerStack* owner = c.FindPeer(res.owner);
    ASSERT_NE(owner, nullptr);
    EXPECT_TRUE(owner->ds->range().Contains(key))
        << "lookup " << key << " landed at " << res.owner << " with range "
        << owner->ds->range().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(LinearAndHrf, RouterKindTest,
                         ::testing::Values(false, true));

TEST(RouterTest, HrfBuildsLogarithmicLevels) {
  ClusterOptions o = ClusterOptions::FastDefaults();
  o.seed = 72;
  Cluster c(o);
  Populate(c, 200, 11);
  const size_t n = c.LiveMembers().size();
  ASSERT_GE(n, 15u);
  c.RunFor(5 * sim::kSecond);  // let levels build
  size_t total_levels = 0, counted = 0;
  for (PeerStack* p : c.LiveMembers()) {
    auto* hrf = dynamic_cast<router::HrfRouter*>(p->router.get());
    ASSERT_NE(hrf, nullptr);
    total_levels += hrf->num_levels();
    ++counted;
  }
  const double avg_levels =
      static_cast<double>(total_levels) / static_cast<double>(counted);
  // Levels double in reach: expect ~log2(n), certainly far below n.
  EXPECT_GE(avg_levels, 2.0);
  EXPECT_LE(avg_levels, 2.0 * std::log2(static_cast<double>(n)) + 2.0);
}

TEST(RouterTest, HrfUsesFewerHopsThanLinear) {
  double hrf_hops = 0, linear_hops = 0;
  size_t n_members = 0;
  for (bool use_hrf : {true, false}) {
    ClusterOptions o = ClusterOptions::FastDefaults();
    o.seed = 73;
    o.use_hrf_router = use_hrf;
    Cluster c(o);
    Populate(c, 200, 17);
    c.RunFor(5 * sim::kSecond);
    auto members = c.LiveMembers();
    n_members = members.size();
    sim::Rng rng(19);
    double total = 0;
    int count = 0;
    for (int i = 0; i < 40; ++i) {
      PeerStack* via = members[rng.Uniform(0, members.size() - 1)];
      LookupResult res = LookupSync(c, via, rng.Uniform(0, kKeySpan));
      if (res.status.ok()) {
        total += res.hops;
        ++count;
      }
    }
    ASSERT_GT(count, 30);
    if (use_hrf) {
      hrf_hops = total / count;
    } else {
      linear_hops = total / count;
    }
  }
  ASSERT_GE(n_members, 20u);
  EXPECT_LT(hrf_hops, linear_hops / 2.0)
      << "hrf=" << hrf_hops << " linear=" << linear_hops;
  EXPECT_LE(hrf_hops, 2.0 * std::log2(static_cast<double>(n_members)) + 2.0);
}

TEST(RouterTest, LookupsSurviveOwnerFailure) {
  ClusterOptions o = ClusterOptions::FastDefaults();
  o.seed = 74;
  Cluster c(o);
  Populate(c, 150, 23);
  auto members = c.LiveMembers();
  ASSERT_GE(members.size(), 8u);

  const Key probe = 500000;
  LookupResult before = LookupSync(c, members[0], probe);
  ASSERT_TRUE(before.status.ok());
  PeerStack* owner = c.FindPeer(before.owner);
  ASSERT_NE(owner, nullptr);
  c.FailPeer(owner);
  c.RunFor(8 * sim::kSecond);  // repair + revival

  PeerStack* via = nullptr;
  for (PeerStack* p : c.LiveMembers()) {
    if (p != owner) {
      via = p;
      break;
    }
  }
  ASSERT_NE(via, nullptr);
  LookupResult after = LookupSync(c, via, probe);
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_NE(after.owner, before.owner);
  PeerStack* new_owner = c.FindPeer(after.owner);
  ASSERT_NE(new_owner, nullptr);
  EXPECT_TRUE(new_owner->ds->range().Contains(probe));
}

// Every range a peer held, as (instant it took effect, range); an inactive
// peer holds the empty range.
using RangeLog = std::map<sim::NodeId, std::vector<std::pair<sim::SimTime,
                                                             RingRange>>>;

std::shared_ptr<RangeLog> LogRanges(Cluster& c) {
  auto log = std::make_shared<RangeLog>();
  for (const auto& p : c.peers()) {
    PeerStack* peer = p.get();
    (*log)[peer->id()].emplace_back(c.sim().now(), peer->ds->range());
    peer->ds->add_on_range_change([&c, log, peer]() {
      (*log)[peer->id()].emplace_back(c.sim().now(), peer->ds->range());
    });
  }
  return log;
}

// True if `peer` owned `key` at some instant of [from, to].
bool OwnedDuring(const RangeLog& log, sim::NodeId peer, Key key,
                 sim::SimTime from, sim::SimTime to) {
  const auto it = log.find(peer);
  if (it == log.end()) return false;
  const RingRange* in_effect = nullptr;  // the range held at `from`
  for (const auto& [at, range] : it->second) {
    if (at <= from) {
      in_effect = &range;
    } else if (at <= to && range.Contains(key)) {
      return true;
    }
  }
  return in_effect != nullptr && in_effect->Contains(key);
}

// While a crashed owner's arc is being taken over, its successor may know
// its new predecessor before its range has grown over the dead arc, and a
// forwarder's successor list may still skip a peer.  A lookup sent to the
// key's successor in either state must wait there or walk back, not go on
// round the ring.  (Such lookups used to circle: up to 280 hops here, or
// until the 1 024-hop budget ran out when the state lasted long enough.)
//
// A lookup is misrouted if the peer that answered did not own the key when
// it answered.  The callback runs at the initiator up to one network
// latency after the owner's answer, and a split in that gap can shrink the
// owner's range, so ownership is judged over the window
// [callback - max_latency, callback], from each peer's logged ranges.
TEST(RouterTest, LookupsIntoACrashedArcDoNotCircle) {
  ClusterOptions o = ClusterOptions::FastDefaults();
  o.seed = 74;
  Cluster c(o);
  Populate(c, 150, 23);
  const Key probe = 500000;
  LookupResult before = LookupSync(c, c.LiveMembers()[0], probe);
  ASSERT_TRUE(before.status.ok());
  PeerStack* owner = c.FindPeer(before.owner);
  ASSERT_NE(owner, nullptr);
  const RingRange dead_arc = owner->ds->range();
  const std::shared_ptr<RangeLog> ranges = LogRanges(c);
  const sim::SimTime max_latency = o.net.max_latency;
  c.FailPeer(owner);

  struct Tally {
    int issued = 0;
    int ok = 0;
    int misrouted = 0;
    int max_hops = 0;
  };
  auto tally = std::make_shared<Tally>();
  for (int round = 0; round < 40; ++round) {
    for (PeerStack* via : c.LiveMembers()) {
      if (via == owner) continue;
      const Key key = dead_arc.lo() + 1 + static_cast<Key>(round);
      ++tally->issued;
      via->router->Lookup(key, [&c, tally, ranges, max_latency, key](
                                   const Status& s, sim::NodeId found,
                                   int hops) {
        if (!s.ok()) return;
        ++tally->ok;
        tally->max_hops = std::max(tally->max_hops, hops);
        // The current range counts too: a lookup held at its owner is
        // answered from inside the range change that makes it the owner,
        // before the log's hook has run.
        const sim::SimTime at = c.sim().now();
        PeerStack* p = c.FindPeer(found);
        if (p == nullptr || (!p->ds->range().Contains(key) &&
                             !OwnedDuring(*ranges, found, key,
                                          at - max_latency, at))) {
          ++tally->misrouted;
        }
      });
    }
    c.RunFor(100 * sim::kMillisecond);
  }
  c.RunFor(10 * sim::kSecond);
  EXPECT_EQ(c.metrics().counters().Get("router.hop_budget_exhausted"), 0u);
  EXPECT_EQ(tally->ok, tally->issued);
  EXPECT_EQ(tally->misrouted, 0);
  // A greedy route plus a short walk back; a lookup that went round the
  // ring even once would need about twice this.
  const double n = static_cast<double>(c.LiveMembers().size());
  EXPECT_LE(tally->max_hops, 2.0 * std::log2(n) + 2.0);
}

}  // namespace
}  // namespace pepper::workload
