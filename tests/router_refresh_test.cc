// Router maintenance + lookup-bookkeeping regressions:
//   * retry lookup ids must come from the shared allocator (the historical
//     `lookup_id + (1 << 20)` scheme collides with fresh ids and silently
//     drops a live callback),
//   * `router.lookups` counts user calls, `router.attempts` counts attempts,
//   * a dead forwarding hop is counted (`router.fwd_dead_end`) and the ring
//     is re-consulted before the lookup dead-ends,
//   * a hop that has left the ring refuses a forward, and the sender
//     reroutes at once instead of waiting for the initiator's retry,
//   * refresh replies landing after the hierarchy was cleared/truncated must
//     not re-grow it,
//   * the refresh cadence backs off while the ring is stable and snaps back
//     to the base period on ring events, and a settled ring's refresh RPCs
//     stay within what the backed-off cadence allows.

#include <gtest/gtest.h>

#include <memory>

#include "datastore/data_store_node.h"
#include "datastore/free_peer_pool.h"
#include "ring/ring_node.h"
#include "router/content_router.h"
#include "router/hrf_router.h"
#include "workload/cluster.h"

namespace pepper::workload {
namespace {

constexpr Key kKeySpan = 1000000;

// A router whose every lookup dead-ends: the host peer is a single-member
// ring (successor == self) whose data store was never activated, so
// RouteOrAnswer can neither answer locally nor forward.  Every attempt runs
// into its timeout — the deterministic way to exercise the retry path.
struct DeadEndRouterFixture {
  sim::Simulator sim{123};
  MetricsHub metrics;
  datastore::FreePeerPool pool{&sim};
  std::unique_ptr<ring::RingNode> ring;
  std::unique_ptr<datastore::DataStoreNode> ds;
  std::unique_ptr<router::LinearRouter> router;

  explicit DeadEndRouterFixture(int max_retries) {
    ring = std::make_unique<ring::RingNode>(&sim, /*val=*/500,
                                            ring::RingOptions{});
    ring->InitRing();
    ds = std::make_unique<datastore::DataStoreNode>(
        ring.get(), &pool, datastore::DataStoreOptions{});
    // ds is deliberately NOT activated.
    router::RouterOptions opts;
    opts.lookup_timeout = 100 * sim::kMillisecond;
    opts.max_retries = max_retries;
    opts.metrics = &metrics;
    router = std::make_unique<router::LinearRouter>(ring.get(), ds.get(),
                                                    opts);
  }
};

TEST(RouterLookupIdTest, RetryIdsNeverCollideWithFreshIds) {
  DeadEndRouterFixture f(/*max_retries=*/1);

  // Lookup A gets id X+1 and will retry once at t=100ms.  The historical
  // scheme derived the retry id as (X+1) + (1 << 20); positioning the
  // allocator at X + (1 << 20) right before lookup B starts makes B's fresh
  // id equal exactly that value — under the old scheme B's pending insert
  // overwrote A's live retry entry and one of the two callbacks was
  // silently dropped.
  const uint64_t x = 1000;
  f.router->set_next_lookup_id_for_test(x);
  int a_done = 0;
  int b_done = 0;
  f.router->Lookup(1, [&a_done](const Status& s, sim::NodeId, int) {
    ++a_done;
    EXPECT_TRUE(s.IsTimedOut());
  });
  f.sim.RunFor(150 * sim::kMillisecond);  // A's retry is now live
  f.router->set_next_lookup_id_for_test(x + (1ull << 20));
  f.router->Lookup(2, [&b_done](const Status& s, sim::NodeId, int) {
    ++b_done;
    EXPECT_TRUE(s.IsTimedOut());
  });
  f.sim.RunFor(sim::kSecond);  // all attempts and retries expire

  // Every lookup completes exactly once; no pending entry leaks.
  EXPECT_EQ(a_done, 1);
  EXPECT_EQ(b_done, 1);
  EXPECT_EQ(f.router->pending_lookups_for_test(), 0u);
}

TEST(RouterLookupIdTest, LookupsCountCallsAttemptsCountRetries) {
  DeadEndRouterFixture f(/*max_retries=*/2);
  int done = 0;
  f.router->Lookup(1, [&done](const Status&, sim::NodeId, int) { ++done; });
  f.sim.RunFor(sim::kSecond);
  EXPECT_EQ(done, 1);
  // One user call, three attempts (initial + 2 retries): success-rate math
  // over `router.lookups` must not be inflated by the retried attempts.
  EXPECT_EQ(f.metrics.counters().Get("router.lookups"), 1u);
  EXPECT_EQ(f.metrics.counters().Get("router.attempts"), 3u);
  EXPECT_EQ(f.metrics.counters().Get("router.retries"), 2u);
}

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

// Drives `via`'s lookup of `key` to completion (or `budget` of simulated
// time) and returns its status.
Status LookupFrom(Cluster& c, PeerStack* via, Key key, sim::SimTime budget) {
  struct R {
    bool done = false;
    Status status = Status::Internal("pending");
  };
  auto res = std::make_shared<R>();
  via->router->Lookup(key, [res](const Status& s, sim::NodeId, int) {
    res->done = true;
    res->status = s;
  });
  const sim::SimTime give_up = c.sim().now() + budget;
  while (!res->done && c.sim().now() < give_up) {
    if (!c.sim().Step()) break;
  }
  return res->status;
}

// Refresh passes driven explicitly (the cluster's own refresh timers are
// parked an hour out), so hierarchies only change when a test says so.
void BuildHierarchies(Cluster& c) {
  for (int round = 0; round < 8; ++round) {
    for (PeerStack* p : c.LiveMembers()) {
      auto* hrf = dynamic_cast<router::HrfRouter*>(p->router.get());
      ASSERT_NE(hrf, nullptr);
      hrf->refresh_now_for_test();
    }
    c.RunFor(sim::kSecond);
  }
}

TEST(RouterDeadEndTest, DeadForwardHopIsCountedAndLookupStillCompletes) {
  // Kill the owner of the probe key together with its ring successor, and
  // look the key up immediately through the owner's ring predecessor.  The
  // forward goes to the dead owner and times out after 4 ping timeouts
  // (80 ms).  The ring fallback then re-reads the predecessor's successor:
  // if it is still the dead owner, the lookup dead-ends there — the event
  // the counter must see.  If a ping dropped the owner meanwhile, the
  // fallback forwards to the owner's successor, which is dead too, and
  // 80 ms later the second fallback finds that same successor and
  // dead-ends.  Failure detection is slowed to a 2 s ping cadence, so at
  // most one ping of the predecessor falls inside those 160 ms whatever
  // its phase, and one ping drops at most one successor: one of the two
  // fallbacks always dead-ends.  The initiator-side retries then complete
  // the lookup once the ring has repaired and the next live peer has taken
  // over both arcs.
  ClusterOptions o = ClusterOptions::FastDefaults();
  o.seed = 91;
  o.ring.ping_period = 2 * sim::kSecond;
  o.ring.stabilization_period = 4 * sim::kSecond;
  o.ring.pred_ttl = 8 * sim::kSecond;
  o.router.max_retries = 60;  // the retries span repair and takeover
  Cluster c(o);
  Populate(c, 150, 31);
  auto members = c.LiveMembers();
  ASSERT_GE(members.size(), 10u);

  const Key probe = 654321;
  PeerStack* owner = nullptr;
  for (PeerStack* p : members) {
    if (p->ds->range().Contains(probe)) owner = p;
  }
  ASSERT_NE(owner, nullptr);
  PeerStack* via = c.FindPeer(owner->ring->pred_id());
  ASSERT_NE(via, nullptr);
  ASSERT_NE(via, owner);
  const auto next = owner->ring->GetSuccRelaxed();
  ASSERT_TRUE(next.has_value());
  PeerStack* owner_succ = c.FindPeer(next->id);
  ASSERT_NE(owner_succ, nullptr);
  ASSERT_NE(owner_succ, via);
  ASSERT_NE(owner_succ, owner);
  c.FailPeer(owner);
  c.FailPeer(owner_succ);

  const Status s = LookupFrom(c, via, probe, 60 * sim::kSecond);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GE(c.metrics().counters().Get("router.fwd_dead_end"), 1u);
}

TEST(RouterDeadEndTest, ForwardToDepartedPeerIsRefusedAndRerouted) {
  // A peer that left the ring (FREE) but is still named by a stale routing
  // pointer must refuse the forward: an ack followed by a dead end at that
  // hop would stall the lookup until the initiator's retry.  On a refusal
  // the sender reroutes through its ring successor at once.
  ClusterOptions o = ClusterOptions::FastDefaults();
  o.seed = 94;
  o.hrf_refresh_period = 3600 * sim::kSecond;  // hierarchies stay stale
  Cluster c(o);
  Populate(c, 150, 47);
  BuildHierarchies(c);
  auto members = c.LiveMembers();
  ASSERT_GE(members.size(), 10u);

  // Depart a member that some other member's hierarchy points at.
  PeerStack* departed = nullptr;
  PeerStack* via = nullptr;
  for (PeerStack* p : members) {
    auto* hrf = dynamic_cast<router::HrfRouter*>(p->router.get());
    for (const auto& e : hrf->levels_for_test()) {
      PeerStack* target = c.FindPeer(e.id);
      if (target != nullptr && target != p && departed == nullptr) {
        departed = target;
        via = p;
      }
    }
  }
  ASSERT_NE(departed, nullptr);
  const Key old_val = departed->ring->val();
  c.DepartPeer(departed);
  for (int i = 0; i < 100 && departed->ring->state() != ring::PeerState::kFree;
       ++i) {
    c.RunFor(100 * sim::kMillisecond);
  }
  ASSERT_EQ(departed->ring->state(), ring::PeerState::kFree);
  ASSERT_TRUE(departed->ring->alive());
  ASSERT_FALSE(via->ds->range().Contains(old_val));

  // `via`'s best hop toward the departed peer's old ring value is the stale
  // pointer to it.
  const uint64_t retries = c.metrics().counters().Get("router.retries");
  const uint64_t dead_ends = c.metrics().counters().Get("router.fwd_dead_end");
  const sim::SimTime started = c.sim().now();
  const Status s = LookupFrom(c, via, old_val, 30 * sim::kSecond);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_LT(c.sim().now() - started, o.router.lookup_timeout);
  EXPECT_EQ(c.metrics().counters().Get("router.retries"), retries);
  EXPECT_EQ(c.metrics().counters().Get("router.fwd_dead_end"), dead_ends);
}

// --- Refresh truncate-vs-inflight races -------------------------------------

// A cluster whose refresh timers never fire on their own (huge period), so
// hierarchies are assembled by explicit refresh passes (BuildHierarchies) —
// the only way to deterministically interleave a clear/truncate with an
// in-flight refresh RPC.
ClusterOptions RaceOptions() {
  ClusterOptions o = ClusterOptions::FastDefaults();
  o.seed = 92;
  o.hrf_refresh_period = 3600 * sim::kSecond;  // no self-driven ticks
  return o;
}

TEST(RefreshRaceTest, LateReplyMustNotRegrowAClearedHierarchy) {
  Cluster c(RaceOptions());
  Populate(c, 150, 37);
  BuildHierarchies(c);

  router::HrfRouter* hrf = nullptr;
  for (PeerStack* p : c.LiveMembers()) {
    auto* r = dynamic_cast<router::HrfRouter*>(p->router.get());
    if (r->num_levels() >= 3) hrf = r;
  }
  ASSERT_NE(hrf, nullptr);

  // Start a pass (its level-1 refresh RPC is now in flight), then clear the
  // hierarchy — the ring-state-change race.  The late reply must be
  // dropped, not re-grow a vector whose level-0 slot it would squat.
  hrf->refresh_now_for_test();
  hrf->clear_levels_for_test();
  c.RunFor(2 * sim::kSecond);
  EXPECT_EQ(hrf->num_levels(), 0u);
}

TEST(RefreshRaceTest, LateReplyMustNotRegrowPastATruncation) {
  Cluster c(RaceOptions());
  Populate(c, 150, 41);
  BuildHierarchies(c);

  router::HrfRouter* hrf = nullptr;
  for (PeerStack* p : c.LiveMembers()) {
    auto* r = dynamic_cast<router::HrfRouter*>(p->router.get());
    if (r->num_levels() >= 4) hrf = r;
  }
  ASSERT_NE(hrf, nullptr);

  // Let the pass advance past level 1: after 3.1 ms (max round trip is
  // 3 ms) the level-1 reply has landed and some level >= 2 RPC is in
  // flight; a full >= 4-level chain needs >= 4 ms of round trips, so the
  // pass cannot have finished.  Truncating to one level now removes the
  // in-flight level's chain base — the late reply must be dropped instead
  // of appending a far-distance entry right after level 0.
  hrf->refresh_now_for_test();
  c.RunFor(3100 * sim::kMicrosecond);
  hrf->truncate_levels_for_test(1);
  c.RunFor(2 * sim::kSecond);
  EXPECT_EQ(hrf->num_levels(), 1u);
}

// --- Stability-adaptive cadence ---------------------------------------------

TEST(AdaptiveCadenceTest, BacksOffWhenStableAndSnapsBackOnRingEvents) {
  ClusterOptions o = ClusterOptions::FastDefaults();
  o.seed = 93;
  Cluster c(o);
  Populate(c, 150, 43);

  // No churn: every pass observes an unchanged ring, so every router backs
  // off to the cap (base 200 ms -> cap 1600 ms needs 3 stable passes).
  c.RunFor(10 * sim::kSecond);
  auto members = c.LiveMembers();
  ASSERT_GE(members.size(), 10u);
  for (PeerStack* p : members) {
    auto* hrf = dynamic_cast<router::HrfRouter*>(p->router.get());
    ASSERT_NE(hrf, nullptr);
    EXPECT_EQ(hrf->refresh_period_for_test(), o.hrf_max_refresh_period)
        << "peer " << p->id() << " did not back off";
  }

  // A failure is a ring event: the peers that observe it (the failed
  // peer's predecessor at minimum) snap back to the base period.
  PeerStack* victim = members[members.size() / 2];
  PeerStack* pred = c.FindPeer(victim->ring->pred_id());
  ASSERT_NE(pred, nullptr);
  c.FailPeer(victim);
  bool snapped = false;
  for (int i = 0; i < 40 && !snapped; ++i) {
    c.RunFor(50 * sim::kMillisecond);
    auto* hrf = dynamic_cast<router::HrfRouter*>(pred->router.get());
    snapped = hrf->refresh_period_for_test() == o.hrf_refresh_period;
  }
  EXPECT_TRUE(snapped) << "predecessor never snapped back to base cadence";
}

// The refresh cost of a settled ring: once every router has backed off to
// the cap (the 10 s settle above shows they have), each pass reads each of
// a router's levels once, and a window of length w holds at most
// floor(w / cap) + 1 pass starts per router.  A router that stops backing
// off pays (cap / base)x that.
TEST(AdaptiveCadenceTest, SettledRingRefreshCostStaysAtTheCap) {
  ClusterOptions o = ClusterOptions::FastDefaults();
  o.seed = 93;
  ASSERT_GT(o.hrf_max_refresh_period, o.hrf_refresh_period);
  Cluster c(o);
  Populate(c, 150, 43);
  c.RunFor(10 * sim::kSecond);
  const auto members = c.LiveMembers();
  ASSERT_GE(members.size(), 10u);

  constexpr sim::SimTime kWindow = 16 * sim::kSecond;
  const uint64_t passes_per_router = kWindow / o.hrf_max_refresh_period + 1;
  uint64_t bound = 0;
  for (PeerStack* p : members) {
    auto* hrf = dynamic_cast<router::HrfRouter*>(p->router.get());
    ASSERT_NE(hrf, nullptr);
    bound += hrf->num_levels() * passes_per_router;
  }
  const auto& ctr = c.metrics().counters();
  const uint64_t before = ctr.Get("router.refresh_rpcs");
  c.RunFor(kWindow);
  const uint64_t rpcs = ctr.Get("router.refresh_rpcs") - before;
  EXPECT_EQ(c.LiveMembers().size(), members.size());
  EXPECT_GT(rpcs, 0u);
  EXPECT_LE(rpcs, bound) << "refresh RPCs over " << members.size()
                         << " settled routers in a 16 s window";
}

}  // namespace
}  // namespace pepper::workload
