#include "history/history.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "history/oracle.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace pepper::history {
namespace {

TEST(HistoryTest, IntervalOrderMatchesHappenedBefore) {
  History h;
  uint64_t a = h.Begin("a", 0);
  h.End(a, 10);
  uint64_t b = h.Begin("b", 10);
  h.End(b, 20);
  uint64_t c = h.Begin("c", 5);  // overlaps a and b
  h.End(c, 15);

  EXPECT_TRUE(h.HappenedBefore(a, b));
  EXPECT_FALSE(h.HappenedBefore(b, a));
  EXPECT_TRUE(h.Concurrent(a, c));
  EXPECT_TRUE(h.Concurrent(b, c));
  EXPECT_TRUE(h.HappenedBefore(a, a));  // reflexive
}

TEST(HistoryTest, UnfinishedOperationOrderedBeforeNothing) {
  History h;
  uint64_t a = h.Begin("a", 0);
  uint64_t b = h.Begin("b", 100);
  EXPECT_FALSE(h.HappenedBefore(a, b));
  EXPECT_TRUE(h.Concurrent(a, b));
}

TEST(HistoryTest, TruncatedHistoryContainsOnlyPriorOps) {
  History h;
  uint64_t a = h.Begin("a", 0);
  h.End(a, 10);
  uint64_t b = h.Begin("b", 20);
  h.End(b, 30);
  uint64_t c = h.Begin("c", 25);  // concurrent with b
  h.End(c, 35);

  History hb = h.Truncate(b);
  EXPECT_NE(hb.Find(a), nullptr);
  EXPECT_NE(hb.Find(b), nullptr);
  EXPECT_EQ(hb.Find(c), nullptr);
}

class OracleTest : public ::testing::Test {
 protected:
  OracleTest() : sim_(1), oracle_(&sim_) {}
  sim::Simulator sim_;
  LivenessOracle oracle_;
};

TEST_F(OracleTest, LivenessFollowsHolders) {
  sim_.RunFor(100);
  oracle_.OnStore(1, 42);
  EXPECT_TRUE(oracle_.IsLiveNow(42));
  sim_.RunFor(100);
  oracle_.OnStore(2, 42);  // replica-promotion style double-hold
  sim_.RunFor(100);
  oracle_.OnDrop(1, 42);
  EXPECT_TRUE(oracle_.IsLiveNow(42));
  sim_.RunFor(100);
  oracle_.OnDrop(2, 42);
  EXPECT_FALSE(oracle_.IsLiveNow(42));

  EXPECT_TRUE(oracle_.LiveThroughout(42, 150, 350));
  EXPECT_FALSE(oracle_.LiveThroughout(42, 150, 450));
  EXPECT_TRUE(oracle_.EverLiveIn(42, 350, 500));
  EXPECT_FALSE(oracle_.EverLiveIn(42, 401, 500));
}

TEST_F(OracleTest, PeerFailureDropsItsItems) {
  oracle_.OnStore(1, 10);
  oracle_.OnStore(1, 20);
  oracle_.OnStore(2, 20);
  oracle_.OnPeerFailed(1);
  EXPECT_FALSE(oracle_.IsLiveNow(10));
  EXPECT_TRUE(oracle_.IsLiveNow(20));
}

TEST_F(OracleTest, QueryAuditFlagsMissingItems) {
  sim_.RunFor(100);
  oracle_.OnStore(1, 50);
  oracle_.OnStore(1, 60);
  sim_.RunFor(400);
  // Query window [200, 300], range [0, 100]: both items live throughout.
  auto audit = oracle_.CheckQuery(Span{0, 100}, 200, 300, {50});
  EXPECT_FALSE(audit.correct);
  ASSERT_EQ(audit.missing.size(), 1u);
  EXPECT_EQ(audit.missing[0], 60u);
  EXPECT_TRUE(audit.unexpected.empty());
}

TEST_F(OracleTest, QueryAuditFlagsUnexpectedItems) {
  sim_.RunFor(100);
  oracle_.OnStore(1, 50);
  auto audit = oracle_.CheckQuery(Span{0, 100}, 150, 200, {50, 99});
  EXPECT_FALSE(audit.correct);
  ASSERT_EQ(audit.unexpected.size(), 1u);
  EXPECT_EQ(audit.unexpected[0], 99u);
}

TEST_F(OracleTest, ItemsNotLiveThroughoutMayBeMissed) {
  sim_.RunFor(100);
  oracle_.OnStore(1, 50);
  sim_.RunFor(100);
  oracle_.OnDrop(1, 50);  // dies mid-window
  auto audit = oracle_.CheckQuery(Span{0, 100}, 150, 300, {});
  EXPECT_TRUE(audit.correct) << "Definition 4 condition 2 only constrains "
                                "items live throughout the query";
  // But returning it is also fine (condition 1: live at some point).
  auto audit2 = oracle_.CheckQuery(Span{0, 100}, 150, 300, {50});
  EXPECT_TRUE(audit2.correct);
}

TEST_F(OracleTest, AvailabilityAuditReportsLostItems) {
  oracle_.OnStore(1, 7);
  oracle_.RegisterInsert(7);
  oracle_.OnStore(2, 8);
  oracle_.RegisterInsert(8);
  oracle_.RegisterDelete(8);
  oracle_.OnDrop(2, 8);
  EXPECT_TRUE(oracle_.CheckAvailability().ok);

  oracle_.OnPeerFailed(1);  // 7 lost without delete
  auto audit = oracle_.CheckAvailability();
  EXPECT_FALSE(audit.ok);
  ASSERT_EQ(audit.lost.size(), 1u);
  EXPECT_EQ(audit.lost[0], 7u);
}

TEST_F(OracleTest, FailedDeleteExcusesOnlyAKeyDroppedWhileItRan) {
  // 1: dropped while its failed delete ran (an earlier attempt applied).
  // 2: lost to a crash while its failed delete ran.  3: lost to a crash
  // before its delete was issued.  4: still live after its failed delete.
  for (Key k = 1; k <= 4; ++k) {
    oracle_.OnStore(static_cast<sim::NodeId>(k), k);
    oracle_.RegisterInsert(k);
  }
  sim_.RunFor(100);
  oracle_.OnPeerFailed(3);
  sim_.RunFor(100);
  const sim::SimTime issued = sim_.now();
  sim_.RunFor(100);
  oracle_.OnDrop(1, 1);
  oracle_.OnPeerFailed(2);
  sim_.RunFor(100);
  for (Key k = 1; k <= 4; ++k) oracle_.RegisterUnconfirmedDelete(k, issued);
  auto audit = oracle_.CheckAvailability();
  EXPECT_EQ(audit.lost, (std::vector<Key>{2, 3}));

  // Key 4's delete did not apply; a later loss is still owed.
  oracle_.OnPeerFailed(4);
  EXPECT_EQ(oracle_.CheckAvailability().lost, (std::vector<Key>{2, 3, 4}));
}

// The audit as a set-based reference: the result as a std::set, and every
// key of the universe probed for condition 2 on its own.
LivenessOracle::QueryAudit ReferenceAudit(const LivenessOracle& oracle,
                                          const Span& predicate,
                                          sim::SimTime start,
                                          sim::SimTime end,
                                          const std::vector<Key>& result,
                                          Key universe_max) {
  LivenessOracle::QueryAudit audit;
  const std::set<Key> result_set(result.begin(), result.end());
  for (Key k : result) {
    if (!predicate.Contains(k) || !oracle.EverLiveIn(k, start, end)) {
      audit.unexpected.push_back(k);
    }
  }
  for (Key k = predicate.lo; k <= std::min(predicate.hi, universe_max); ++k) {
    if (oracle.LiveThroughout(k, start, end) && result_set.count(k) == 0) {
      audit.missing.push_back(k);
    }
  }
  audit.correct = audit.missing.empty() && audit.unexpected.empty();
  return audit;
}

TEST_F(OracleTest, MergeJoinAuditMatchesSetReference) {
  constexpr Key kKeys = 40;
  constexpr sim::NodeId kPeers = 5;
  sim::Rng rng(17);
  // A random liveness history: stores, drops and peer failures spread
  // over time, some keys held by several peers at once.
  for (int step = 0; step < 600; ++step) {
    sim_.RunFor(rng.Uniform(1, 20));
    const sim::NodeId peer = static_cast<sim::NodeId>(rng.Uniform(1, kPeers));
    const Key k = rng.Uniform(0, kKeys - 1);
    const uint64_t op = rng.Uniform(0, 9);
    if (op < 5) {
      oracle_.OnStore(peer, k);
    } else if (op < 9) {
      oracle_.OnDrop(peer, k);
    } else {
      oracle_.OnPeerFailed(peer);
    }
  }
  const sim::SimTime horizon = sim_.now();
  int incorrect = 0;
  int with_missing = 0;
  for (int q = 0; q < 2000; ++q) {
    Key lo = rng.Uniform(0, kKeys + 5);
    Key hi = rng.Uniform(0, kKeys + 5);
    if (lo > hi) std::swap(lo, hi);
    const Span predicate{lo, hi};
    sim::SimTime start = rng.Uniform(0, horizon);
    sim::SimTime end = rng.Uniform(0, horizon);
    if (start > end) std::swap(start, end);
    // Unsorted, with duplicates, keys outside the predicate and keys the
    // oracle never tracked (>= kKeys).
    std::vector<Key> result;
    const uint64_t n = rng.Uniform(0, 30);
    for (uint64_t i = 0; i < n; ++i) {
      result.push_back(rng.Uniform(0, kKeys + 5));
      if (rng.Uniform(0, 4) == 0) result.push_back(result.back());
    }
    const auto got = oracle_.CheckQuery(predicate, start, end, result);
    const auto want =
        ReferenceAudit(oracle_, predicate, start, end, result, kKeys + 5);
    ASSERT_EQ(got.missing, want.missing) << "query " << q;
    ASSERT_EQ(got.unexpected, want.unexpected) << "query " << q;
    ASSERT_EQ(got.correct, want.correct) << "query " << q;
    if (!got.correct) ++incorrect;
    if (!got.missing.empty()) ++with_missing;
  }
  // Both verdicts occur, and condition 2 fires, so the comparison covered
  // every branch.
  EXPECT_GT(incorrect, 0);
  EXPECT_LT(incorrect, 2000);
  EXPECT_GT(with_missing, 0);
}

}  // namespace
}  // namespace pepper::history
