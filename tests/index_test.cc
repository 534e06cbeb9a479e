#include "index/p2p_index.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "cluster_test_util.h"
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

// Builds a populated cluster: one bootstrap peer, free peers, `n_items`
// uniformly random items.
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

TEST(IndexTest, RangeQueryReturnsExactlyTheMatchingItems) {
  Cluster c(TestOptions(21));
  std::vector<Key> keys;
  Populate(c, 150, 7, &keys);
  ASSERT_GE(c.LiveMembers().size(), 10u);

  sim::Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    Key lo = rng.Uniform(0, kKeySpan - 1);
    Key hi = lo + rng.Uniform(0, kKeySpan / 4);
    auto q = c.RangeQuery(Span{lo, hi});
    ASSERT_TRUE(q.status.ok()) << q.status.ToString();
    ASSERT_TRUE(q.audit.correct)
        << "missing=" << q.audit.missing.size()
        << " unexpected=" << q.audit.unexpected.size();
    std::set<Key> expect;
    for (Key k : keys) {
      if (k >= lo && k <= hi) expect.insert(k);
    }
    std::set<Key> got;
    for (const auto& item : q.items) got.insert(item.skv);
    EXPECT_EQ(got, expect) << "query [" << lo << "," << hi << "]";
  }
}

TEST(IndexTest, EqualityQueryIsARangeOfOne) {
  Cluster c(TestOptions(22));
  std::vector<Key> keys;
  Populate(c, 60, 11, &keys);
  auto q = c.RangeQuery(Span{keys[10], keys[10]});
  ASSERT_TRUE(q.status.ok());
  ASSERT_EQ(q.items.size(), 1u);
  EXPECT_EQ(q.items[0].skv, keys[10]);

  // And a miss: probe a key that was never inserted.
  std::set<Key> all(keys.begin(), keys.end());
  Key missing = 1;
  while (all.count(missing) > 0) ++missing;
  auto q2 = c.RangeQuery(Span{missing, missing});
  ASSERT_TRUE(q2.status.ok());
  EXPECT_TRUE(q2.items.empty());
}

TEST(IndexTest, DeletedItemsDisappearFromQueries) {
  Cluster c(TestOptions(23));
  std::vector<Key> keys;
  Populate(c, 80, 13, &keys);
  for (size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(c.DeleteItem(keys[i]).ok());
  }
  c.RunFor(5 * sim::kSecond);
  auto q = c.RangeQuery(Span{0, kKeySpan});
  ASSERT_TRUE(q.status.ok());
  EXPECT_TRUE(q.audit.correct);
  std::set<Key> got;
  for (const auto& item : q.items) got.insert(item.skv);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(got.count(keys[i]), 0u);
    } else {
      EXPECT_EQ(got.count(keys[i]), 1u);
    }
  }
}

TEST(IndexTest, WholeSpaceQueryCoversWrapAroundRange) {
  // The peer owning the wrap point holds a circular range; full-space
  // queries must still assemble complete coverage.
  Cluster c(TestOptions(24));
  std::vector<Key> keys;
  Populate(c, 100, 17, &keys);
  auto q = c.RangeQuery(Span{0, std::numeric_limits<Key>::max()});
  ASSERT_TRUE(q.status.ok()) << q.status.ToString();
  EXPECT_TRUE(q.audit.correct);
  EXPECT_EQ(q.items.size(), keys.size());
}

// The headline guarantee (Theorem 3): under concurrent splits, merges,
// redistributions and failures, every completed range query returns a
// correct result per Definition 4.
class QueryCorrectnessUnderChurnTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryCorrectnessUnderChurnTest, PepperQueriesAreAlwaysCorrect) {
  const uint64_t seed = GetParam();
  Cluster c(TestOptions(seed));
  std::vector<Key> keys;
  Populate(c, 120, seed * 13 + 5, &keys);

  // Roughly 10x the paper's Section 6.1 load, plus failures.
  WorkloadOptions wopts;
  wopts.insert_rate_per_sec = 25;
  wopts.delete_rate_per_sec = 15;
  wopts.peer_add_rate_per_sec = 2;
  wopts.fail_rate_per_sec = 0.4;
  wopts.min_live_members = 4;
  wopts.key_max = kKeySpan;
  WorkloadDriver driver(&c, wopts, seed * 31 + 7);
  driver.Start();

  sim::Rng rng(seed);
  int correct = 0;
  for (int i = 0; i < 25; ++i) {
    c.RunFor(300 * sim::kMillisecond);
    Key lo = rng.Uniform(0, kKeySpan - 1);
    Key hi = lo + rng.Uniform(0, kKeySpan / 3);
    auto q = c.RangeQuery(Span{lo, hi});
    if (!q.status.ok()) continue;  // timed-out queries carry no guarantee
    EXPECT_TRUE(q.audit.correct)
        << "seed " << seed << " query " << i << " [" << lo << "," << hi
        << "]: missing=" << q.audit.missing.size()
        << " unexpected=" << q.audit.unexpected.size();
    ++correct;
  }
  driver.Stop();
  EXPECT_GT(correct, 12) << "too few queries completed under churn";
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryCorrectnessUnderChurnTest,
                         ::testing::Values(31, 32, 33, 34, 35, 36));

TEST(IndexTest, NaiveScanMissesResultsDuringReorganizations) {
  // The Section 4.2 anomaly, statistically: with the naive application-level
  // scan, concurrent churn makes some queries return incorrect results.
  int naive_incorrect = 0;
  int naive_completed = 0;
  for (uint64_t seed : {41, 42, 43, 44, 45, 46}) {
    ClusterOptions o = TestOptions(seed);
    o.index.pepper_scan = false;  // naive ring walk
    // The naive baseline also runs without the PEPPER consistency
    // machinery in the lower layers (the Section 6.2 configuration).
    o.ring.pepper_insert = false;
    o.ring.pepper_leave = false;
    o.ds.pepper_availability = false;
    Cluster c(o);
    std::vector<Key> keys;
    Populate(c, 120, seed, &keys);

    WorkloadOptions wopts;
    wopts.insert_rate_per_sec = 60;
    wopts.delete_rate_per_sec = 50;
    wopts.peer_add_rate_per_sec = 2;
    wopts.fail_rate_per_sec = 2.0;
    wopts.min_live_members = 4;
    wopts.key_max = kKeySpan;
    WorkloadDriver driver(&c, wopts, seed);
    driver.Start();

    // Flood with *concurrent* queries so scans overlap the
    // reorganizations instead of running one at a time in quiet moments.
    struct Rec {
      Span span{0, 0};
      sim::SimTime start = 0;
      sim::SimTime end = 0;
      bool done = false;
      bool ok = false;
      std::vector<Key> result;
    };
    auto recs = std::make_shared<std::vector<std::unique_ptr<Rec>>>();
    sim::Rng rng(seed);
    for (int round = 0; round < 30; ++round) {
      c.RunFor(200 * sim::kMillisecond);
      for (int j = 0; j < 6; ++j) {
        PeerStack* via = c.SomeMember();
        if (via == nullptr) continue;
        auto rec = std::make_unique<Rec>();
        Rec* r = rec.get();
        r->span.lo = rng.Uniform(0, kKeySpan / 2);
        r->span.hi = r->span.lo + kKeySpan / 3;
        r->start = c.sim().now();
        auto* simp = &c.sim();
        via->index->RangeQuery(
            r->span, [r, simp](const Status& s,
                               std::vector<datastore::Item> items) {
              r->done = true;
              r->ok = s.ok();
              r->end = simp->now();
              for (const auto& item : items) r->result.push_back(item.skv);
            });
        recs->push_back(std::move(rec));
      }
    }
    driver.Stop();
    c.RunFor(15 * sim::kSecond);  // drain in-flight queries
    for (const auto& rec : *recs) {
      if (!rec->done || !rec->ok) continue;
      ++naive_completed;
      auto audit = c.oracle().CheckQuery(rec->span, rec->start, rec->end,
                                         rec->result);
      if (!audit.correct) ++naive_incorrect;
    }
  }
  EXPECT_GT(naive_completed, 60);
  EXPECT_GT(naive_incorrect, 0)
      << "naive scans unexpectedly produced only correct results";
}

// --- The lazily armed query watchdog -----------------------------------------

// A stalled-query fixture: a quiet populated cluster, a member whose range
// does not wrap (the scan target) with its range lock held for write so
// every scan of it blocks, and another member to start the query at.
struct StalledQuery {
  PeerStack* owner = nullptr;
  PeerStack* via = nullptr;
  Span span{0, 0};
  sim::SimTime started = 0;
  bool done = false;
  Status status = Status::Internal("not finished");
};

void StartStalledQuery(Cluster& c, StalledQuery* q) {
  for (PeerStack* p : c.LiveMembers()) {
    const RingRange& r = p->ds->range();
    if (q->owner == nullptr && r.lo() < r.hi() && !p->ds->rebalancing()) {
      q->owner = p;
    } else if (q->via == nullptr) {
      q->via = p;
    }
  }
  ASSERT_NE(q->owner, nullptr);
  ASSERT_NE(q->via, nullptr);
  q->span = Span{q->owner->ds->range().lo() + 1, q->owner->ds->range().hi()};
  bool locked = false;
  q->owner->ds->lock().AcquireWrite([&locked] { locked = true; });
  ASSERT_TRUE(locked);
  q->started = c.sim().now();
  q->via->index->RangeQuery(
      q->span, [q](const Status& s, std::vector<datastore::Item>) {
        q->done = true;
        q->status = s;
      });
}

// The first point of `via`'s watchdog grid strictly more than `after` past
// the query's start: where a tick first sees the query overdue.
sim::SimTime FirstGridTickPast(const Cluster& c, const StalledQuery& q,
                               sim::SimTime after) {
  const sim::SimTime period = c.options().index.watchdog_period;
  sim::SimTime t = q.via->index->watchdog_grid();
  while (t <= q.started + after) t += period;
  return t;
}

// Steps window by window until `counter` moves; returns the clock before
// and after the window that moved it.
std::pair<sim::SimTime, sim::SimTime> StepUntilCounterMoves(
    Cluster& c, const std::string& counter, sim::SimTime give_up) {
  const uint64_t start = c.metrics().counters().Get(counter);
  sim::SimTime before = c.sim().now();
  while (c.metrics().counters().Get(counter) == start &&
         c.sim().now() < give_up) {
    before = c.sim().now();
    if (!c.sim().Step()) break;
  }
  return {before, c.sim().now()};
}

TEST(IndexWatchdogTest, ArmedOnlyWhileAQueryIsInFlight) {
  Cluster c(TestOptions(51));
  Populate(c, 60, 5);
  for (PeerStack* p : c.LiveMembers()) {
    EXPECT_FALSE(p->index->watchdog_armed()) << "idle peer " << p->id();
  }
  PeerStack* via = c.LiveMembers().front();
  bool done = false;
  via->index->RangeQuery(Span{0, kKeySpan},
                         [&done](const Status& s,
                                 std::vector<datastore::Item>) {
                           EXPECT_TRUE(s.ok()) << s.ToString();
                           done = true;
                         });
  EXPECT_TRUE(via->index->watchdog_armed());
  while (!done && c.sim().Step()) {
    EXPECT_TRUE(via->index->watchdog_armed() || done);
  }
  ASSERT_TRUE(done);
  EXPECT_FALSE(via->index->watchdog_armed());
  EXPECT_EQ(via->index->active_queries(), 0u);
}

TEST(IndexWatchdogTest, StalledQueryResumesOnTheConstructionGrid) {
  Cluster c(TestOptions(52));
  Populate(c, 60, 6);
  StalledQuery q;
  StartStalledQuery(c, &q);
  ASSERT_FALSE(HasFailure());
  const index::IndexOptions& io = c.options().index;
  const sim::SimTime expect = FirstGridTickPast(c, q, io.progress_timeout);
  const auto [before, after] = StepUntilCounterMoves(
      c, "index.query_resumes", q.started + 10 * sim::kSecond);
  // The resume ran in the window holding the grid tick `expect`: the
  // clock was short of it before that window and reached it after.
  EXPECT_LT(before, expect);
  EXPECT_GE(after, expect);
  EXPECT_LT(after, expect + c.sim().lookahead());
  EXPECT_EQ((expect - q.via->index->watchdog_grid()) % io.watchdog_period,
            0u);
  EXPECT_FALSE(q.done);
  EXPECT_TRUE(q.via->index->watchdog_armed());

  // Once the owner lets go, the resumed scan completes the query.
  q.owner->ds->lock().ReleaseWrite();
  while (!q.done && c.sim().Step()) {
  }
  ASSERT_TRUE(q.done);
  EXPECT_TRUE(q.status.ok()) << q.status.ToString();
  EXPECT_FALSE(q.via->index->watchdog_armed());
}

TEST(IndexWatchdogTest, QueryPastItsDeadlineStillTimesOut) {
  ClusterOptions o = TestOptions(53);
  o.index.query_timeout = 1500 * sim::kMillisecond;  // < ds lock_timeout
  Cluster c(o);
  Populate(c, 60, 7);
  StalledQuery q;
  StartStalledQuery(c, &q);
  ASSERT_FALSE(HasFailure());
  const sim::SimTime expect =
      FirstGridTickPast(c, q, o.index.query_timeout);
  const auto [before, after] = StepUntilCounterMoves(
      c, "index.queries_failed", q.started + 10 * sim::kSecond);
  ASSERT_TRUE(q.done);
  EXPECT_TRUE(q.status.IsTimedOut()) << q.status.ToString();
  EXPECT_LT(before, expect);
  EXPECT_GE(after, expect);
  EXPECT_LT(after, expect + c.sim().lookahead());
  EXPECT_FALSE(q.via->index->watchdog_armed());
  q.owner->ds->lock().ReleaseWrite();
}

TEST(IndexWatchdogTest, IdleClusterExecutesNoWatchdogFires) {
  Cluster c(TestOptions(54));
  Populate(c, 60, 8);  // inserts, splits and replication; no queries
  const Counters& fires = c.sim().counters();
  EXPECT_EQ(fires.Get("sim.fires.index.watchdog"), 0u);
  EXPECT_GT(fires.Get("sim.fires.ds.maintenance"), 0u);
  ASSERT_TRUE(c.RangeQuery(Span{0, kKeySpan}).status.ok());
  const uint64_t after_query = fires.Get("sim.fires.index.watchdog");
  c.RunFor(10 * sim::kSecond);
  EXPECT_EQ(fires.Get("sim.fires.index.watchdog"), after_query);
}

}  // namespace
}  // namespace pepper::workload
