// Property-based sweeps over the pure building blocks: circular key-space
// arithmetic, coverage assembly, the history partial order, the zipf
// generator, and — on a live cluster — the scanRange correctness conditions
// of Definition 6.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/key_space.h"
#include "history/history.h"
#include "sim/rng.h"
#include "workload/cluster.h"
#include "workload/workload.h"

namespace pepper {
namespace {

class KeySpaceFuzz : public ::testing::TestWithParam<uint64_t> {};

// IntersectClosed must return pieces that are (a) inside the span,
// (b) inside the arc, (c) pairwise disjoint, and (d) jointly cover every
// sampled point of arc ∩ span.
TEST_P(KeySpaceFuzz, IntersectClosedIsExact) {
  sim::Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const Key lo = rng.Uniform(0, 1000);
    const Key hi = rng.Uniform(0, 1000);
    RingRange arc = (round % 10 == 0) ? RingRange::Full(hi)
                                      : RingRange::OpenClosed(lo, hi);
    const Key a = rng.Uniform(0, 1000);
    const Key b = a + rng.Uniform(0, 400);
    const Span span{a, b};
    auto pieces = arc.IntersectClosed(span);

    for (size_t i = 0; i < pieces.size(); ++i) {
      EXPECT_LE(pieces[i].lo, pieces[i].hi);
      EXPECT_GE(pieces[i].lo, span.lo);
      EXPECT_LE(pieces[i].hi, span.hi);
      for (size_t j = i + 1; j < pieces.size(); ++j) {
        const bool disjoint =
            pieces[i].hi < pieces[j].lo || pieces[j].hi < pieces[i].lo;
        EXPECT_TRUE(disjoint);
      }
    }
    for (Key k = a; k <= b; ++k) {
      bool in_pieces = false;
      for (const Span& p : pieces) in_pieces = in_pieces || p.Contains(k);
      EXPECT_EQ(in_pieces, arc.Contains(k))
          << "arc " << arc.ToString() << " span " << span.ToString()
          << " key " << k;
    }
  }
}

TEST_P(KeySpaceFuzz, SpanCoverageMatchesBruteForceUnion) {
  sim::Rng rng(GetParam() * 31 + 5);
  for (int round = 0; round < 100; ++round) {
    const Key lo = rng.Uniform(0, 200);
    const Key hi = lo + rng.Uniform(1, 200);
    SpanCoverage cov(Span{lo, hi});
    std::set<Key> covered;
    const int pieces = static_cast<int>(rng.Uniform(1, 12));
    for (int i = 0; i < pieces; ++i) {
      const Key a = rng.Uniform(lo > 20 ? lo - 20 : 0, hi + 20);
      const Key b = a + rng.Uniform(0, 60);
      cov.Add(Span{a, b});
      for (Key k = a; k <= b; ++k) covered.insert(k);
    }
    bool brute_complete = true;
    Key first_uncovered = 0;
    for (Key k = lo; k <= hi; ++k) {
      if (covered.count(k) == 0) {
        brute_complete = false;
        first_uncovered = k;
        break;
      }
    }
    EXPECT_EQ(cov.Complete(), brute_complete);
    auto reported = cov.FirstUncovered();
    if (brute_complete) {
      EXPECT_FALSE(reported.has_value());
    } else {
      ASSERT_TRUE(reported.has_value());
      EXPECT_EQ(*reported, first_uncovered);
    }
  }
}

TEST_P(KeySpaceFuzz, InArcPartitionsTheCircle) {
  sim::Rng rng(GetParam() * 7 + 3);
  for (int round = 0; round < 300; ++round) {
    const Key a = rng.Uniform(0, 1000);
    const Key c = rng.Uniform(0, 1000);
    const Key b = rng.Uniform(0, 1000);
    if (a == c) {
      EXPECT_TRUE(InArc(a, b, c));  // full circle
      continue;
    }
    // Exactly one of the two complementary arcs contains b (boundary care:
    // (a, c] and (c, a] partition everything except nothing).
    EXPECT_NE(InArc(a, b, c), InArc(c, b, a))
        << "a=" << a << " b=" << b << " c=" << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeySpaceFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class HistoryFuzz : public ::testing::TestWithParam<uint64_t> {};

// The interval order must be a partial order: transitive, and antisymmetric
// for distinct operations.
TEST_P(HistoryFuzz, HappenedBeforeIsAPartialOrder) {
  sim::Rng rng(GetParam() * 13 + 1);
  history::History h;
  std::vector<uint64_t> ops;
  for (int i = 0; i < 30; ++i) {
    const sim::SimTime start = rng.Uniform(0, 1000);
    const uint64_t id = h.Begin("op", start);
    h.End(id, start + rng.Uniform(0, 300));
    ops.push_back(id);
  }
  for (uint64_t x : ops) {
    for (uint64_t y : ops) {
      if (x != y && h.HappenedBefore(x, y)) {
        EXPECT_FALSE(h.HappenedBefore(y, x));
      }
      for (uint64_t z : ops) {
        if (h.HappenedBefore(x, y) && h.HappenedBefore(y, z)) {
          EXPECT_TRUE(h.HappenedBefore(x, z));
        }
      }
    }
  }
}

TEST_P(HistoryFuzz, TruncationIsDownwardClosed) {
  sim::Rng rng(GetParam() * 17 + 9);
  history::History h;
  std::vector<uint64_t> ops;
  for (int i = 0; i < 20; ++i) {
    const sim::SimTime start = rng.Uniform(0, 500);
    const uint64_t id = h.Begin("op", start);
    h.End(id, start + rng.Uniform(0, 100));
    ops.push_back(id);
  }
  const uint64_t pivot = ops[rng.Uniform(0, ops.size() - 1)];
  history::History trunc = h.Truncate(pivot);
  for (uint64_t x : ops) {
    const bool in_trunc = trunc.Find(x) != nullptr;
    EXPECT_EQ(in_trunc, x == pivot || h.HappenedBefore(x, pivot));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistoryFuzz, ::testing::Values(1, 2, 3, 4));

TEST(ZipfTest, RanksAreBoundedAndSkewed) {
  workload::ZipfGenerator zipf(1000, 0.9, 42);
  std::map<size_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    const size_t r = zipf.Next();
    ASSERT_LT(r, 1000u);
    counts[r]++;
  }
  // Rank 0 must dominate a mid-pack rank decisively.
  EXPECT_GT(counts[0], 20 * std::max(counts[500], 1));
}

TEST(RngTest, UniformCoversFullRangeEndpoints) {
  sim::Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.Uniform(3, 10);
    ASSERT_GE(v, 3u);
    ASSERT_LE(v, 10u);
    saw_lo = saw_lo || v == 3;
    saw_hi = saw_hi || v == 10;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// --- Definition 6 on a live cluster -----------------------------------------

// Registers a spy scan handler and audits every invocation against the
// scanRange correctness conditions: each piece r is a sub-range of the
// invoked peer's range at invocation time (condition 2), pieces of one scan
// are pairwise disjoint (condition 3), and a completed query's pieces union
// to [lb, ub] (condition 4; checked by the index's coverage tracker, which
// refuses to complete otherwise).
class ScanRangeCorrectnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScanRangeCorrectnessTest, Definition6HoldsUnderChurn) {
  const uint64_t seed = GetParam();
  workload::ClusterOptions o = workload::ClusterOptions::FastDefaults();
  o.seed = seed;
  workload::Cluster c(o);
  c.Bootstrap(1000000);
  for (int i = 0; i < 30; ++i) c.AddFreePeer();
  c.RunFor(sim::kSecond);
  sim::Rng rng(seed);
  for (int i = 0; i < 120; ++i) {
    (void)c.InsertItem(rng.Uniform(0, 1000000));
  }
  c.RunFor(5 * sim::kSecond);

  // Spy on every peer's scan handler invocations.
  struct Piece {
    sim::NodeId peer;
    Span r;
  };
  std::vector<Piece> scan_pieces;  // pieces of the current scan
  int violations = 0;
  for (const auto& p : c.peers()) {
    auto* ds = p->ds.get();
    sim::NodeId id = p->id();
    ds->RegisterScanHandler(
        "def6.spy",
        [&scan_pieces, &violations, ds, id](const Span& r,
                                            const sim::PayloadPtr&) {
          // Condition 2: r inside the peer's current range.
          auto inside = ds->range().IntersectClosed(r);
          size_t covered = 0;
          for (const Span& piece : inside) {
            covered += piece.hi - piece.lo + 1;
          }
          if (covered != r.hi - r.lo + 1) ++violations;
          scan_pieces.push_back(Piece{id, r});
        });
  }

  workload::WorkloadOptions w;
  w.insert_rate_per_sec = 15;
  w.delete_rate_per_sec = 10;
  w.peer_add_rate_per_sec = 1;
  w.key_max = 1000000;
  workload::WorkloadDriver driver(&c, w, seed + 1);
  driver.Start();

  // Launch raw scanRange calls at the owner of each lb.
  for (int i = 0; i < 10; ++i) {
    c.RunFor(400 * sim::kMillisecond);
    const Key lb = rng.Uniform(0, 500000);
    const Key ub = lb + rng.Uniform(1000, 300000);
    workload::PeerStack* owner = nullptr;
    for (auto* m : c.LiveMembers()) {
      if (m->ds->range().Contains(lb)) owner = m;
    }
    if (owner == nullptr) continue;
    scan_pieces.clear();
    owner->ds->ScanRange(lb, ub, "def6.spy", nullptr,
                         [](const Status&) {});
    c.RunFor(2 * sim::kSecond);

    // Condition 3: pieces of this scan are pairwise disjoint.
    for (size_t x = 0; x < scan_pieces.size(); ++x) {
      for (size_t y = x + 1; y < scan_pieces.size(); ++y) {
        const bool disjoint = scan_pieces[x].r.hi < scan_pieces[y].r.lo ||
                              scan_pieces[y].r.hi < scan_pieces[x].r.lo;
        EXPECT_TRUE(disjoint)
            << "seed " << seed << ": overlapping scan pieces "
            << scan_pieces[x].r.ToString() << " and "
            << scan_pieces[y].r.ToString();
      }
    }
  }
  driver.Stop();
  EXPECT_EQ(violations, 0) << "handler invoked with r outside peer range";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanRangeCorrectnessTest,
                         ::testing::Values(91, 92, 93));

}  // namespace
}  // namespace pepper
