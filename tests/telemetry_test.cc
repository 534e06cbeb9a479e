// Tests for src/telemetry/: the windowed TimeSeries substrate, per-arc
// attribution conservation across split/merge/takeover, timeline
// byte-identity across shard counts, and the deterministic health probes
// (a slow-but-alive peer is flagged with the right node id; a clean churn
// run never fires).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "scenario/builtin_scenarios.h"
#include "scenario/scenario_runner.h"
#include "telemetry/health.h"
#include "telemetry/load_monitor.h"
#include "telemetry/time_series.h"
#include "telemetry/timeline.h"
#include "workload/cluster.h"
#include "workload/workload.h"

namespace pepper::telemetry {
namespace {

// --- TimeSeries unit coverage ------------------------------------------------

TEST(TimeSeriesTest, WindowBoundariesAreDeterministicSimTimeMultiples) {
  TimeSeries ts(/*window_length=*/sim::kSecond, /*capacity=*/4);
  EXPECT_EQ(ts.WindowOf(0), 0u);
  EXPECT_EQ(ts.WindowOf(sim::kSecond - 1), 0u);
  EXPECT_EQ(ts.WindowOf(sim::kSecond), 1u);
  EXPECT_EQ(ts.WindowStart(3), 3 * sim::kSecond);
  EXPECT_EQ(ts.OldestWindow(), TimeSeries::kNoWindow);
  EXPECT_EQ(ts.NewestWindow(), TimeSeries::kNoWindow);
}

TEST(TimeSeriesTest, RingRetainsNewestWindowsAndCountsRecycling) {
  TimeSeries ts(sim::kSecond, /*capacity=*/4);
  ts.OnRegister(0);
  for (uint64_t w = 0; w < 10; ++w) {
    ts.AddLookup(0, w * sim::kSecond);
    ts.AddMutation(0, w * sim::kSecond + 1);
  }
  EXPECT_EQ(ts.NewestWindow(), 9u);
  EXPECT_EQ(ts.OldestWindow(), 6u);  // capacity 4: windows 6..9 retained
  EXPECT_EQ(ts.slots_recycled(), 6u);
  for (uint64_t w = 6; w < 10; ++w) {
    const WindowCounters totals = ts.CollectTotals(w);
    EXPECT_EQ(totals.lookups, 1u) << "window " << w;
    EXPECT_EQ(totals.mutations, 1u) << "window " << w;
    EXPECT_EQ(totals.arc_load(), 2u) << "window " << w;
  }
  EXPECT_FALSE(ts.CollectTotals(5).any());  // overwritten, not half-read
}

TEST(TimeSeriesTest, TimeoutsAreChargedToTheCalleePerWindow) {
  TimeSeries ts(sim::kSecond, /*capacity=*/8);
  ts.OnRegister(1);
  ts.OnRegister(2);
  for (int i = 0; i < 5; ++i) ts.AddTimeout(2, sim::kSecond + i);
  EXPECT_EQ(ts.TimeoutsFor(2, 1), 5u);
  EXPECT_EQ(ts.TimeoutsFor(1, 1), 0u);
  EXPECT_EQ(ts.TimeoutsFor(2, 0), 0u);
  EXPECT_EQ(ts.CollectTotals(1).rpc_timeouts, 5u);
}

// --- Health probe unit coverage ----------------------------------------------

TEST(HealthTest, TimeoutAnomalyNeedsTheFullStreakAndBothThresholds) {
  LoadMonitor::Options mo;
  mo.window = sim::kSecond;
  mo.ring_capacity = 32;
  LoadMonitor monitor(mo);
  for (NodeId n = 0; n < 4; ++n) monitor.OnRegister(n);
  const std::vector<NodeId> live = {0, 1, 2, 3};
  HealthOptions ho;
  ho.consecutive_windows = 3;
  ho.timeout_factor = 4;
  ho.timeout_min = 3;
  ho.stale_factor = 0;  // timeout probe only

  // Two anomalous windows (2, 3): streak too short, no finding at window 4.
  for (uint64_t w = 2; w <= 3; ++w) {
    for (int i = 0; i < 6; ++i) {
      monitor.OnRpcTimeout(/*caller=*/0, /*callee=*/1, w * sim::kSecond + i);
    }
  }
  EXPECT_TRUE(
      EvaluateHealth(monitor, ho, live, 4 * sim::kSecond).empty());

  // Third consecutive window completes the streak.
  for (int i = 0; i < 6; ++i) {
    monitor.OnRpcTimeout(0, 1, 4 * sim::kSecond + i);
  }
  const auto found = EvaluateHealth(monitor, ho, live, 5 * sim::kSecond);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].kind, HealthViolation::Kind::kTimeoutAnomaly);
  EXPECT_EQ(found[0].node, 1u);
  EXPECT_EQ(found[0].window, 4u);  // the streak-ending closed window
  EXPECT_EQ(found[0].value, 6u);

  // Below the absolute floor never fires, even with a zero median: node 2
  // gets timeout_min - 1 timeouts over the same streak.
  for (uint64_t w = 5; w <= 7; ++w) {
    for (int i = 0; i < 2; ++i) {
      monitor.OnRpcTimeout(0, 2, w * sim::kSecond + i);
    }
  }
  for (const auto& v : EvaluateHealth(monitor, ho, live, 8 * sim::kSecond)) {
    EXPECT_NE(v.node, 2u) << v.ToString();
  }
}

TEST(HealthTest, RefreshStallComparesAgainstTheAdaptiveCap) {
  LoadMonitor::Options mo;
  mo.window = sim::kSecond;
  LoadMonitor monitor(mo);
  monitor.OnRegister(0);
  monitor.OnRegister(1);
  monitor.OnRefreshPass(0, 10 * sim::kSecond);
  monitor.OnRefreshPass(1, 2 * sim::kSecond);
  HealthOptions ho;
  ho.consecutive_windows = 0;  // stall probe only
  ho.stale_factor = 4;
  ho.max_refresh_period = sim::kSecond;
  const auto found =
      EvaluateHealth(monitor, ho, {0, 1}, 11 * sim::kSecond);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].kind, HealthViolation::Kind::kRefreshStall);
  EXPECT_EQ(found[0].node, 1u);
  EXPECT_EQ(found[0].value, 9 * sim::kSecond);
  EXPECT_EQ(found[0].reference, 4 * sim::kSecond);
}

}  // namespace
}  // namespace pepper::telemetry

namespace pepper::workload {
namespace {

using pepper::telemetry::ArcEvent;
using pepper::telemetry::ReorgKind;
using pepper::telemetry::WindowCounters;

// A churny monitored run: failures race joins while inserts, deletes and
// audited range queries keep landing — splits, merges and takeovers all
// occur, so the attribution rules are exercised across every reorg kind.
ClusterOptions MonitoredOptions(uint64_t seed, uint32_t shards) {
  ClusterOptions o = ClusterOptions::FastDefaults();
  o.seed = seed;
  o.shards = shards;
  o.telemetry = true;
  o.telemetry_window = 2 * sim::kSecond;
  o.telemetry_ring_capacity = 256;  // retain every window of the run
  return o;
}

void RunChurn(Cluster& c) {
  c.Bootstrap(1000000);
  for (int i = 0; i < 8; ++i) c.AddFreePeer();
  c.RunFor(sim::kSecond);
  WorkloadOptions w;
  w.insert_rate_per_sec = 120.0;
  w.delete_rate_per_sec = 25.0;
  w.query_rate_per_sec = 10.0;
  w.fail_rate_per_sec = 0.5;
  w.peer_add_rate_per_sec = 0.5;
  w.min_live_members = 3;
  WorkloadDriver driver(&c, w, /*seed=*/0x5151);
  driver.Start();
  c.RunFor(16 * sim::kSecond);
  driver.Stop();
  c.RunFor(3 * sim::kSecond);
}

// The conservation contract of LoadMonitor: every op lands exactly once,
// on the node that executed it, in the window of its execution instant —
// so per-arc rows sum to the window totals, and the per-window reorg
// counts sum to the engines' own run-cumulative counters, regardless of
// how many times ownership changed hands.
TEST(LoadMonitorClusterTest, AttributionIsConservedAcrossReorgs) {
  ClusterOptions o = MonitoredOptions(/*seed=*/4242, /*shards=*/0);
  Cluster c(o);
  RunChurn(c);
  ASSERT_NE(c.monitor(), nullptr);
  const auto& series = c.monitor()->series();
  ASSERT_EQ(series.slots_recycled(), 0u) << "ring too small for the run";

  const uint64_t oldest = series.OldestWindow();
  const uint64_t newest = series.NewestWindow();
  ASSERT_NE(oldest, telemetry::TimeSeries::kNoWindow);
  ASSERT_GT(newest, oldest + 3) << "run too short to be interesting";

  WindowCounters run_totals;
  uint64_t splits = 0, merges = 0, takeovers = 0, redistributes = 0;
  for (uint64_t w = oldest; w <= newest; ++w) {
    const WindowCounters totals = series.CollectTotals(w);
    // Per-arc rows partition the window: summing them reproduces the
    // totals field-for-field (the callee-charged timeouts included).
    WindowCounters sum;
    for (const auto& [node, counters] : series.CollectWindow(w)) {
      sum.Add(counters);
      EXPECT_EQ(counters.rpc_timeouts, series.TimeoutsFor(node, w))
          << "node " << node << " window " << w;
    }
    EXPECT_EQ(sum.lookups, totals.lookups) << "window " << w;
    EXPECT_EQ(sum.scans, totals.scans) << "window " << w;
    EXPECT_EQ(sum.mutations, totals.mutations) << "window " << w;
    EXPECT_EQ(sum.msgs_in, totals.msgs_in) << "window " << w;
    EXPECT_EQ(sum.rpcs_in, totals.rpcs_in) << "window " << w;
    EXPECT_EQ(sum.rpc_timeouts, totals.rpc_timeouts) << "window " << w;
    run_totals.Add(totals);
    splits += c.monitor()->ReorgsInWindow(w, ReorgKind::kSplit);
    merges += c.monitor()->ReorgsInWindow(w, ReorgKind::kMerge);
    takeovers += c.monitor()->ReorgsInWindow(w, ReorgKind::kTakeover);
    redistributes +=
        c.monitor()->ReorgsInWindow(w, ReorgKind::kRedistribute);
  }

  // The run actually reorganized, and the windowed reorg series sums to
  // the engines' own counters — one event per completed protocol decision.
  const auto& counters = c.metrics().counters();
  EXPECT_EQ(splits, counters.Get("ds.splits"));
  EXPECT_EQ(merges, counters.Get("ds.merges"));
  EXPECT_EQ(redistributes, counters.Get("ds.redistributes"));
  EXPECT_GT(splits, 0u);
  EXPECT_GT(takeovers, 0u) << "no failure takeover in a churn run";
  EXPECT_GT(run_totals.lookups, 0u);
  EXPECT_GT(run_totals.mutations, 0u);
  EXPECT_GT(run_totals.scans, 0u);

  // The ownership log is totally ordered by (time, node, seq) and every
  // record names a registered node.
  const std::vector<ArcEvent> arcs = c.monitor()->MergedArcEvents();
  ASSERT_GT(arcs.size(), 2u);
  for (size_t i = 1; i < arcs.size(); ++i) {
    const auto key = [](const ArcEvent& e) {
      return std::make_tuple(e.time, e.node, e.seq);
    };
    EXPECT_LT(key(arcs[i - 1]), key(arcs[i])) << "index " << i;
  }
}

// The windowed view is a pure function of simulated instants and integer
// sums, so the same seed must produce identical per-window data at every
// shard count — the timeline's byte-identity contract at the source.
TEST(LoadMonitorClusterTest, WindowedSeriesIsShardInvariant) {
  for (uint64_t seed : {4242, 77, 9001}) {
    Cluster one(MonitoredOptions(seed, /*shards=*/1));
    RunChurn(one);
    const auto& base = one.monitor()->series();
    for (uint32_t shards : {2u, 4u}) {
      Cluster sharded(MonitoredOptions(seed, shards));
      RunChurn(sharded);
      const auto& got = sharded.monitor()->series();
      ASSERT_EQ(got.OldestWindow(), base.OldestWindow())
          << "seed " << seed << " shards " << shards;
      ASSERT_EQ(got.NewestWindow(), base.NewestWindow())
          << "seed " << seed << " shards " << shards;
      for (uint64_t w = base.OldestWindow(); w <= base.NewestWindow(); ++w) {
        const auto expect = base.CollectWindow(w);
        const auto actual = got.CollectWindow(w);
        ASSERT_EQ(actual.size(), expect.size())
            << "seed " << seed << " shards " << shards << " window " << w;
        for (size_t i = 0; i < expect.size(); ++i) {
          EXPECT_EQ(actual[i].first, expect[i].first) << "window " << w;
          const WindowCounters& a = actual[i].second;
          const WindowCounters& b = expect[i].second;
          EXPECT_EQ(a.lookups, b.lookups) << "window " << w;
          EXPECT_EQ(a.scans, b.scans) << "window " << w;
          EXPECT_EQ(a.mutations, b.mutations) << "window " << w;
          EXPECT_EQ(a.msgs_in, b.msgs_in) << "window " << w;
          EXPECT_EQ(a.rpcs_in, b.rpcs_in) << "window " << w;
          EXPECT_EQ(a.rpc_timeouts, b.rpc_timeouts) << "window " << w;
        }
      }
    }
  }
}

}  // namespace
}  // namespace pepper::workload

namespace pepper::scenario {
namespace {

RunnerOptions TimelineRunner(uint64_t seed, uint32_t shards) {
  RunnerOptions o;
  o.cluster = workload::ClusterOptions::FastDefaults();
  o.cluster.seed = seed;
  o.cluster.shards = shards;
  o.cluster.telemetry_window = 2 * sim::kSecond;
  o.initial_free_peers = 8;
  o.seed_items = 30;
  o.probe_settle = 5 * sim::kSecond;
  o.timeline = true;
  return o;
}

BuiltinParams QuickParams(double scale = 0.15) {
  BuiltinParams p;
  p.scale = scale;
  return p;
}

// The exported timeline artifact — JSON and the text report's hot-arc
// lines — must be byte-identical across shard counts: same seed, same
// bytes, whether the run was partitioned over 1, 2 or 4 cores.
TEST(TimelineScenarioTest, TimelineJsonIsByteIdenticalAcrossShards) {
  const auto scenario = MakeBuiltin("hotspot_shift", QuickParams());
  ASSERT_TRUE(scenario.has_value());
  for (uint64_t seed : {606, 607, 913}) {
    ScenarioRunner one(TimelineRunner(seed, /*shards=*/1));
    const RunReport base = one.Run(*scenario);
    ASSERT_FALSE(base.timeline_json.empty());
    EXPECT_NE(base.timeline_json.find("\"windows\""), std::string::npos);
    for (uint32_t shards : {2u, 4u}) {
      ScenarioRunner runner(TimelineRunner(seed, shards));
      const RunReport report = runner.Run(*scenario);
      EXPECT_EQ(report.timeline_json, base.timeline_json)
          << "seed " << seed << " shards " << shards;
      ASSERT_EQ(report.phases.size(), base.phases.size());
      for (size_t i = 0; i < base.phases.size(); ++i) {
        EXPECT_EQ(report.phases[i].top_arcs, base.phases[i].top_arcs)
            << "seed " << seed << " shards " << shards << " phase " << i;
      }
    }
  }
}

// hotspot_shift is the acceptance scenario: the hot arc must actually show
// up in the per-phase top-k lines, and the phase spans must annotate the
// JSON in scenario order.
TEST(TimelineScenarioTest, HotspotPhasesRenderTopArcs) {
  const auto scenario = MakeBuiltin("hotspot_shift", QuickParams(0.3));
  ASSERT_TRUE(scenario.has_value());
  ScenarioRunner runner(TimelineRunner(31337, /*shards=*/0));
  const RunReport report = runner.Run(*scenario);
  EXPECT_TRUE(report.ok) << report.Text();
  bool any_top_arcs = false;
  for (const auto& phase : report.phases) {
    if (!phase.top_arcs.empty()) any_top_arcs = true;
  }
  EXPECT_TRUE(any_top_arcs) << report.Text();
  EXPECT_NE(report.timeline_json.find("\"phases\""), std::string::npos);
  EXPECT_NE(report.timeline_json.find("hotspot"), std::string::npos);
  // The text report carries the hot-arc lines ("wN [t=..] load=.. top: ..").
  EXPECT_NE(report.Text().find(" top:"), std::string::npos);
}

// The gray-failure acceptance check: slow_peer's victim — slow but alive —
// must be flagged by the timeout-anomaly probe, by node id, during the
// degrade phase; mid-phase checks make the detection latency a couple of
// windows, not a phase length.
TEST(HealthScenarioTest, SlowPeerIsFlaggedWithTheRightNodeId) {
  const auto scenario = MakeBuiltin("slow_peer", QuickParams(0.5));
  ASSERT_TRUE(scenario.has_value());
  RunnerOptions o;
  o.cluster = workload::ClusterOptions::FastDefaults();
  o.cluster.seed = 1212;
  o.cluster.telemetry_window = 2 * sim::kSecond;
  o.initial_free_peers = 8;
  o.seed_items = 30;
  o.probe_settle = 5 * sim::kSecond;
  o.health_probes = true;
  ScenarioRunner runner(o);
  const RunReport report = runner.Run(*scenario);

  const uint64_t victim =
      runner.cluster()->metrics().counters().Get("wl.slow_peer_node");
  bool victim_named = false;
  for (const auto& phase : report.phases) {
    for (const std::string& v : phase.probes.violations) {
      if (v.find("health: peer " + std::to_string(victim) +
                 " timeout anomaly") != std::string::npos) {
        victim_named = true;
      }
    }
  }
  EXPECT_FALSE(report.ok) << report.Text();
  EXPECT_TRUE(victim_named) << "victim " << victim << "\n" << report.Text();
  // The injection is phase-scoped: after recovery the final quiesce phase
  // must be clean (the streak cannot outlive the delay by more than the
  // consecutive-window span, which the recover phase absorbs).
  EXPECT_TRUE(report.phases.back().probes.violations.empty())
      << report.Text();
}

// Armed probes on a clean run are silent: long_churn at quick scale with
// health armed must pass every phase with zero findings — crashed peers
// are excluded by the live set, so fail-stop churn never reads as gray
// failure.
TEST(HealthScenarioTest, CleanChurnNeverFires) {
  const auto scenario = MakeBuiltin("long_churn", QuickParams());
  ASSERT_TRUE(scenario.has_value());
  for (uint64_t seed : {4040, 4041}) {
    RunnerOptions o;
    o.cluster = workload::ClusterOptions::FastDefaults();
    o.cluster.seed = seed;
    o.initial_free_peers = 8;
    o.seed_items = 30;
    o.probe_settle = 5 * sim::kSecond;
    o.health_probes = true;
    ScenarioRunner runner(o);
    const RunReport report = runner.Run(*scenario);
    EXPECT_TRUE(report.ok) << "seed " << seed << "\n" << report.Text();
    for (const auto& phase : report.phases) {
      EXPECT_TRUE(phase.probes.violations.empty())
          << "seed " << seed << " " << phase.name;
    }
  }
}

}  // namespace
}  // namespace pepper::scenario
