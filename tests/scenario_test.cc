// Scenario-subsystem tests: the built-in catalogue, deterministic replay of
// a full run (same seed => identical per-phase metrics snapshot), and the
// probe/phase contract of the canned phase shapes.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "scenario/builtin_scenarios.h"
#include "scenario/scenario_runner.h"

namespace pepper::scenario {
namespace {

RunnerOptions QuickRunner(uint64_t seed) {
  RunnerOptions o;
  o.cluster = workload::ClusterOptions::FastDefaults();
  o.cluster.seed = seed;
  o.initial_free_peers = 8;
  o.seed_items = 30;
  o.probe_settle = 5 * sim::kSecond;
  return o;
}

BuiltinParams QuickParams() {
  BuiltinParams p;
  p.scale = 0.15;  // seconds-scale phases: CI-sized, still multi-phase
  return p;
}

TEST(BuiltinScenariosTest, CatalogueHasAtLeastSixUniqueRunnableEntries) {
  const auto& all = BuiltinScenarios();
  EXPECT_GE(all.size(), 6u);
  std::set<std::string> names;
  for (const auto& s : all) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    const auto built = MakeBuiltin(s.name, QuickParams());
    ASSERT_TRUE(built.has_value()) << s.name;
    EXPECT_EQ(built->name(), s.name);
    EXPECT_FALSE(built->phases().empty()) << s.name;
  }
  EXPECT_FALSE(MakeBuiltin("no_such_scenario", QuickParams()).has_value());
}

TEST(ScenarioRunnerTest, SameSeedReplaysIdenticalPhaseMetrics) {
  const auto scenario = MakeBuiltin("long_churn", QuickParams());
  ASSERT_TRUE(scenario.has_value());

  ScenarioRunner first(QuickRunner(606));
  const RunReport a = first.Run(*scenario);
  ScenarioRunner second(QuickRunner(606));
  const RunReport b = second.Run(*scenario);

  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(b.ok);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  // The CSV dump covers every per-phase histogram and counter; equality is
  // the determinism contract.
  EXPECT_EQ(a.Csv(), b.Csv());
  // A different seed must actually change the run (the comparison above is
  // not vacuous).
  ScenarioRunner third(QuickRunner(607));
  const RunReport c = third.Run(*scenario);
  EXPECT_NE(a.Csv(), c.Csv());
}

TEST(ScenarioRunnerTest, TimingRowsAreOptIn) {
  const auto scenario = MakeBuiltin("long_churn", QuickParams());
  ASSERT_TRUE(scenario.has_value());

  // Default: no wall-clock rows, so same-seed CSV identity holds (pinned
  // by SameSeedReplaysIdenticalPhaseMetrics above); the deterministic
  // sim.events counter is always present.
  ScenarioRunner plain(QuickRunner(606));
  const RunReport a = plain.Run(*scenario);
  EXPECT_NE(a.Csv().find("sim.events"), std::string::npos);
  EXPECT_EQ(a.Csv().find("perf.wall_us"), std::string::npos);
  for (const auto& phase : a.phases) {
    EXPECT_GT(phase.events, 0u) << phase.name;
    EXPECT_EQ(phase.wall_seconds, 0.0) << phase.name;
  }

  // --timing: per-phase wall-clock and events/sec rows appear in the CSV
  // dump and the text report.
  RunnerOptions timed = QuickRunner(606);
  timed.timing = true;
  ScenarioRunner with_timing(timed);
  const RunReport b = with_timing.Run(*scenario);
  EXPECT_NE(b.Csv().find("perf.wall_us"), std::string::npos);
  EXPECT_NE(b.Csv().find("perf.events_per_sec"), std::string::npos);
  EXPECT_NE(b.Csv().find("perf.windows"), std::string::npos);
  EXPECT_NE(b.Csv().find("perf.events_per_1k_windows"), std::string::npos);
  EXPECT_NE(b.Text().find("events/s]"), std::string::npos);
  // Timing rows must not perturb the simulated execution itself.
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].events, b.phases[i].events) << a.phases[i].name;
  }
}

TEST(ScenarioRunnerTest, ChurnScenarioPassesAllProbes) {
  const auto scenario = MakeBuiltin("long_churn", QuickParams());
  ASSERT_TRUE(scenario.has_value());
  ScenarioRunner runner(QuickRunner(4040));
  const RunReport report = runner.Run(*scenario);
  EXPECT_TRUE(report.ok) << report.Text();
  EXPECT_EQ(report.total_violations, 0u);
  ASSERT_EQ(report.phases.size(), scenario->phases().size());
  for (const auto& phase : report.phases) {
    EXPECT_TRUE(phase.probes.violations.empty()) << phase.name;
  }
  // The churn phase actually churned.
  const auto& churn = report.phases[1];
  EXPECT_GT(churn.metrics.Counter("wl.failures_injected"), 0u);
  EXPECT_GT(churn.metrics.Counter("net.messages_sent"), 0u);
}

TEST(ScenarioRunnerTest, MassLeaveDepartsGracefullyAndConservesItems) {
  const auto scenario = MakeBuiltin("mass_leave", QuickParams());
  ASSERT_TRUE(scenario.has_value());
  ScenarioRunner runner(QuickRunner(88));
  const RunReport report = runner.Run(*scenario);
  EXPECT_TRUE(report.ok) << report.Text();
  workload::Cluster& cluster = *runner.cluster();
  EXPECT_GT(cluster.metrics().counters().Get("cluster.departures_requested"),
            0u);
  // Graceful departure = the Section 5 merge path, not a crash.
  EXPECT_GT(cluster.metrics().counters().Get("ds.merges"), 0u);
  EXPECT_EQ(cluster.AuditAvailability().lost.size(), 0u);
}

TEST(ScenarioRunnerTest, FlashCrowdQueriesAreAuditedClean) {
  const auto scenario = MakeBuiltin("flash_crowd", QuickParams());
  ASSERT_TRUE(scenario.has_value());
  ScenarioRunner runner(QuickRunner(55));
  const RunReport report = runner.Run(*scenario);
  EXPECT_TRUE(report.ok) << report.Text();
  uint64_t queries = 0;
  for (const auto& phase : report.phases) {
    queries += phase.metrics.Counter("wl.queries_issued");
    EXPECT_TRUE(phase.probes.violations.empty()) << phase.name;
  }
  EXPECT_GT(queries, 0u);
}

TEST(ScenarioRunnerTest, FreePeerDroughtStallsSplitsUntilItLifts) {
  BuiltinParams params;
  params.scale = 0.3;  // long enough for inserts to force an overflow
  const auto scenario = MakeBuiltin("free_peer_drought", params);
  ASSERT_TRUE(scenario.has_value());
  ScenarioRunner runner(QuickRunner(9001));
  const RunReport report = runner.Run(*scenario);
  EXPECT_TRUE(report.ok) << report.Text();
  // During the drought the overflow check found no free peer at least once,
  // and the pool is usable again afterwards (suspension is phase-scoped).
  const auto* drought = &report.phases[1];
  EXPECT_GT(drought->metrics.Counter("ds.split_no_free_peer"), 0u)
      << report.Text();
  EXPECT_FALSE(runner.cluster()->pool().suspended());
}

// True when some finding of `phase` starts with `prefix`.
bool HasFinding(const PhaseOutcome& phase, const std::string& prefix) {
  for (const std::string& v : phase.probes.violations) {
    if (v.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

// A bound the scenario declares is enforced with no runner option set: an
// unreachable insert-latency SLO fails the first probed phase, and under
// fatal_probes the run stops there.
TEST(ScenarioProbeTest, DeclaredSloBreachFailsTheRun) {
  workload::WorkloadOptions load;
  load.insert_rate_per_sec = 4.0;
  SloBounds slo;
  slo.insert_p50 = 1e-9;  // below any simulated insert latency
  const Scenario scenario = ScenarioBuilder("slo_breach")
                                .Slo(slo)
                                .BaseWorkload(load)
                                .Steady(5 * sim::kSecond)
                                .Quiesce(2 * sim::kSecond)
                                .Build();
  RunnerOptions o = QuickRunner(31);
  o.fatal_probes = true;
  ScenarioRunner runner(o);
  const RunReport report = runner.Run(scenario);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.phases.size(), 1u) << report.Text();
  EXPECT_TRUE(HasFinding(report.phases[0], "slo: insert p50 "))
      << report.Text();
}

// The declared buffer-pool floor: a paged store whose 2-frame pool cannot
// hold a peer's tree must fault, so a required hit rate of 1.0 fails with a
// `store:` finding and the fatal run stops after that phase.
TEST(ScenarioProbeTest, DeclaredStoreHitRateFloorFailsTheRun) {
  const Scenario scenario = ScenarioBuilder("store_floor")
                                .MinStoreHitRate(1.0)
                                .Steady(2 * sim::kSecond)
                                .Quiesce(2 * sim::kSecond)
                                .Build();
  RunnerOptions o = QuickRunner(32);
  o.cluster.ds.store.backend = store::StoreBackend::kPaged;
  o.cluster.ds.store.buffer_pool_pages = 2;
  o.cluster.ds.storage_factor = 100;  // several pages per peer
  o.seed_items = 600;
  o.fatal_probes = true;
  ScenarioRunner runner(o);
  const RunReport report = runner.Run(scenario);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.phases.size(), 1u) << report.Text();
  EXPECT_TRUE(HasFinding(report.phases[0], "store: buffer hit rate "))
      << report.Text();
}

// A lookup that runs out of hops was circling the ring, which routing
// never does, so any exhaustion in a round is a `router:` finding.
TEST(ScenarioProbeTest, HopBudgetExhaustionFailsTheRun) {
  Phase poke;
  poke.name = "poke";
  poke.duration = 2 * sim::kSecond;
  poke.on_enter = [](workload::Cluster& cluster, sim::Rng&) {
    cluster.metrics().counters().Inc("router.hop_budget_exhausted");
  };
  const Scenario scenario = ScenarioBuilder("exhausted")
                                .AddPhase(poke)
                                .Quiesce(2 * sim::kSecond)
                                .Build();
  ScenarioRunner runner(QuickRunner(33));
  const RunReport report = runner.Run(scenario);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.phases.size(), 2u) << report.Text();
  EXPECT_TRUE(HasFinding(report.phases[0], "router: 1 lookup(s) exhausted"))
      << report.Text();
  EXPECT_TRUE(report.phases[1].probes.ok()) << report.Text();
}

// slow_peer's victim is evicted from successor lists while it still owns
// its arc, so forwarders skip it.  Its lookups used to go round the ring
// until the hop budget ran out (172 times at this seed); now they walk
// back to the victim, and the run is clean.
TEST(ScenarioProbeTest, SlowPeerLookupsDoNotCircle) {
  BuiltinParams params;
  params.scale = 0.5;
  const auto scenario = MakeBuiltin("slow_peer", params);
  ASSERT_TRUE(scenario.has_value());
  RunnerOptions o;
  o.cluster.seed = 7;
  o.initial_free_peers = 10;
  o.seed_items = 40;
  ScenarioRunner runner(o);
  const RunReport report = runner.Run(*scenario);
  EXPECT_TRUE(report.ok) << report.Text();
  EXPECT_EQ(runner.cluster()->metrics().counters().Get(
                "router.hop_budget_exhausted"),
            0u);
  EXPECT_GT(runner.cluster()->metrics().counters().Get("router.handed_back"),
            0u);
}

}  // namespace
}  // namespace pepper::scenario
