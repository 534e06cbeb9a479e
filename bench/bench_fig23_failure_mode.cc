// Figure 23: insertSucc completion time in failure mode, as a function of
// the peer failure rate (failures per 100 seconds).  Section 6.3.4 setup:
// one peer inserted every 3 s, two items per second, successor list 4,
// stabilization period 4 s.
//
// Runs on the scenario subsystem: one Churn phase per point, executed by
// the ScenarioRunner with the invariant probes on — every measurement is
// also an oracle-audited run.

#include "bench_util.h"
#include "scenario/scenario_runner.h"

namespace pepper::bench {
namespace {

size_t g_probe_violations = 0;
size_t g_lost_items = 0;

double RunOnce(double failures_per_100s, uint64_t seed) {
  workload::WorkloadOptions w;
  w.insert_rate_per_sec = 2.0;
  w.delete_rate_per_sec = 0.0;
  w.peer_add_rate_per_sec = 1.0 / 3;
  w.min_live_members = 4;

  scenario::Scenario s =
      scenario::ScenarioBuilder("fig23_failure_mode")
          .BaseWorkload(w)
          .Churn(failures_per_100s / 100.0, 1.0 / 3, 500 * sim::kSecond)
          .Build();

  scenario::RunnerOptions o;
  o.cluster = workload::ClusterOptions::PaperDefaults();
  o.cluster.seed = 2300 + seed * 131 + static_cast<uint64_t>(failures_per_100s * 10);
  o.initial_free_peers = 10;
  o.probe_settle = 40 * sim::kSecond;
  // With pull-based revive the Definition 7 audit holds even at these
  // fail-stop rates (the replica lifecycle subsystem closed the
  // recent-successor gap): item loss is a violation like every other probe.

  scenario::ScenarioRunner runner(o);
  const scenario::RunReport report = runner.Run(s);
  g_probe_violations += report.total_violations;
  for (const auto& phase : report.phases) {
    g_lost_items += phase.probes.newly_lost.size();
    for (const auto& v : phase.probes.violations) {
      std::fprintf(stderr, "[fig23 rate=%.1f seed=%llu %s] %s\n",
                   failures_per_100s,
                   static_cast<unsigned long long>(seed), phase.name.c_str(),
                   v.c_str());
    }
  }
  const Histogram* h =
      report.phases.front().metrics.FindSeries("ring.insert_succ");
  return (h == nullptr || h->count() == 0) ? 0.0 : h->mean();
}

}  // namespace
}  // namespace pepper::bench

int main() {
  using namespace pepper::bench;
  PrintHeader(
      "Figure 23: insertSucc time (s) vs failure rate (failure mode)",
      {"failures_per_100s", "pepper_insertSucc"});
  for (double rate : {0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0}) {
    double total = 0;
    constexpr int kSeeds = 3;
    for (uint64_t s = 0; s < kSeeds; ++s) total += RunOnce(rate, s);
    PrintRow({rate, total / kSeeds});
  }
  std::printf(
      "\nPaper (Fig. 23): grows from ~0.2 s (stable) to ~1.2 s at one\n"
      "failure every 10 s — higher failure rates slow the backward\n"
      "propagation of join acknowledgements but never break it.\n"
      "(scenario probes: %zu violations, %zu item(s) lost — the\n"
      "availability audit is FATAL here: delta pushes + pull-based revive\n"
      "keep every inserted item live through the whole sweep)\n",
      g_probe_violations, g_lost_items);
  return g_probe_violations == 0 ? 0 : 1;
}
