#ifndef PEPPER_SCENARIO_SCENARIO_RUNNER_H_
#define PEPPER_SCENARIO_SCENARIO_RUNNER_H_

#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "scenario/scenario.h"
#include "telemetry/health.h"
#include "telemetry/timeline.h"
#include "workload/cluster.h"
#include "workload/workload.h"

namespace pepper::scenario {

struct RunnerOptions {
  // The cluster configuration (including the run seed) every execution
  // starts from; Run() builds a fresh cluster, so the same options + the
  // same scenario replay bit-identically.
  workload::ClusterOptions cluster = workload::ClusterOptions::FastDefaults();
  Key bootstrap_val = 1000000;
  size_t initial_free_peers = 8;
  // Items inserted synchronously before the first phase (grows the ring via
  // splits, exactly like the figure benches' GrowTo).
  size_t seed_items = 0;
  sim::SimTime warmup = sim::kSecond;
  // Drained (driver stopped) before each probe round so transient
  // in-transit items don't read as violations; excluded from phase metrics.
  sim::SimTime probe_settle = 10 * sim::kSecond;
  // Run the end-of-phase audits and the scenario's declared bounds (see
  // ScenarioRunner::RunProbes); armed health probes run either way.
  bool run_probes = true;
  // Stop after the first phase with a finding instead of finishing the
  // scenario.  Either way any finding fails the run.
  bool fatal_probes = false;
  // Record per-phase wall-clock and fold `perf.wall_us` /
  // `perf.events_per_sec` counters, plus the engine's `perf.windows` and
  // `perf.events_per_1k_windows`, into the phase metrics (they appear in
  // the text and CSV dumps).  OFF by default: wall-clock is
  // non-deterministic, and with timing off the CSV dump stays bit-identical
  // across same-seed runs — the replay contract the determinism tests pin.
  // The deterministic `sim.events` counter and the per-label timer fires
  // (`sim.fires.<label>`) are folded in unconditionally.
  bool timing = false;
  // Arm the deterministic health probes (telemetry/health.h) over the
  // cluster's LoadMonitor (telemetry is armed automatically): they run at
  // every telemetry-window boundary inside a phase and in the probe round.
  bool health_probes = false;
  // Build the windowed timeline: RunReport::timeline_json plus the
  // per-phase top-k hot-arc lines of the text report.  Arms telemetry.
  bool timeline = false;
};

// What the probes found for one phase (every probe is pure observation —
// no simulated messages).  Each finding is one `<probe>: ...` line; any
// finding fails the run.
struct ProbeOutcome {
  std::vector<std::string> violations;
  // The keys behind this phase's `oracle:` availability finding (Definition
  // 7 loss newly seen this round), for the flight-recorder dump.
  std::vector<Key> newly_lost;

  bool ok() const { return violations.empty(); }
};

struct PhaseOutcome {
  std::string name;  // "<index>_<phase name>", unique within the run
  ProbeOutcome probes;
  MetricsRegistry::PhaseSnapshot metrics;  // per-phase deltas, plain values
  uint64_t events = 0;         // simulator events executed during the phase
  double wall_seconds = 0.0;   // host wall-clock; only set with timing on
  // Per-window top-k hot-arc lines covering this phase (timeline mode).
  std::string top_arcs;
};

struct RunReport {
  std::string scenario;
  uint64_t seed = 0;
  bool ok = true;
  size_t total_violations = 0;
  std::vector<PhaseOutcome> phases;
  // Flight-recorder forensics, captured at the first failing probe round
  // when tracing is enabled: the recent record window plus the full causal
  // history of the first offending item (empty otherwise).
  std::string trace_dump;
  // The windowed timeline JSON (timeline/telemetry.h schema); only set when
  // RunnerOptions::timeline is on.
  std::string timeline_json;

  std::string Text() const;
  std::string Csv() const;
};

// Executes a Scenario against a freshly built Cluster: per phase it re-arms
// one WorkloadDriver with the phase's workload, runs simulated time, then
// (between phases) stops the load, lets reorganizations drain, and runs the
// probe round.  Per-phase telemetry comes from a MetricsRegistry over
// the cluster's MetricsHub; network message counts are folded in as the
// `net.messages_sent` counter so scenarios expose per-phase message series.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(RunnerOptions options);
  ~ScenarioRunner();

  RunReport Run(const Scenario& scenario);

  // The cluster of the most recent (or in-progress) Run; null before the
  // first run.  Exposed for tests and for benches that read extra state.
  workload::Cluster* cluster() { return cluster_.get(); }

 private:
  // Runs simulated time to the end of the phase; with health armed, checks
  // health at every telemetry-window boundary on the way.
  void RunPhase(sim::SimTime duration, ProbeOutcome* out);
  // The probe round after a phase: one block per probe, each appending its
  // findings to `outcome->probes`.
  void RunProbes(const Scenario& scenario, const Phase& phase,
                 PhaseOutcome* outcome);
  // Evaluates the deterministic health probes against the cluster's load
  // monitor and appends unreported findings to `out`.
  void CheckHealth(ProbeOutcome* out);

  RunnerOptions options_;
  std::unique_ptr<workload::Cluster> cluster_;
  // Member (not a Run() local): slow Poisson streams can still have a
  // pending arrival timer queued in the simulator when Run() returns, and
  // cluster() hands the simulator out — the driver must stay alive as long
  // as the cluster so a late timer finds a stopped driver, not freed
  // memory.  Destroyed before the cluster it points at on the next Run
  // (queued closures are dropped, never executed, during teardown).
  std::unique_ptr<workload::WorkloadDriver> driver_;
  // Keys already reported lost in an earlier probe round of this run; the
  // Definition 7 audit is cumulative, the per-phase report is not.
  std::set<Key> reported_lost_;
  // Same cumulative->per-phase bookkeeping for Definition 4 query audits.
  size_t reported_query_violations_ = 0;
  // And for the router probes (counters are run-cumulative).
  uint64_t reported_dead_ends_ = 0;
  uint64_t reported_attempts_ = 0;
  uint64_t reported_exhausted_ = 0;
  // Health findings already reported this run, keyed by
  // (kind, peer, streak-ending window): a streak that persists re-fires at
  // each newly closed window, but each window is reported exactly once.
  std::set<std::tuple<int, sim::NodeId, uint64_t>> reported_health_;
  // Every reported finding in report order (the timeline's health rows).
  std::vector<telemetry::HealthViolation> run_health_;
  std::vector<telemetry::PhaseSpan> phase_spans_;
};

}  // namespace pepper::scenario

#endif  // PEPPER_SCENARIO_SCENARIO_RUNNER_H_
