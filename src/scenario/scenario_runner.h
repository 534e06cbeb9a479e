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
  bool run_probes = true;
  // Stop at the first violating probe instead of finishing the scenario.
  bool fatal_probes = false;
  // Count Definition 7 availability loss as a violation.  True for every
  // scenario built on graceful reorganization (the Section 5 guarantee is
  // absolute there).  Benches driving *failure-mode* churn at extreme rates
  // may set it false: with CFS-style replication, availability under
  // fail-stop crashes is probabilistic (a peer can die before its successor
  // ever held its replica group), and the audit is then informational —
  // `lost_items` stays populated either way.
  bool availability_fatal = true;
  // Record per-phase wall-clock and fold `perf.wall_us` /
  // `perf.events_per_sec` counters into the phase metrics (they appear in
  // the text and CSV dumps).  OFF by default: wall-clock is
  // non-deterministic, and with timing off the CSV dump stays bit-identical
  // across same-seed runs — the replay contract the determinism tests pin.
  // The deterministic `sim.events` counter and the per-label timer fires
  // (`sim.fires.<label>`) are folded in unconditionally.
  bool timing = false;

  // Per-phase latency SLO probes, read from the phase's own wl.insert_time /
  // wl.query_time histograms (seconds; log-bucketed, so thresholds should
  // absorb the ~15% bucket-edge error).  A bound of 0 is unchecked.  With
  // `slo_fatal` a breach is a violation like any audit (fails the run /
  // stops it under fatal_probes); otherwise breaches are only counted in
  // ProbeOutcome::slo_violations.
  struct SloBounds {
    double insert_p50 = 0;
    double insert_p99 = 0;
    double insert_p999 = 0;
    double query_p50 = 0;
    double query_p99 = 0;
    double query_p999 = 0;
  };
  SloBounds slo;
  bool slo_probes = false;
  bool slo_fatal = false;

  // Minimum cluster-wide buffer-pool hit rate (hits / (hits + faults)),
  // summed over every peer's store at each probe round.  0 = unchecked.
  // Only meaningful with the paged store backend and a bounded pool; the
  // big_data scenario uses it to pin that the working set actually cycles
  // through a bounded pool without thrashing.
  double min_store_hit_rate = 0;

  // --- Windowed telemetry / deterministic health probes --------------------
  // Health probes (telemetry/health.h) run over the cluster's LoadMonitor
  // (armed automatically): at every phase boundary, and additionally every
  // `health_check_period` of simulated time *inside* a phase (0 = phase
  // boundaries only).  Each (kind, peer, window) finding is reported once;
  // with `health_fatal` a finding is a violation like any audit, otherwise
  // it is only counted in ProbeOutcome::health_violations.
  bool health_probes = false;
  bool health_fatal = false;
  telemetry::HealthOptions health;
  sim::SimTime health_check_period = 0;
  // Build the windowed timeline: RunReport::timeline_json plus the
  // per-phase top-k hot-arc lines of the text report.  Arms telemetry.
  bool timeline = false;
  size_t timeline_top_k = 5;
};

// What the invariant probes found after one phase (all audits are pure
// observation — no simulated messages).
struct ProbeOutcome {
  bool ok = true;
  bool ring_consistent = true;  // Definition 5 successor-list consistency
  bool ring_connected = true;   // Section 5.1 ring-survival property
  size_t lost_items = 0;        // Definition 7 availability violations
  size_t conservation_errors = 0;  // duplicates / out-of-range placements
  size_t query_violations = 0;  // Definition 4 audits failed mid-phase
  // Router forwarding dead-ends this probe round (a forward hop died and
  // the ring fallback had nowhere fresh to go; the lookup stalled until
  // the initiator retry).  Bounded: more than 2% of the round's attempts
  // is a violation.
  uint64_t router_dead_ends = 0;
  // Latency-SLO breaches this phase (counted even when slo_fatal is off).
  size_t slo_violations = 0;
  // Health-probe findings this phase, mid-phase checks included (counted
  // even when health_fatal is off).
  size_t health_violations = 0;
  // The keys behind `lost_items`, for forensics (flight-recorder dump).
  std::vector<Key> newly_lost;
  std::vector<std::string> violations;
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
// invariant probes.  Per-phase telemetry comes from a MetricsRegistry over
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
  ProbeOutcome RunProbes();
  // Appends latency-SLO breaches for one phase snapshot to `out`.
  void CheckSlo(const MetricsRegistry::PhaseSnapshot& snap, ProbeOutcome* out);
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
  // And for the router dead-end probe (counters are run-cumulative).
  uint64_t reported_dead_ends_ = 0;
  uint64_t reported_attempts_ = 0;
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
