#ifndef PEPPER_SCENARIO_SCENARIO_H_
#define PEPPER_SCENARIO_SCENARIO_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "workload/workload.h"

namespace pepper::scenario {

// One timed phase of a stress scenario.  A phase is declarative: the
// workload knobs the driver is re-armed with, how long simulated time runs,
// and an optional entry action for events that are a point-in-time decision
// rather than a rate (mass departures, forced merges).  The ScenarioRunner
// owns execution; phases never touch the simulator directly.
struct Phase {
  std::string name;
  sim::SimTime duration = 0;
  workload::WorkloadOptions workload;
  // Runs at phase entry, after metrics collection for the phase opened and
  // before the driver re-arms.  May use the cluster's synchronous drivers
  // (which advance simulated time).  The Rng is the scenario's own
  // deterministic stream — phases must not reach for any other randomness.
  std::function<void(workload::Cluster&, sim::Rng&)> on_enter;
  // FreePeerDrought: the free-peer directory answers "none" for the whole
  // phase; queued peers reappear when the drought lifts.
  bool suspend_free_peers = false;
  // Skip the end-of-phase probe round (ring, oracle, conservation, router,
  // store, SLO) for this phase only.  For phases that deliberately hold the
  // cluster in a degraded state — e.g. slow_peer's injection window, where
  // the victim's stale view is the condition under study, not a bug — the
  // audits would report the injection itself.  Health probes still run:
  // detecting the degradation is the point.
  bool skip_probes = false;
};

// Per-phase latency bounds in seconds, read from each probed phase's own
// wl.insert_time / wl.query_time histograms (log-bucketed, so a bound
// should absorb the ~15% bucket-edge error).  0 leaves a quantile
// unchecked.
struct SloBounds {
  double insert_p50 = 0;
  double insert_p99 = 0;
  double insert_p999 = 0;
  double query_p50 = 0;
  double query_p99 = 0;
  double query_p999 = 0;
};

// A named sequence of phases plus the bounds its probes enforce.  Immutable
// once built; runs are owned by ScenarioRunner so one Scenario value can be
// executed many times (and at many seeds) without rebuilding.
class Scenario {
 public:
  const std::string& name() const { return name_; }
  const std::string& description() const { return description_; }
  const std::vector<Phase>& phases() const { return phases_; }
  const SloBounds& slo() const { return slo_; }
  // Minimum cluster-wide buffer-pool hit rate, hits / (hits + faults) over
  // every peer's store; 0 = unchecked.
  double min_store_hit_rate() const { return min_store_hit_rate_; }

 private:
  friend class ScenarioBuilder;
  std::string name_;
  std::string description_;
  std::vector<Phase> phases_;
  SloBounds slo_;
  double min_store_hit_rate_ = 0;
};

// Composes scenarios from canned phase shapes (the vocabulary the paper's
// Section 6 experiments and the ROADMAP's stress ideas are written in) or
// free-form phases via AddPhase.  Canned phases start from the builder's
// base workload, so e.g. a Churn phase keeps the base insert load running
// while it layers failures and joins on top.
class ScenarioBuilder {
 public:
  explicit ScenarioBuilder(std::string name) { scenario_.name_ = std::move(name); }

  ScenarioBuilder& Describe(std::string description) {
    scenario_.description_ = std::move(description);
    return *this;
  }

  // Workload knobs every subsequent canned phase starts from.
  ScenarioBuilder& BaseWorkload(const workload::WorkloadOptions& base) {
    base_ = base;
    return *this;
  }

  ScenarioBuilder& AddPhase(Phase phase) {
    scenario_.phases_.push_back(std::move(phase));
    return *this;
  }

  // Bounds the probe round enforces after every probed phase; a breach is
  // a violation like any audit.
  ScenarioBuilder& Slo(const SloBounds& bounds) {
    scenario_.slo_ = bounds;
    return *this;
  }
  ScenarioBuilder& MinStoreHitRate(double rate) {
    scenario_.min_store_hit_rate_ = rate;
    return *this;
  }

  // --- Canned phases --------------------------------------------------------

  // The base workload, unchanged, for `duration` (warm-up / recovery).
  ScenarioBuilder& Steady(sim::SimTime duration);

  // `peers` free peers arrive at `rate_per_sec`; the phase lasts exactly as
  // long as the wave takes (plus nothing — follow with Quiesce to settle).
  ScenarioBuilder& JoinWave(size_t peers, double rate_per_sec);

  // Sustained failure-mode churn: peers die at `fail_rate_per_sec` while
  // replacements arrive at `join_rate_per_sec`.
  ScenarioBuilder& Churn(double fail_rate_per_sec, double join_rate_per_sec,
                         sim::SimTime duration);

  // Skewed read burst: zipf-keyed inserts plus oracle-audited range queries
  // at `query_rate_per_sec`.
  ScenarioBuilder& FlashCrowd(double zipf_theta, double query_rate_per_sec,
                              sim::SimTime duration);

  // `fraction` of the live membership departs *gracefully* (Section 5 exit)
  // at phase entry; the rest of the phase watches the mergers settle.
  ScenarioBuilder& MassLeave(double fraction, sim::SimTime duration);

  // The free-peer directory runs dry while the base load keeps inserting:
  // overflows stall (ds.split_no_free_peer) until the drought lifts.
  ScenarioBuilder& FreePeerDrought(sim::SimTime duration);

  // The zipf hotspot jumps to a different arc of the ring.
  ScenarioBuilder& HotspotShift(Key hotspot_offset, sim::SimTime duration);

  // All rates off; reorganizations drain.
  ScenarioBuilder& Quiesce(sim::SimTime duration);

  Scenario Build() { return std::move(scenario_); }

 private:
  Phase FromBase(std::string name, sim::SimTime duration) const;

  Scenario scenario_;
  workload::WorkloadOptions base_;
};

}  // namespace pepper::scenario

#endif  // PEPPER_SCENARIO_SCENARIO_H_
