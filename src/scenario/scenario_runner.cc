#include "scenario/scenario_runner.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>

namespace pepper::scenario {

namespace {

std::vector<MetricsRegistry::PhaseSnapshot> Snapshots(
    const RunReport& report) {
  std::vector<MetricsRegistry::PhaseSnapshot> out;
  out.reserve(report.phases.size());
  for (const auto& p : report.phases) out.push_back(p.metrics);
  return out;
}

}  // namespace

std::string RunReport::Text() const {
  std::ostringstream os;
  os << "scenario " << scenario << " seed=" << seed << " "
     << (ok ? "OK" : "VIOLATIONS") << " (" << total_violations
     << " violations across " << phases.size() << " phases)\n";
  for (const auto& p : phases) {
    os << "-- " << p.name << ": "
       << (p.probes.ok ? "probes ok" : "PROBES FAILED");
    if (p.wall_seconds > 0.0) {
      os << " [wall " << std::fixed << std::setprecision(2) << p.wall_seconds
         << "s, "
         << static_cast<uint64_t>(static_cast<double>(p.events) /
                                  p.wall_seconds)
         << " events/s]";
      os.unsetf(std::ios_base::floatfield);
    }
    os << "\n";
    for (const auto& v : p.probes.violations) os << "   ! " << v << "\n";
    os << p.top_arcs;  // per-window hot arcs (timeline mode; else empty)
  }
  os << MetricsRegistry::TextOf(Snapshots(*this));
  return os.str();
}

std::string RunReport::Csv() const {
  return MetricsRegistry::CsvOf(Snapshots(*this));
}

ScenarioRunner::ScenarioRunner(RunnerOptions options)
    : options_(std::move(options)) {}

ScenarioRunner::~ScenarioRunner() = default;

RunReport ScenarioRunner::Run(const Scenario& scenario) {
  RunReport report;
  report.scenario = scenario.name();
  report.seed = options_.cluster.seed;

  driver_.reset();  // before the cluster its timers point into
  reported_lost_.clear();
  reported_query_violations_ = 0;
  reported_dead_ends_ = 0;
  reported_attempts_ = 0;
  reported_health_.clear();
  run_health_.clear();
  phase_spans_.clear();
  workload::ClusterOptions cluster_options = options_.cluster;
  if (options_.health_probes || options_.timeline) {
    cluster_options.telemetry = true;  // schedule-invisible; see cluster.h
  }
  cluster_ = std::make_unique<workload::Cluster>(cluster_options);
  workload::Cluster& cluster = *cluster_;
  cluster.Bootstrap(options_.bootstrap_val);
  for (size_t i = 0; i < options_.initial_free_peers; ++i) {
    cluster.AddFreePeer();
  }
  cluster.RunFor(options_.warmup);

  // Pre-run seed items (synchronous: the ring grows via splits before the
  // first phase opens, exactly like the figure benches' GrowTo helper).
  if (options_.seed_items > 0) {
    sim::Rng seed_rng(options_.cluster.seed ^ 0x5eedULL);
    for (size_t i = 0; i < options_.seed_items; ++i) {
      (void)cluster.InsertItem(seed_rng.Uniform(0, options_.bootstrap_val));
    }
    cluster.RunFor(options_.probe_settle);
  }

  // One driver for the whole run: phases re-arm it (epoch-guarded), so
  // inserted-key state survives phase boundaries and deletes keep targets.
  driver_ = std::make_unique<workload::WorkloadDriver>(
      &cluster, workload::WorkloadOptions{},
      options_.cluster.seed ^ 0xd01cULL);
  workload::WorkloadDriver& driver = *driver_;
  sim::Rng scenario_rng(options_.cluster.seed ^ 0x5ce0ULL);
  MetricsRegistry registry(&cluster.metrics());

  size_t index = 0;
  for (const Phase& phase : scenario.phases()) {
    ++index;
    std::ostringstream label;
    label << (index < 10 ? "0" : "") << index << "_" << phase.name;

    const uint64_t msgs_before = cluster.sim().network().messages_sent();
    const uint64_t events_before = cluster.sim().events_executed();
    std::map<std::string, uint64_t> sim_counters_before;
    for (const auto& [name, v] : cluster.sim().counters().Snapshot()) {
      sim_counters_before[name] = v;
    }
    const auto wall_start = std::chrono::steady_clock::now();
    registry.BeginPhase(label.str());
    cluster.pool().set_suspended(phase.suspend_free_peers);
    if (phase.on_enter) phase.on_enter(cluster, scenario_rng);
    driver.Stop();
    driver.set_options(phase.workload);
    driver.Start();
    const sim::SimTime phase_start = cluster.sim().now();
    ProbeOutcome mid_health;  // mid-phase findings, merged into the probes
    if (options_.health_probes && options_.health_check_period > 0) {
      // Chunked run with health evaluation at fixed sim-time boundaries.
      // The chunking is part of the run recipe, not data-dependent, so the
      // event schedule is the same as one straight RunFor.
      sim::SimTime remaining = phase.duration;
      while (remaining > 0) {
        const sim::SimTime step =
            std::min(remaining, options_.health_check_period);
        cluster.RunFor(step);
        remaining -= step;
        if (remaining > 0) CheckHealth(&mid_health);
      }
    } else {
      cluster.RunFor(phase.duration);
    }
    driver.Stop();
    phase_spans_.push_back(
        telemetry::PhaseSpan{label.str(), phase_start, cluster.sim().now()});
    cluster.metrics().counters().Inc(
        "net.messages_sent",
        cluster.sim().network().messages_sent() - msgs_before);
    // Deterministic per-phase event count (the events/sec numerator).
    const uint64_t phase_events =
        cluster.sim().events_executed() - events_before;
    cluster.metrics().counters().Inc("sim.events", phase_events);
    // The simulator's own counters — the executed periodic-timer fires by
    // label, `sim.fires.<label>`, and the sent messages by payload type,
    // `sim.msgs.<PayloadType>` — are deterministic too: the first
    // per-layer slices of `sim.events` and `net.messages_sent`.
    for (const auto& [name, v] : cluster.sim().counters().Snapshot()) {
      cluster.metrics().counters().Inc(name, v - sim_counters_before[name]);
    }
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    if (options_.timing && wall_seconds > 0.0) {
      // Wall-clock rows are opt-in: they vary run to run and would break
      // the same-seed CSV-identity contract if always present.
      cluster.metrics().counters().Inc(
          "perf.wall_us", static_cast<uint64_t>(wall_seconds * 1e6));
      cluster.metrics().counters().Inc(
          "perf.events_per_sec",
          static_cast<uint64_t>(static_cast<double>(phase_events) /
                                wall_seconds));
    }
    registry.EndPhase(sim::ToSeconds(phase.duration));
    cluster.pool().set_suspended(false);

    PhaseOutcome outcome;
    outcome.name = label.str();
    outcome.metrics = registry.phases().back();
    outcome.events = phase_events;
    if (options_.timing) outcome.wall_seconds = wall_seconds;
    if (options_.run_probes && !phase.skip_probes) {
      // Drain in-flight reorganizations (driver stopped, metrics closed) so
      // transient states don't read as violations.
      cluster.RunFor(options_.probe_settle);
      outcome.probes = RunProbes();
    }
    if (options_.slo_probes && !phase.skip_probes) {
      CheckSlo(outcome.metrics, &outcome.probes);
    }
    if (options_.health_probes) {
      outcome.probes.health_violations += mid_health.health_violations;
      for (auto& v : mid_health.violations) {
        outcome.probes.violations.push_back(std::move(v));
      }
      CheckHealth(&outcome.probes);  // boundary check + ok recompute
    }
    if (options_.timeline && cluster.monitor() != nullptr) {
      outcome.top_arcs = telemetry::TopArcsText(
          *cluster.monitor(), phase_spans_.back().start,
          phase_spans_.back().end, options_.timeline_top_k);
    }
    if (!outcome.probes.ok) {
      report.ok = false;
      report.total_violations += outcome.probes.violations.size();
      // Audit-failure forensics: on the first failing round, snapshot the
      // flight recorder — the recent record window plus the full causal
      // history of the first offending item (when one is known).
      if (report.trace_dump.empty() && cluster.sim().tracer().enabled()) {
        const uint64_t tag = outcome.probes.newly_lost.empty()
                                 ? 0
                                 : outcome.probes.newly_lost.front();
        report.trace_dump = cluster.sim().tracer().DumpKeyHistory(tag);
      }
    }
    report.phases.push_back(std::move(outcome));
    if (!report.ok && options_.fatal_probes) break;
  }
  if (options_.timeline && cluster.monitor() != nullptr) {
    telemetry::TimelineOptions topts;
    topts.top_k = options_.timeline_top_k;
    report.timeline_json = telemetry::TimelineJson(*cluster.monitor(),
                                                   run_health_, phase_spans_,
                                                   topts);
  }
  return report;
}

ProbeOutcome ScenarioRunner::RunProbes() {
  ProbeOutcome out;
  workload::Cluster& cluster = *cluster_;

  // --- Ring probe (Definition 5 + the Section 5.1 survival property) ------
  const ring::RingAudit ring_audit = cluster.AuditRing();
  out.ring_consistent = ring_audit.consistent;
  out.ring_connected = ring_audit.connected;
  for (const auto& v : ring_audit.violations) {
    out.violations.push_back("ring: " + v);
  }

  // --- History-oracle availability probe (Definition 7) -------------------
  // The audit is cumulative over the run; report only the keys newly lost
  // since the previous probe round, so one loss is one violation, not one
  // per remaining phase.
  const auto avail = cluster.AuditAvailability();
  std::vector<Key> newly_lost;
  for (Key k : avail.lost) {
    if (reported_lost_.find(k) == reported_lost_.end()) newly_lost.push_back(k);
  }
  reported_lost_ = std::set<Key>(avail.lost.begin(), avail.lost.end());
  out.lost_items = newly_lost.size();
  out.newly_lost = newly_lost;
  if (!newly_lost.empty() && options_.availability_fatal) {
    std::ostringstream os;
    os << "oracle: " << newly_lost.size()
       << " inserted item(s) no longer live, first key " << newly_lost[0];
    out.violations.push_back(os.str());
  }

  // --- Item-conservation probe --------------------------------------------
  // Every stored item lies in its holder's range and no key is owned twice:
  // together with the availability probe this says reorganizations moved
  // items without duplicating or stranding them.
  std::set<Key> seen;
  for (const auto& p : cluster.peers()) {
    if (!p->ring->alive() || !p->ds->active()) continue;
    p->ds->ForEachItem([&](const datastore::Item& item, uint64_t) {
      if (!p->ds->range().Contains(item.skv)) {
        ++out.conservation_errors;
        out.violations.push_back(
            "conservation: peer " + std::to_string(p->id()) +
            " holds out-of-range key " + std::to_string(item.skv));
      }
      if (!seen.insert(item.skv).second) {
        ++out.conservation_errors;
        out.violations.push_back("conservation: key " +
                                 std::to_string(item.skv) +
                                 " owned by two peers");
      }
    });
  }

  // --- Router dead-end probe ----------------------------------------------
  // A forwarding hop that dies mid-lookup is tolerated (the initiator-side
  // retry completes the lookup), but it must stay a rare event: if the
  // forward path dead-ends for more than 2% of a round's attempts, lookups
  // are systematically stalling a full lookup-timeout each — a
  // routing-layer pathology the timeout statistics alone would
  // misattribute.  Diffed per probe round (like the Definition 7 probe
  // above) so one bad phase is one violation, not one per remaining phase,
  // and a late phase-local burst is not averaged away under a long run's
  // earlier clean attempts.  The handful-per-round floor skips settle-
  // window stragglers; paper-scale long_churn measures ~0.8% from
  // transient takeover windows, while the pathology this bounds is tens
  // of percent.
  const auto& router_counters = cluster.metrics().counters();
  const uint64_t total_dead_ends =
      router_counters.Get("router.fwd_dead_end");
  const uint64_t total_attempts = router_counters.Get("router.attempts");
  const uint64_t round_dead_ends = total_dead_ends - reported_dead_ends_;
  const uint64_t round_attempts = total_attempts - reported_attempts_;
  reported_dead_ends_ = total_dead_ends;
  reported_attempts_ = total_attempts;
  out.router_dead_ends = round_dead_ends;
  if (round_dead_ends > 5 && round_dead_ends * 50 > round_attempts) {
    std::ostringstream os;
    os << "router: " << round_dead_ends
       << " forwarding dead-end(s) across " << round_attempts
       << " attempts this round (>2%)";
    out.violations.push_back(os.str());
  }

  // --- Buffer-pool hit-rate probe -----------------------------------------
  // With a bounded paged store, a collapsing hit rate means the pool is
  // thrashing (every access a simulated disk fault) — a capacity-planning
  // failure the latency statistics would only show indirectly.  Cumulative
  // over the run; read-only (audit reads perturb no schedule).
  if (options_.min_store_hit_rate > 0.0) {
    uint64_t hits = 0;
    uint64_t faults = 0;
    for (const auto& p : cluster.peers()) {
      const store::StoreStats& s = p->ds->store_stats();
      hits += s.hits;
      faults += s.faults;
    }
    if (hits + faults > 0) {
      const double rate = static_cast<double>(hits) /
                          static_cast<double>(hits + faults);
      if (rate < options_.min_store_hit_rate) {
        std::ostringstream os;
        os << "store: buffer hit rate " << rate << " below required "
           << options_.min_store_hit_rate << " (" << hits << " hits, "
           << faults << " faults)";
        out.violations.push_back(os.str());
      }
    }
  }

  // --- Query audits (Definition 4) ----------------------------------------
  // Diff the driver's cumulative count rather than the phase's metrics
  // delta: a query completing inside the settle window would fall between
  // two snapshots and silently vanish from both.
  const size_t total_qv =
      driver_ != nullptr ? driver_->query_violations() : 0;
  out.query_violations = total_qv - reported_query_violations_;
  reported_query_violations_ = total_qv;
  if (out.query_violations > 0) {
    out.violations.push_back(
        "oracle: " + std::to_string(out.query_violations) +
        " range-query result(s) failed the Definition 4 audit");
  }

  out.ok = out.violations.empty();
  return out;
}

void ScenarioRunner::CheckSlo(const MetricsRegistry::PhaseSnapshot& snap,
                              ProbeOutcome* out) {
  struct Bound {
    const char* series;
    double q;
    double limit;
    const char* label;
  };
  const RunnerOptions::SloBounds& slo = options_.slo;
  const Bound bounds[] = {
      {"wl.insert_time", 0.5, slo.insert_p50, "insert p50"},
      {"wl.insert_time", 0.99, slo.insert_p99, "insert p99"},
      {"wl.insert_time", 0.999, slo.insert_p999, "insert p999"},
      {"wl.query_time", 0.5, slo.query_p50, "query p50"},
      {"wl.query_time", 0.99, slo.query_p99, "query p99"},
      {"wl.query_time", 0.999, slo.query_p999, "query p999"},
  };
  for (const Bound& b : bounds) {
    if (b.limit <= 0.0) continue;
    const Histogram* h = snap.FindSeries(b.series);
    if (h == nullptr || h->count() == 0) continue;  // phase drove no such ops
    const double v = h->Percentile(b.q);
    if (v <= b.limit) continue;
    ++out->slo_violations;
    if (options_.slo_fatal) {
      std::ostringstream os;
      os << "slo: " << b.label << " " << std::setprecision(4) << v
         << "s exceeds " << b.limit << "s";
      out->violations.push_back(os.str());
    }
  }
  out->ok = out->violations.empty();
}

void ScenarioRunner::CheckHealth(ProbeOutcome* out) {
  workload::Cluster& cluster = *cluster_;
  telemetry::LoadMonitor* monitor = cluster.monitor();
  if (monitor == nullptr) return;
  telemetry::HealthOptions health = options_.health;
  if (health.max_refresh_period == 0 && options_.cluster.use_hrf_router) {
    // Derive the stall threshold from the router's cadence cap unless the
    // caller pinned one.
    health.max_refresh_period = options_.cluster.hrf_max_refresh_period;
  }
  std::vector<sim::NodeId> live;
  for (workload::PeerStack* p : cluster.LiveMembers()) live.push_back(p->id());
  const std::vector<telemetry::HealthViolation> found =
      telemetry::EvaluateHealth(*monitor, health, live, cluster.sim().now());
  for (const telemetry::HealthViolation& v : found) {
    // A streak persisting across evaluations re-fires at each newly closed
    // window; each (kind, peer, window) is reported exactly once.
    const auto key =
        std::make_tuple(static_cast<int>(v.kind), v.node, v.window);
    if (!reported_health_.insert(key).second) continue;
    ++out->health_violations;
    run_health_.push_back(v);
    if (options_.health_fatal) {
      out->violations.push_back("health: " + v.ToString());
    }
  }
  out->ok = out->violations.empty();
}

}  // namespace pepper::scenario
