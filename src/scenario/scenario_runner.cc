#include "scenario/scenario_runner.h"

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
       << (p.probes.ok() ? "probes ok" : "PROBES FAILED");
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
  reported_exhausted_ = 0;
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
    const uint64_t windows_before = cluster.sim().windows_executed();
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
    PhaseOutcome outcome;
    RunPhase(phase.duration, &outcome.probes);
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
      // The engine's own behaviour: lookahead windows run, and executed
      // events per thousand windows.  Deterministic, but they describe the
      // engine rather than the protocol, so they ride with the perf rows.
      const uint64_t windows =
          cluster.sim().windows_executed() - windows_before;
      cluster.metrics().counters().Inc("perf.windows", windows);
      if (windows > 0) {
        cluster.metrics().counters().Inc("perf.events_per_1k_windows",
                                         1000 * phase_events / windows);
      }
    }
    registry.EndPhase(sim::ToSeconds(phase.duration));
    cluster.pool().set_suspended(false);

    outcome.name = label.str();
    outcome.metrics = registry.phases().back();
    outcome.events = phase_events;
    if (options_.timing) outcome.wall_seconds = wall_seconds;
    RunProbes(scenario, phase, &outcome);
    if (options_.timeline && cluster.monitor() != nullptr) {
      outcome.top_arcs = telemetry::TopArcsText(
          *cluster.monitor(), phase_spans_.back().start,
          phase_spans_.back().end);
    }
    if (!outcome.probes.ok()) {
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
    report.timeline_json = telemetry::TimelineJson(*cluster.monitor(),
                                                   run_health_, phase_spans_);
  }
  return report;
}

void ScenarioRunner::RunPhase(sim::SimTime duration, ProbeOutcome* out) {
  workload::Cluster& cluster = *cluster_;
  const sim::SimTime end = cluster.sim().now() + duration;
  if (options_.health_probes) {
    // The timeout-anomaly probe judges only closed windows, so one check
    // per window boundary is the finest cadence that can find anything.
    // Chunking RunFor does not move a single event.
    const sim::SimTime window = options_.cluster.telemetry_window;
    for (sim::SimTime t = (cluster.sim().now() / window + 1) * window;
         t < end; t += window) {
      cluster.RunFor(t - cluster.sim().now());
      CheckHealth(out);
    }
  }
  cluster.RunFor(end - cluster.sim().now());
}

void ScenarioRunner::RunProbes(const Scenario& scenario, const Phase& phase,
                               PhaseOutcome* outcome) {
  workload::Cluster& cluster = *cluster_;
  ProbeOutcome& out = outcome->probes;
  if (options_.run_probes && !phase.skip_probes) {
    // Drain in-flight reorganizations (driver stopped, metrics closed) so
    // transient states don't read as violations.
    cluster.RunFor(options_.probe_settle);

    // --- ring: Definition 5 + the Section 5.1 survival property ----------
    for (const auto& v : cluster.AuditRing().violations) {
      out.violations.push_back("ring: " + v);
    }

    // --- oracle: Definition 7 availability -------------------------------
    // The audit is cumulative over the run; report only the keys newly
    // lost since the previous round, so one loss is one finding, not one
    // per remaining phase.
    const auto avail = cluster.AuditAvailability();
    for (Key k : avail.lost) {
      if (reported_lost_.count(k) == 0) out.newly_lost.push_back(k);
    }
    reported_lost_ = std::set<Key>(avail.lost.begin(), avail.lost.end());
    if (!out.newly_lost.empty()) {
      std::ostringstream os;
      os << "oracle: " << out.newly_lost.size()
         << " inserted item(s) no longer live, first key "
         << out.newly_lost[0];
      out.violations.push_back(os.str());
    }

    // --- conservation: items in range, no key owned twice ----------------
    // Together with the availability audit this says reorganizations moved
    // items without duplicating or stranding them.
    std::set<Key> seen;
    for (const auto& p : cluster.peers()) {
      if (!p->ring->alive() || !p->ds->active()) continue;
      p->ds->ForEachItem([&](const datastore::Item& item, uint64_t) {
        if (!p->ds->range().Contains(item.skv)) {
          out.violations.push_back(
              "conservation: peer " + std::to_string(p->id()) +
              " holds out-of-range key " + std::to_string(item.skv));
        }
        if (!seen.insert(item.skv).second) {
          out.violations.push_back("conservation: key " +
                                   std::to_string(item.skv) +
                                   " owned by two peers");
        }
      });
    }

    // --- router: forwarding dead-ends ------------------------------------
    // A forwarding hop that dies mid-lookup is tolerated (the initiator-side
    // retry completes the lookup), but it must stay a rare event: if the
    // forward path dead-ends for more than 2% of a round's attempts,
    // lookups are systematically stalling a full lookup-timeout each — a
    // routing-layer pathology the timeout statistics alone would
    // misattribute.  Diffed per round (like the availability audit) so one
    // bad phase is one finding, and a late phase-local burst is not
    // averaged away under a long run's earlier clean attempts.  The
    // handful-per-round floor skips settle-window stragglers; paper-scale
    // long_churn measures ~0.8% from transient takeover windows, while the
    // pathology this bounds is tens of percent.
    const auto& counters = cluster.metrics().counters();
    const uint64_t total_dead_ends = counters.Get("router.fwd_dead_end");
    const uint64_t total_attempts = counters.Get("router.attempts");
    const uint64_t dead_ends = total_dead_ends - reported_dead_ends_;
    const uint64_t attempts = total_attempts - reported_attempts_;
    reported_dead_ends_ = total_dead_ends;
    reported_attempts_ = total_attempts;
    if (dead_ends > 5 && dead_ends * 50 > attempts) {
      std::ostringstream os;
      os << "router: " << dead_ends << " forwarding dead-end(s) across "
         << attempts << " attempts this round (>2%)";
      out.violations.push_back(os.str());
    }
    // A lookup that runs out of hops was circling the ring: routing never
    // passes a key twice, so any exhaustion is a routing defect.
    const uint64_t total_exhausted =
        counters.Get("router.hop_budget_exhausted");
    const uint64_t exhausted = total_exhausted - reported_exhausted_;
    reported_exhausted_ = total_exhausted;
    if (exhausted > 0) {
      out.violations.push_back("router: " + std::to_string(exhausted) +
                               " lookup(s) exhausted the hop budget this "
                               "round");
    }

    // --- store: buffer-pool hit rate (scenario-declared) -----------------
    // With a bounded paged store, a collapsing hit rate means the pool is
    // thrashing (every access a simulated disk fault).  Cumulative over the
    // run.  The in-memory store counts every access as a hit.
    if (scenario.min_store_hit_rate() > 0.0) {
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
        if (rate < scenario.min_store_hit_rate()) {
          std::ostringstream os;
          os << "store: buffer hit rate " << rate << " below required "
             << scenario.min_store_hit_rate() << " (" << hits << " hits, "
             << faults << " faults)";
          out.violations.push_back(os.str());
        }
      }
    }

    // --- oracle: Definition 4 query audits -------------------------------
    // Diff the driver's cumulative count rather than the phase's metrics
    // delta: a query completing inside the settle window would fall between
    // two snapshots and silently vanish from both.
    const size_t total_qv =
        driver_ != nullptr ? driver_->query_violations() : 0;
    const size_t query_violations = total_qv - reported_query_violations_;
    reported_query_violations_ = total_qv;
    if (query_violations > 0) {
      out.violations.push_back(
          "oracle: " + std::to_string(query_violations) +
          " range-query result(s) failed the Definition 4 audit");
    }

    // --- slo: per-phase latency bounds (scenario-declared) ---------------
    const SloBounds& slo = scenario.slo();
    const struct {
      const char* series;
      double q;
      double limit;
      const char* label;
    } bounds[] = {
        {"wl.insert_time", 0.5, slo.insert_p50, "insert p50"},
        {"wl.insert_time", 0.99, slo.insert_p99, "insert p99"},
        {"wl.insert_time", 0.999, slo.insert_p999, "insert p999"},
        {"wl.query_time", 0.5, slo.query_p50, "query p50"},
        {"wl.query_time", 0.99, slo.query_p99, "query p99"},
        {"wl.query_time", 0.999, slo.query_p999, "query p999"},
    };
    for (const auto& b : bounds) {
      if (b.limit <= 0.0) continue;
      const Histogram* h = outcome->metrics.FindSeries(b.series);
      if (h == nullptr || h->count() == 0) continue;  // no such ops
      const double v = h->Percentile(b.q);
      if (v <= b.limit) continue;
      std::ostringstream os;
      os << "slo: " << b.label << " " << std::setprecision(4) << v
         << "s exceeds " << b.limit << "s";
      out.violations.push_back(os.str());
    }
  }

  // --- health: timeout anomalies and refresh stalls ----------------------
  // Runs on skip_probes phases too: detecting an injected degradation is
  // the point.
  if (options_.health_probes) CheckHealth(&out);
}

void ScenarioRunner::CheckHealth(ProbeOutcome* out) {
  workload::Cluster& cluster = *cluster_;
  telemetry::LoadMonitor* monitor = cluster.monitor();
  if (monitor == nullptr) return;
  telemetry::HealthOptions health;
  if (options_.cluster.use_hrf_router) {
    // The stall threshold scales with the router's cadence cap.
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
    run_health_.push_back(v);
    out->violations.push_back("health: " + v.ToString());
  }
}

}  // namespace pepper::scenario
