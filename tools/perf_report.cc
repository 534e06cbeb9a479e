// perf_report: emits BENCH_simcore.json — the repo's tracked simulator-core
// perf baseline.  Runs the sim-core micro-benchmarks (events/sec, sends/sec,
// timer throughput, peak RSS) and, unless --skip-scenario, the paper-scale
// wall-clock probe: long_churn --paper --scale=N with all audits fatal.
//
//   perf_report [--out=BENCH_simcore.json] [--scale=20] [--seed=42]
//               [--quick] [--skip-scenario] [--trace-sample=64]
//               [--skip-trace] [--skip-telemetry]
//
// CI compares a fresh report against the committed BENCH_simcore.json with
// tools/check_perf_regression.py and fails on a >20% events/sec regression.
// Exit status: 0 on success, 1 if the scenario probe found violations,
// 2 on usage errors.

#include <cstdio>
#include <cstring>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>

#include "sim_core_microbench.h"

#include "scenario/builtin_scenarios.h"
#include "scenario/scenario_runner.h"

namespace {

using pepper::bench::SimCoreMicroResults;
using pepper::scenario::BuiltinParams;
using pepper::scenario::MakeBuiltin;
using pepper::scenario::RunnerOptions;
using pepper::scenario::RunReport;
using pepper::scenario::ScenarioRunner;
namespace sim = pepper::sim;

struct ScenarioProbe {
  bool ran = false;
  bool ok = false;
  double scale = 0.0;
  uint64_t seed = 0;
  double wall_seconds = 0.0;
  uint64_t events = 0;
  uint64_t messages = 0;
  // Router refresh-traffic probe: HRF level-maintenance messages (GetLevels
  // / GetEntry requests + replies) against total network messages, plus the
  // lookup hop distribution — the figure-level A/B evidence for the batched
  // refresh scheme.
  uint64_t refresh_msgs = 0;
  double refresh_share = 0.0;
  double hops_mean = 0.0;
  uint64_t hops_count = 0;
  uint64_t fwd_dead_ends = 0;
  uint64_t trace_records = 0;
  // Paged-store arm only: cumulative buffer-pool figures across all peers.
  uint64_t store_hits = 0;
  uint64_t store_faults = 0;
};

ScenarioProbe RunScenarioProbe(double scale, uint64_t seed,
                               bool batched_refresh,
                               uint64_t trace_sample = 0,
                               bool telemetry = false, bool paged = false) {
  ScenarioProbe probe;
  BuiltinParams params;
  params.scale = scale;
  const auto scenario = MakeBuiltin("long_churn", params);
  if (!scenario.has_value()) return probe;
  RunnerOptions options;
  options.cluster = pepper::workload::ClusterOptions::PaperDefaults();
  options.cluster.seed = seed;
  options.cluster.hrf_batched_refresh = batched_refresh;
  if (paged) {
    // Zero page_io_latency: the paged engine must replay the in-memory
    // event schedule bit-identically — replay_identical gates it.
    options.cluster.ds.store.backend = pepper::store::StoreBackend::kPaged;
  }
  if (trace_sample > 0) {
    options.cluster.trace = true;
    options.cluster.trace_sample_every = trace_sample;
  }
  if (telemetry) {
    // Windowed load monitor + the deterministic health probes, armed fatal:
    // the arm measures the hook cost AND continuously proves the probes
    // stay quiet on a clean paper-scale churn run.
    options.health_probes = true;
    options.health_fatal = true;
  }
  options.initial_free_peers = 10;
  options.seed_items = 40;
  options.fatal_probes = true;
  options.probe_settle = 40 * sim::kSecond;
  options.timing = true;
  ScenarioRunner runner(options);
  const auto start = std::chrono::steady_clock::now();
  const RunReport report = runner.Run(*scenario);
  probe.ran = true;
  probe.ok = report.ok;
  probe.scale = scale;
  probe.seed = seed;
  probe.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  probe.events = runner.cluster()->sim().events_executed();
  probe.messages = runner.cluster()->sim().network().messages_sent();
  const auto& counters = runner.cluster()->metrics().counters();
  probe.refresh_msgs = counters.Get("router.refresh_rpcs") +
                       counters.Get("router.refresh_replies");
  if (probe.messages > 0) {
    probe.refresh_share = static_cast<double>(probe.refresh_msgs) /
                          static_cast<double>(probe.messages);
  }
  probe.fwd_dead_ends = counters.Get("router.fwd_dead_end");
  const auto* hops =
      runner.cluster()->metrics().FindLatency("router.hops");
  if (hops != nullptr) {
    probe.hops_mean = hops->mean();
    probe.hops_count = hops->count();
  }
  probe.trace_records = runner.cluster()->sim().tracer().record_count();
  for (const auto& peer : runner.cluster()->peers()) {
    const pepper::store::StoreStats& s = peer->ds->store_stats();
    probe.store_hits += s.hits;
    probe.store_faults += s.faults;
  }
  return probe;
}

void AppendRouterJson(std::ostringstream& json, const ScenarioProbe& p) {
  json << "      \"refresh_msgs\": " << p.refresh_msgs << ",\n";
  json << "      \"refresh_share\": " << p.refresh_share << ",\n";
  json << "      \"hops_mean\": " << p.hops_mean << ",\n";
  json << "      \"hops_count\": " << p.hops_count << ",\n";
  json << "      \"fwd_dead_ends\": " << p.fwd_dead_ends << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_simcore.json";
  double scale = 20.0;
  uint64_t seed = 42;
  bool quick = false;
  bool skip_scenario = false;
  bool skip_router_ab = false;
  bool skip_trace = false;
  bool skip_telemetry = false;
  bool skip_store = false;
  uint64_t trace_sample = 64;

  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      scale = std::strtod(argv[i] + 8, nullptr);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--skip-scenario") == 0) {
      skip_scenario = true;
    } else if (std::strcmp(argv[i], "--skip-router-ab") == 0) {
      skip_router_ab = true;
    } else if (std::strncmp(argv[i], "--trace-sample=", 15) == 0) {
      trace_sample = std::strtoull(argv[i] + 15, nullptr, 10);
      if (trace_sample == 0) trace_sample = 1;
    } else if (std::strcmp(argv[i], "--skip-trace") == 0) {
      skip_trace = true;
    } else if (std::strcmp(argv[i], "--skip-telemetry") == 0) {
      skip_telemetry = true;
    } else if (std::strcmp(argv[i], "--skip-store") == 0) {
      skip_store = true;
    } else {
      std::fprintf(stderr,
                   "usage: perf_report [--out=FILE] [--scale=F] [--seed=N] "
                   "[--quick] [--skip-scenario] [--skip-router-ab] "
                   "[--trace-sample=N] "
                   "[--skip-trace] [--skip-telemetry] [--skip-store]\n");
      return 2;
    }
  }

  std::printf("running sim-core micro-benchmarks%s...\n",
              quick ? " (quick)" : "");
  const SimCoreMicroResults micro = pepper::bench::RunSimCoreMicrobench(quick);
  std::printf("  events/sec %.0f  sends/sec %.0f  timer fires/sec %.0f\n",
              micro.events_per_sec, micro.sends_per_sec,
              micro.timer_fires_per_sec);

  ScenarioProbe probe;
  ScenarioProbe baseline;
  ScenarioProbe trace_on;
  ScenarioProbe telemetry_on;
  ScenarioProbe store_on;
  if (!skip_scenario) {
    std::printf("running long_churn --paper --scale=%g --seed=%llu "
                "(fatal audits)...\n",
                scale, static_cast<unsigned long long>(seed));
    probe = RunScenarioProbe(scale, seed, /*batched_refresh=*/true);
    if (!probe.ran) {
      std::fprintf(stderr, "long_churn missing from the catalogue\n");
      return 2;
    }
    std::printf("  wall %.1fs, %llu events (%.0f events/sec), audits %s\n",
                probe.wall_seconds,
                static_cast<unsigned long long>(probe.events),
                static_cast<double>(probe.events) / probe.wall_seconds,
                probe.ok ? "green" : "VIOLATED");
    std::printf("  router refresh msgs %llu (%.1f%% of %llu total), "
                "hops mean %.2f over %llu lookups\n",
                static_cast<unsigned long long>(probe.refresh_msgs),
                probe.refresh_share * 100.0,
                static_cast<unsigned long long>(probe.messages),
                probe.hops_mean,
                static_cast<unsigned long long>(probe.hops_count));
    if (!skip_router_ab) {
      // The per-level fixed-cadence baseline, same seed/scale: the A/B pair
      // pins the refresh-traffic reduction and the hop-distribution parity
      // figure-style (check_perf_regression.py gates both).
      std::printf("running the per-level refresh baseline (A/B)...\n");
      baseline = RunScenarioProbe(scale, seed, /*batched_refresh=*/false);
      std::printf("  baseline refresh msgs %llu (%.1f%%), hops mean %.2f; "
                  "reduction %.2fx, hops ratio %.3f\n",
                  static_cast<unsigned long long>(baseline.refresh_msgs),
                  baseline.refresh_share * 100.0, baseline.hops_mean,
                  probe.refresh_msgs > 0
                      ? static_cast<double>(baseline.refresh_msgs) /
                            static_cast<double>(probe.refresh_msgs)
                      : 0.0,
                  baseline.hops_mean > 0.0 ? probe.hops_mean /
                                                 baseline.hops_mean
                                           : 0.0);
    }
    if (!skip_trace) {
      // The tracing-on arm, same seed/scale, 1-in-N root sampling.  The
      // probe above IS the tracing-off arm (tracing compiled in,
      // disabled), so the pair measures what turning the flight recorder
      // on costs — and its event count doubles as a replay-identity check.
      std::printf("running the tracing-on arm (sampled 1-in-%llu)...\n",
                  static_cast<unsigned long long>(trace_sample));
      trace_on = RunScenarioProbe(scale, seed, /*batched_refresh=*/true,
                                  trace_sample);
      std::printf("  wall %.1fs (off: %.1fs, overhead %.1f%%), %llu trace "
                  "records, audits %s, replay %s\n",
                  trace_on.wall_seconds, probe.wall_seconds,
                  probe.wall_seconds > 0.0
                      ? (trace_on.wall_seconds / probe.wall_seconds - 1.0) *
                            100.0
                      : 0.0,
                  static_cast<unsigned long long>(trace_on.trace_records),
                  trace_on.ok ? "green" : "VIOLATED",
                  trace_on.events == probe.events ? "identical" : "DIVERGED");
    }
    if (!skip_telemetry) {
      // The telemetry-on arm, same seed/scale: load monitor rings filling
      // plus the deterministic health probes armed fatal.  The probe above
      // IS the telemetry-off arm (hooks compiled in, sink null), so
      // the pair prices the enabled monitor, the event count doubles as a
      // replay-identity check, and a clean run proves the probes stay quiet
      // on healthy paper-scale churn.
      std::printf("running the telemetry-on arm (health probes fatal)...\n");
      telemetry_on = RunScenarioProbe(scale, seed, /*batched_refresh=*/true,
                                      /*trace_sample=*/0,
                                      /*telemetry=*/true);
      std::printf("  wall %.1fs (off: %.1fs, overhead %.1f%%), audits %s, "
                  "replay %s\n",
                  telemetry_on.wall_seconds, probe.wall_seconds,
                  probe.wall_seconds > 0.0
                      ? (telemetry_on.wall_seconds / probe.wall_seconds -
                         1.0) * 100.0
                      : 0.0,
                  telemetry_on.ok ? "green" : "VIOLATED",
                  telemetry_on.events == probe.events ? "identical"
                                                      : "DIVERGED");
    }
    if (!skip_store) {
      // The paged-store arm, same seed/scale, page_io_latency=0.  The
      // probe above IS the in-memory arm (same facade, map engine),
      // so the pair prices the paged engine (page faults, tree descents,
      // pool bookkeeping) against the map — and at zero latency the event
      // schedule must be bit-identical, which doubles as the strongest
      // whole-system correctness check the B+-tree can get.
      std::printf("running the paged-store arm (page_io_latency=0)...\n");
      store_on = RunScenarioProbe(scale, seed, /*batched_refresh=*/true,
                                  /*trace_sample=*/0,
                                  /*telemetry=*/false, /*paged=*/true);
      const uint64_t accesses = store_on.store_hits + store_on.store_faults;
      std::printf("  wall %.1fs (map: %.1fs, overhead %.1f%%), hit rate "
                  "%.4f (%llu hits, %llu faults), audits %s, replay %s\n",
                  store_on.wall_seconds, probe.wall_seconds,
                  probe.wall_seconds > 0.0
                      ? (store_on.wall_seconds / probe.wall_seconds - 1.0) *
                            100.0
                      : 0.0,
                  accesses > 0 ? static_cast<double>(store_on.store_hits) /
                                     static_cast<double>(accesses)
                               : 1.0,
                  static_cast<unsigned long long>(store_on.store_hits),
                  static_cast<unsigned long long>(store_on.store_faults),
                  store_on.ok ? "green" : "VIOLATED",
                  store_on.events == probe.events ? "identical" : "DIVERGED");
    }
  }

  std::ostringstream json;
  json << "{\n  \"schema\": 1,\n  \"micro\": {\n";
  json << "    \"events_per_sec\": " << static_cast<uint64_t>(
              micro.events_per_sec) << ",\n";
  json << "    \"sends_per_sec\": " << static_cast<uint64_t>(
              micro.sends_per_sec) << ",\n";
  json << "    \"timer_fires_per_sec\": " << static_cast<uint64_t>(
              micro.timer_fires_per_sec) << ",\n";
  json << "    \"timer_arm_cancel_per_sec\": " << static_cast<uint64_t>(
              micro.timer_arm_cancel_per_sec) << ",\n";
  json << "    \"peak_rss_kb\": " << micro.peak_rss_kb << "\n  }";
  if (probe.ran) {
    json << ",\n  \"scenario\": {\n";
    json << "    \"name\": \"long_churn\",\n    \"paper\": true,\n";
    json << "    \"scale\": " << probe.scale << ",\n";
    json << "    \"seed\": " << probe.seed << ",\n";
    json << "    \"fatal_audits_ok\": " << (probe.ok ? "true" : "false")
         << ",\n";
    json << "    \"wall_seconds\": " << probe.wall_seconds << ",\n";
    json << "    \"events\": " << probe.events << ",\n";
    json << "    \"events_per_sec\": "
         << static_cast<uint64_t>(static_cast<double>(probe.events) /
                                  probe.wall_seconds) << ",\n";
    json << "    \"messages\": " << probe.messages << ",\n";
    json << "    \"router\": {\n";
    AppendRouterJson(json, probe);
    json << "    },\n";
    if (baseline.ran) {
      json << "    \"router_baseline\": {\n";
      AppendRouterJson(json, baseline);
      json << "    },\n";
      json << "    \"router_baseline_audits_ok\": "
           << (baseline.ok ? "true" : "false") << ",\n";
      if (probe.refresh_msgs > 0) {
        json << "    \"router_refresh_reduction\": "
             << static_cast<double>(baseline.refresh_msgs) /
                    static_cast<double>(probe.refresh_msgs) << ",\n";
      }
      if (baseline.hops_mean > 0.0) {
        json << "    \"router_hops_ratio\": "
             << probe.hops_mean / baseline.hops_mean << ",\n";
      }
    }
    if (trace_on.ran) {
      json << "    \"trace\": {\n";
      json << "      \"off_wall_seconds\": " << probe.wall_seconds << ",\n";
      json << "      \"off_events_per_sec\": "
           << static_cast<uint64_t>(static_cast<double>(probe.events) /
                                    probe.wall_seconds) << ",\n";
      json << "      \"on_sample_every\": " << trace_sample << ",\n";
      json << "      \"on_wall_seconds\": " << trace_on.wall_seconds << ",\n";
      json << "      \"on_events_per_sec\": "
           << static_cast<uint64_t>(static_cast<double>(trace_on.events) /
                                    trace_on.wall_seconds) << ",\n";
      json << "      \"on_records\": " << trace_on.trace_records << ",\n";
      json << "      \"on_audits_ok\": " << (trace_on.ok ? "true" : "false")
           << ",\n";
      json << "      \"replay_identical\": "
           << (trace_on.events == probe.events &&
               trace_on.messages == probe.messages
                   ? "true"
                   : "false") << ",\n";
      json << "      \"overhead_ratio\": "
           << (probe.wall_seconds > 0.0
                   ? trace_on.wall_seconds / probe.wall_seconds
                   : 0.0) << "\n";
      json << "    },\n";
    }
    if (telemetry_on.ran) {
      json << "    \"telemetry\": {\n";
      json << "      \"off_wall_seconds\": " << probe.wall_seconds << ",\n";
      json << "      \"off_events_per_sec\": "
           << static_cast<uint64_t>(static_cast<double>(probe.events) /
                                    probe.wall_seconds) << ",\n";
      json << "      \"on_wall_seconds\": " << telemetry_on.wall_seconds
           << ",\n";
      json << "      \"on_events_per_sec\": "
           << static_cast<uint64_t>(
                  static_cast<double>(telemetry_on.events) /
                  telemetry_on.wall_seconds) << ",\n";
      json << "      \"on_audits_ok\": "
           << (telemetry_on.ok ? "true" : "false") << ",\n";
      json << "      \"replay_identical\": "
           << (telemetry_on.events == probe.events &&
               telemetry_on.messages == probe.messages
                   ? "true"
                   : "false") << ",\n";
      json << "      \"overhead_ratio\": "
           << (probe.wall_seconds > 0.0
                   ? telemetry_on.wall_seconds / probe.wall_seconds
                   : 0.0) << "\n";
      json << "    },\n";
    }
    if (store_on.ran) {
      const uint64_t accesses = store_on.store_hits + store_on.store_faults;
      json << "    \"store\": {\n";
      json << "      \"backend\": \"paged\",\n";
      json << "      \"page_io_latency\": 0,\n";
      json << "      \"off_wall_seconds\": " << probe.wall_seconds << ",\n";
      json << "      \"off_events_per_sec\": "
           << static_cast<uint64_t>(static_cast<double>(probe.events) /
                                    probe.wall_seconds) << ",\n";
      json << "      \"on_wall_seconds\": " << store_on.wall_seconds
           << ",\n";
      json << "      \"on_events_per_sec\": "
           << static_cast<uint64_t>(static_cast<double>(store_on.events) /
                                    store_on.wall_seconds) << ",\n";
      json << "      \"buffer_hits\": " << store_on.store_hits << ",\n";
      json << "      \"buffer_faults\": " << store_on.store_faults << ",\n";
      json << "      \"hit_rate\": "
           << (accesses > 0 ? static_cast<double>(store_on.store_hits) /
                                  static_cast<double>(accesses)
                            : 1.0) << ",\n";
      json << "      \"on_audits_ok\": " << (store_on.ok ? "true" : "false")
           << ",\n";
      json << "      \"replay_identical\": "
           << (store_on.events == probe.events &&
               store_on.messages == probe.messages
                   ? "true"
                   : "false") << ",\n";
      json << "      \"overhead_ratio\": "
           << (probe.wall_seconds > 0.0
                   ? store_on.wall_seconds / probe.wall_seconds
                   : 0.0) << "\n";
      json << "    },\n";
    }
    json << "    \"peak_rss_kb\": " << pepper::bench::PeakRssKb()
         << "\n  }";
  }
  json << "\n}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << json.str();
  std::printf("report written to %s\n", out_path.c_str());
  const bool violations =
      (probe.ran && !probe.ok) || (baseline.ran && !baseline.ok) ||
      (trace_on.ran && !trace_on.ok) ||
      (telemetry_on.ran && !telemetry_on.ok) ||
      (store_on.ran && !store_on.ok);
  return violations ? 1 : 0;
}
