// scenario_runner: executes the declarative stress scenarios of
// src/scenario/ against a simulated PEPPER cluster, with the probe round
// (ring, oracle, conservation, router, store and SLO probes; health when
// armed) after every phase and per-phase telemetry dumped as text or CSV.
// Every probe finding fails the run; the bounds a probe checks (latency
// SLOs, the buffer-pool hit-rate floor) are declared by the scenario.
//
//   scenario_runner --list
//   scenario_runner --scenario=long_churn [--seed=N] [--scale=F] [--paper]
//                   [--csv=FILE] [--fatal-audits] [--trace=FILE]
//                   [--health] [--timeline=FILE] [--quiet]
//
// Exit status: 0 on a clean run, 1 on probe findings, 2 on usage errors
// (an unknown flag, or a numeric value that does not parse in full).

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "scenario/builtin_scenarios.h"
#include "scenario/scenario_runner.h"

namespace {

using pepper::scenario::BuiltinParams;
using pepper::scenario::BuiltinScenarios;
using pepper::scenario::MakeBuiltin;
using pepper::scenario::RunnerOptions;
using pepper::scenario::RunReport;
using pepper::scenario::ScenarioRunner;
namespace sim = pepper::sim;

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

// Whole-string numeric parses: junk, a sign on an unsigned value or
// trailing characters fail rather than read as 0 or a prefix.
bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && errno == 0 && end == text.c_str() + text.size();
}

bool ParseNumber(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && end == text.c_str() + text.size();
}

int InvalidValue(const char* flag, const std::string& value) {
  std::fprintf(stderr, "invalid value for %s: '%s'\n", flag, value.c_str());
  return 2;
}

void PrintUsage() {
  std::printf(
      "usage: scenario_runner --list | --scenario=NAME [options]\n"
      "  --list          list built-in scenarios\n"
      "  --scenario=NAME run the named scenario\n"
      "  --seed=N        cluster seed (default 42)\n"
      "  --scale=F       duration/wave scale factor (default 1.0)\n"
      "  --paper         paper-scale cluster timers (Section 6.1 defaults)\n"
      "  --shards=N      partition the nodes over N simulator cores, run\n"
      "                  one after another on one thread in conservative-\n"
      "                  lookahead windows (default 0 = one core, same as\n"
      "                  1; results are bit-identical for any N)\n"
      "  --store=BACKEND item-store backend: map (default, in-memory) or\n"
      "                  paged (page arena + bounded buffer pool + per-arc\n"
      "                  B+-tree); at --page-io-latency=0 both replay\n"
      "                  bit-identically\n"
      "  --page-io-latency=US\n"
      "                  simulated latency per page fault / write-back in\n"
      "                  microseconds (default 0; paged backend only)\n"
      "  --pool-pages=N  buffer-pool frames per peer (default 64)\n"
      "  --pool-fifo     FIFO page replacement instead of the default LRU\n"
      "  --items-scale=F multiply the seed-item count and the storage\n"
      "                  factor by F (10-100x turns any scenario into a\n"
      "                  big-data run)\n"
      "  --csv=FILE      write the per-phase metrics dump as CSV\n"
      "  --fatal-audits  stop after the first phase with a probe finding\n"
      "                  (any finding fails the run either way)\n"
      "  --timing        per-phase wall-clock and events/sec in the text\n"
      "                  report and as perf.* counters in the CSV dump,\n"
      "                  with the engine's windows and events per 1k\n"
      "                  windows (non-deterministic rows; leave off for\n"
      "                  replay comparisons)\n"
      "  --trace=FILE    enable causal tracing and write the flight\n"
      "                  recorder as Chrome-trace JSON (loads in Perfetto /\n"
      "                  chrome://tracing); on a failing probe the causal\n"
      "                  dump of the offending item is printed to stderr\n"
      "  --trace-sample=N\n"
      "                  sample 1-in-N root operations (default 1: all)\n"
      "  --trace-filter=PREFIX\n"
      "                  export only traces whose root op name starts with\n"
      "                  PREFIX (e.g. router. or ring.) — bounds the trace\n"
      "                  file without changing what was recorded\n"
      "  --timeline=FILE write the windowed telemetry timeline as JSON and\n"
      "                  add per-phase top-5 hot-arc lines to the text\n"
      "                  report (schedule-invisible, byte-identical at any\n"
      "                  --shards)\n"
      "  --telemetry-window=S\n"
      "                  telemetry window length in (fractional) seconds\n"
      "                  (default 5)\n"
      "  --health        arm the deterministic health probes (timeout\n"
      "                  anomalies, router refresh stalls), checked at every\n"
      "                  telemetry-window boundary and after each phase; a\n"
      "                  finding fails the run like any probe\n"
      "  --quiet         suppress the text report\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false;
  bool paper = false;
  bool fatal = false;
  bool timing = false;
  bool quiet = false;
  bool health = false;
  std::string scenario_name;
  std::string csv_path;
  std::string trace_path;
  std::string trace_filter;
  std::string timeline_path;
  uint64_t seed = 42;
  uint64_t trace_sample = 1;
  double scale = 1.0;
  double items_scale = 1.0;
  std::string store_backend = "map";
  uint64_t page_io_latency = 0;
  uint64_t pool_pages = 0;
  bool pool_fifo = false;
  sim::SimTime telemetry_window = 0;  // 0: the cluster default
  uint64_t shards = 0;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--list") == 0) {
      list = true;
    } else if (std::strcmp(argv[i], "--paper") == 0) {
      paper = true;
    } else if (std::strcmp(argv[i], "--fatal-audits") == 0) {
      fatal = true;
    } else if (std::strcmp(argv[i], "--timing") == 0) {
      timing = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(argv[i], "--health") == 0) {
      health = true;
    } else if (std::strcmp(argv[i], "--pool-fifo") == 0) {
      pool_fifo = true;
    } else if (ParseFlag(argv[i], "--scenario", &value)) {
      scenario_name = value;
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      if (!ParseNumber(value, &seed)) return InvalidValue("--seed", value);
    } else if (ParseFlag(argv[i], "--scale", &value)) {
      if (!ParseNumber(value, &scale) || !(scale > 0.0)) {
        return InvalidValue("--scale", value);
      }
    } else if (ParseFlag(argv[i], "--store", &value)) {
      store_backend = value;
    } else if (ParseFlag(argv[i], "--page-io-latency", &value)) {
      if (!ParseNumber(value, &page_io_latency)) {
        return InvalidValue("--page-io-latency", value);
      }
    } else if (ParseFlag(argv[i], "--pool-pages", &value)) {
      if (!ParseNumber(value, &pool_pages)) {
        return InvalidValue("--pool-pages", value);
      }
    } else if (ParseFlag(argv[i], "--items-scale", &value)) {
      if (!ParseNumber(value, &items_scale) || !(items_scale > 0.0)) {
        return InvalidValue("--items-scale", value);
      }
    } else if (ParseFlag(argv[i], "--shards", &value)) {
      if (!ParseNumber(value, &shards) || shards > UINT32_MAX) {
        return InvalidValue("--shards", value);
      }
    } else if (ParseFlag(argv[i], "--csv", &value)) {
      csv_path = value;
    } else if (ParseFlag(argv[i], "--trace", &value)) {
      trace_path = value;
    } else if (ParseFlag(argv[i], "--trace-sample", &value)) {
      if (!ParseNumber(value, &trace_sample)) {
        return InvalidValue("--trace-sample", value);
      }
      if (trace_sample == 0) trace_sample = 1;
    } else if (ParseFlag(argv[i], "--trace-filter", &value)) {
      trace_filter = value;
    } else if (ParseFlag(argv[i], "--timeline", &value)) {
      timeline_path = value;
    } else if (ParseFlag(argv[i], "--telemetry-window", &value)) {
      double seconds = 0.0;
      if (!ParseNumber(value, &seconds) ||
          !(seconds * static_cast<double>(sim::kSecond) >= 1.0)) {
        return InvalidValue("--telemetry-window", value);
      }
      telemetry_window = static_cast<sim::SimTime>(
          seconds * static_cast<double>(sim::kSecond));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      PrintUsage();
      return 2;
    }
  }

  if (list) {
    std::printf("built-in scenarios:\n");
    for (const auto& s : BuiltinScenarios()) {
      std::printf("  %-18s %s\n", s.name.c_str(), s.description.c_str());
    }
    return 0;
  }
  if (scenario_name.empty()) {
    PrintUsage();
    return 2;
  }

  BuiltinParams params;
  params.scale = scale;
  auto scenario = MakeBuiltin(scenario_name, params);
  if (!scenario.has_value()) {
    std::fprintf(stderr, "unknown scenario: %s (try --list)\n",
                 scenario_name.c_str());
    return 2;
  }

  RunnerOptions options;
  options.cluster = paper ? pepper::workload::ClusterOptions::PaperDefaults()
                          : pepper::workload::ClusterOptions::FastDefaults();
  options.cluster.seed = seed;
  options.cluster.shards = static_cast<uint32_t>(shards);
  options.initial_free_peers = 10;
  options.seed_items = 40;
  if (store_backend == "paged") {
    options.cluster.ds.store.backend = pepper::store::StoreBackend::kPaged;
  } else if (store_backend != "map") {
    std::fprintf(stderr, "unknown --store backend: %s (map|paged)\n",
                 store_backend.c_str());
    return 2;
  }
  options.cluster.ds.store.page_io_latency = page_io_latency;
  if (pool_pages > 0) {
    options.cluster.ds.store.buffer_pool_pages =
        static_cast<size_t>(pool_pages);
  }
  if (pool_fifo) {
    options.cluster.ds.store.replacement =
        pepper::store::ReplacementPolicy::kFifo;
  }
  if (items_scale > 1.0) {
    options.seed_items = static_cast<size_t>(
        static_cast<double>(options.seed_items) * items_scale);
    options.cluster.ds.storage_factor = static_cast<size_t>(
        static_cast<double>(options.cluster.ds.storage_factor) * items_scale);
  }
  options.fatal_probes = fatal;
  options.timing = timing;
  options.cluster.trace = !trace_path.empty();
  options.cluster.trace_sample_every = trace_sample;
  options.health_probes = health;
  options.timeline = !timeline_path.empty();
  if (telemetry_window > 0) {
    options.cluster.telemetry_window = telemetry_window;
  }
  if (paper) {
    // Paper timers are ~20x slower than FastDefaults; give reorganizations
    // a commensurate drain window before each probe round.
    options.probe_settle = 40 * sim::kSecond;
  }

  ScenarioRunner runner(options);
  const RunReport report = runner.Run(*scenario);

  if (!quiet) std::printf("%s", report.Text().c_str());
  if (!trace_path.empty() && runner.cluster() != nullptr) {
    std::ofstream trace_out(trace_path);
    if (!trace_out) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 2;
    }
    trace_out << runner.cluster()->sim().tracer().ChromeTraceJson(trace_filter);
    std::printf("trace written to %s (%zu records, %llu dropped)\n",
                trace_path.c_str(),
                runner.cluster()->sim().tracer().record_count(),
                static_cast<unsigned long long>(
                    runner.cluster()->sim().tracer().records_dropped()));
  }
  if (!report.trace_dump.empty()) {
    std::fprintf(stderr, "--- flight recorder (audit failure) ---\n%s",
                 report.trace_dump.c_str());
  }
  if (!timeline_path.empty()) {
    std::ofstream timeline_out(timeline_path);
    if (!timeline_out) {
      std::fprintf(stderr, "cannot write %s\n", timeline_path.c_str());
      return 2;
    }
    timeline_out << report.timeline_json;
    std::printf("timeline written to %s\n", timeline_path.c_str());
  }
  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    if (!csv) {
      std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
      return 2;
    }
    csv << report.Csv();
    std::printf("metrics CSV written to %s\n", csv_path.c_str());
  }
  std::printf("scenario %s: %s\n", report.scenario.c_str(),
              report.ok ? "OK" : "PROBE VIOLATIONS");
  return report.ok ? 0 : 1;
}
