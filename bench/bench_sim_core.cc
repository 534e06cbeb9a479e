// bench_sim_core: throughput of the simulator's allocation-free hot paths —
// pooled closure events, by-value message sends (fixed-latency mode, no
// per-message RNG draw), timer-heap fires, and timer arm/cancel churn —
// plus the process peak RSS.
//
//   bench_sim_core [--quick] [--json=FILE]
//
// Wall-clock throughput is machine-dependent; the simulated executions
// themselves are deterministic.  The nightly job compares the --json output
// against the micro block of BENCH_simcore.json (the tracked baseline) with
// tools/check_perf_regression.py.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "sim_core_microbench.h"

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: bench_sim_core [--quick] [--json=FILE]\n");
      return 2;
    }
  }

  const auto r = pepper::bench::RunSimCoreMicrobench(quick);
  std::printf("events/sec            %12.0f\n", r.events_per_sec);
  std::printf("sends/sec             %12.0f\n", r.sends_per_sec);
  std::printf("timer fires/sec       %12.0f\n", r.timer_fires_per_sec);
  std::printf("timer arm+cancel/sec  %12.0f\n", r.timer_arm_cancel_per_sec);
  std::printf("peak RSS              %9llu KB\n",
              static_cast<unsigned long long>(r.peak_rss_kb));

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\n"
                  "  \"events_per_sec\": %.0f,\n"
                  "  \"sends_per_sec\": %.0f,\n"
                  "  \"timer_fires_per_sec\": %.0f,\n"
                  "  \"timer_arm_cancel_per_sec\": %.0f,\n"
                  "  \"peak_rss_kb\": %llu\n"
                  "}\n",
                  r.events_per_sec, r.sends_per_sec, r.timer_fires_per_sec,
                  r.timer_arm_cancel_per_sec,
                  static_cast<unsigned long long>(r.peak_rss_kb));
    out << buf;
    std::printf("JSON written to %s\n", json_path.c_str());
  }
  return 0;
}
