// Micro-benchmarks for the simulator core, run by
// bench/bench_sim_core.cc.  Each measurement builds a fresh Simulator,
// drives a synthetic steady-state workload through one hot path, and
// reports operations per second of wall clock.
//
// The send benchmark runs the network in fixed-latency mode
// (min_latency == max_latency), which skips the per-message RNG draw —
// the same fast path production configs with degenerate latency ranges
// take.  Throughput numbers are wall-clock measurements and therefore NOT
// deterministic; everything the simulators compute is.

#ifndef PEPPER_BENCH_SIM_CORE_MICROBENCH_H_
#define PEPPER_BENCH_SIM_CORE_MICROBENCH_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/node.h"
#include "sim/simulator.h"

namespace pepper::bench {

struct SimCoreMicroResults {
  double events_per_sec = 0.0;       // closure events through the arena
  double sends_per_sec = 0.0;        // Network::Send + delivery, fixed latency
  double timer_fires_per_sec = 0.0;  // timer-heap tick throughput
  double timer_arm_cancel_per_sec = 0.0;  // arm+cancel churn
  uint64_t peak_rss_kb = 0;          // getrusage high-water mark
};

namespace detail {

inline double SecondsSince(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct FloodPayload : sim::Payload {
  uint32_t bounce = 0;
};

// A node that returns every FloodPayload to its sender until the shared
// budget is exhausted — a two-node message ping keeps one send and one
// delivery in flight per step, the pure Network::Send hot path.
class FloodNode : public sim::Node {
 public:
  FloodNode(sim::Simulator* sim, uint64_t* budget) : sim::Node(sim) {
    On<FloodPayload>([this, budget](const sim::Message& m,
                                    const FloodPayload& p) {
      if (*budget == 0) return;
      --*budget;
      auto reply = std::make_shared<FloodPayload>();
      reply->bounce = p.bounce + 1;
      Send(m.from, std::move(reply));
    });
  }
};

}  // namespace detail

// Events/sec: `chains` self-rescheduling node closures, `total` events
// overall.  Exercises arena allocate/recycle, the 4-ary heap, and closure
// dispatch (node events live in the engine core's arena; control closures
// would measure the barrier heap instead).
inline double MeasureEventThroughput(uint64_t total, int chains = 64) {
  sim::Simulator sim(1);
  sim::Node node(&sim);
  uint64_t remaining = total;
  struct Chain {
    sim::Node* node;
    uint64_t* remaining;
    void operator()() const {
      if (*remaining == 0) return;
      --*remaining;
      node->After(10, *this);
    }
  };
  sim.PostToNode(node.id(), [&node, &remaining, chains] {
    for (int c = 0; c < chains; ++c) {
      node.After(1 + c, Chain{&node, &remaining});
    }
  });
  const auto start = std::chrono::steady_clock::now();
  while (remaining > 0 && sim.Step()) {
  }
  const double secs = detail::SecondsSince(start);
  return secs > 0 ? static_cast<double>(total) / secs : 0.0;
}

// Sends/sec through Network::Send in fixed-latency mode, including
// delivery and handler dispatch.
inline double MeasureSendThroughput(uint64_t total, int pairs = 8) {
  sim::NetworkOptions net;
  net.min_latency = sim::kMillisecond;  // min == max: no RNG draw per send
  net.max_latency = sim::kMillisecond;
  sim::Simulator sim(1, net);
  uint64_t budget = total;
  std::vector<std::unique_ptr<detail::FloodNode>> nodes;
  for (int i = 0; i < 2 * pairs; ++i) {
    nodes.push_back(std::make_unique<detail::FloodNode>(&sim, &budget));
  }
  const uint64_t sent_before = sim.network().messages_sent();
  for (int i = 0; i < pairs; ++i) {
    nodes[2 * i]->Send(nodes[2 * i + 1]->id(),
                       sim::MakePayload<detail::FloodPayload>());
  }
  const auto start = std::chrono::steady_clock::now();
  while (budget > 0 && sim.Step()) {
  }
  const double secs = detail::SecondsSince(start);
  const uint64_t sent = sim.network().messages_sent() - sent_before;
  return secs > 0 ? static_cast<double>(sent) / secs : 0.0;
}

// Timer fires/sec: `timers` periodic timers with staggered phases, run
// until `total` ticks executed.  Exercises the timer heap's fire and
// in-place re-key (one sift-down over `timers` entries per tick).
inline double MeasureTimerThroughput(uint64_t total, int timers = 4096) {
  sim::Simulator sim(1);
  sim::Node node(&sim);
  uint64_t fired = 0;
  for (int i = 0; i < timers; ++i) {
    // Periods spread over 1-4.6 ms, phases de-synchronized.
    const sim::SimTime period = 1000 + 37 * (i % 97);
    node.Every("bench.tick", period, [&fired] { ++fired; }, 1 + i % 1009);
  }
  const auto start = std::chrono::steady_clock::now();
  while (fired < total && sim.Step()) {
  }
  const double secs = detail::SecondsSince(start);
  return secs > 0 ? static_cast<double>(fired) / secs : 0.0;
}

// Arm+cancel pairs/sec: the churn path (a cancel unlinks the entry and
// recycles the record at once, so this also measures free-list reuse).
inline double MeasureArmCancelThroughput(uint64_t pairs) {
  sim::Simulator sim(1);
  sim::Node node(&sim);
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < pairs; ++i) {
    const uint64_t id =
        node.Every("bench.tick", 1000 + (i % 64) * 64, [] {}, 500);
    node.CancelTimer(id);
    if ((i & 1023) == 0) sim.RunFor(1);  // advance the clock now and then
  }
  sim.RunFor(100 * sim::kMillisecond);  // run out the simulation
  const double secs = detail::SecondsSince(start);
  return secs > 0 ? static_cast<double>(pairs) / secs : 0.0;
}

inline uint64_t PeakRssKb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss);
}

inline SimCoreMicroResults RunSimCoreMicrobench(bool quick = false) {
  SimCoreMicroResults r;
  const uint64_t scale = quick ? 1 : 8;
  r.events_per_sec = MeasureEventThroughput(scale * 1000 * 1000);
  r.sends_per_sec = MeasureSendThroughput(scale * 500 * 1000);
  r.timer_fires_per_sec = MeasureTimerThroughput(scale * 500 * 1000);
  r.timer_arm_cancel_per_sec = MeasureArmCancelThroughput(scale * 250 * 1000);
  r.peak_rss_kb = PeakRssKb();
  return r;
}

}  // namespace pepper::bench

#endif  // PEPPER_BENCH_SIM_CORE_MICROBENCH_H_
