// Micro-benchmarks (google-benchmark) for the hot data structures under the
// protocols: successor-list stabilization updates, circular range
// arithmetic, the event queue, and the deterministic RNG.

#include <benchmark/benchmark.h>

#include "common/key_space.h"
#include "ring/succ_list.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace pepper {
namespace {

ring::SuccList MakeList(size_t n) {
  std::vector<ring::SuccEntry> entries;
  for (size_t i = 0; i < n; ++i) {
    entries.push_back(ring::SuccEntry{static_cast<sim::NodeId>(i + 1),
                                      static_cast<Key>((i + 1) * 100),
                                      ring::PeerState::kJoined, false});
  }
  return ring::SuccList(std::move(entries));
}

void BM_SuccListBuildFromStabilization(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  ring::SuccList old_list = MakeList(window);
  ring::SuccList received = MakeList(window);
  ring::SuccEntry target{1, 100, ring::PeerState::kJoined, false};
  for (auto _ : state) {
    auto out = ring::SuccList::BuildFromStabilization(old_list, target,
                                                      received, 999, false,
                                                      window);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SuccListBuildFromStabilization)->Arg(4)->Arg(8)->Arg(16);

void BM_SuccListComputeAcks(benchmark::State& state) {
  ring::SuccList list = MakeList(static_cast<size_t>(state.range(0)));
  list.mutable_entries()[list.size() - 1].state = ring::PeerState::kJoining;
  for (auto _ : state) {
    auto acks = list.ComputeAcks();
    benchmark::DoNotOptimize(acks);
  }
}
BENCHMARK(BM_SuccListComputeAcks)->Arg(4)->Arg(16);

void BM_RingRangeIntersect(benchmark::State& state) {
  auto wrap = RingRange::OpenClosed(900000, 100000);
  Span span{0, 1000000};
  for (auto _ : state) {
    auto pieces = wrap.IntersectClosed(span);
    benchmark::DoNotOptimize(pieces);
  }
}
BENCHMARK(BM_RingRangeIntersect);

void BM_SpanCoverageAssembly(benchmark::State& state) {
  const int pieces = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SpanCoverage cov(Span{0, 1000000});
    for (int i = 0; i < pieces; ++i) {
      const Key lo = static_cast<Key>(i) * (1000000 / pieces);
      const Key hi = (i == pieces - 1)
                         ? 1000000
                         : static_cast<Key>(i + 1) * (1000000 / pieces) - 1;
      cov.Add(Span{lo, hi});
    }
    benchmark::DoNotOptimize(cov.Complete());
  }
}
BENCHMARK(BM_SpanCoverageAssembly)->Arg(8)->Arg(32)->Arg(128);

void BM_EventQueuePushPop(benchmark::State& state) {
  // One queue across iterations so the arena reaches steady state (slots
  // recycled through the free list instead of growing the pool).
  sim::EventQueue q;
  uint64_t seq = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      q.PushClosureSeq(static_cast<sim::SimTime>((i * 7919) % 1000), seq++,
                       sim::kNullNode, [] {});
    }
    while (!q.Empty()) benchmark::DoNotOptimize(q.PopEvent());
  }
}
BENCHMARK(BM_EventQueuePushPop);

void BM_RngNext(benchmark::State& state) {
  sim::Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RngNext);

}  // namespace
}  // namespace pepper

BENCHMARK_MAIN();
