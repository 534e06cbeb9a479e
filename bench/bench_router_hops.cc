// Ablation A3: content-router scaling — mean lookup hops vs ring size, for
// the hierarchical (P-Ring style) router against the linear successor walk,
// with the HRF refresh maintenance cost (GetLevels requests + replies).
// Supports the paper's premise that an order-preserving O(log n) router
// finds the first peer of a range — and that its pointer maintenance can
// ride the staleness tolerance cheaply.  The batched-vs-per-level refresh
// A/B is recorded in BENCH_simcore.json's note: at long_churn --paper
// --scale=20, seed 42, batched GetLevels with adaptive cadence sent 4.60x
// fewer refresh messages than the per-level GetEntry chain, at a hops ratio
// of 0.976.

#include <memory>

#include "bench_util.h"

namespace pepper::bench {
namespace {

constexpr Key kKeySpan = 1000000;

struct RouterRun {
  double hops_mean = 0.0;
  uint64_t refresh_msgs = 0;  // GetLevels requests + replies
};

RouterRun RunOnce(size_t peers, bool use_hrf, uint64_t seed) {
  workload::ClusterOptions o = workload::ClusterOptions::FastDefaults();
  o.seed = seed;
  o.use_hrf_router = use_hrf;
  workload::Cluster c(o);
  GrowTo(c, peers, seed, kKeySpan);
  c.RunFor(10 * sim::kSecond);  // build routing levels

  auto members = c.LiveMembers();
  sim::Rng rng(seed * 5 + 1);
  Histogram hops;
  for (int i = 0; i < 60; ++i) {
    workload::PeerStack* via = members[rng.Uniform(0, members.size() - 1)];
    struct R {
      bool done = false;
      Status status = Status::Internal("pending");
      int hops = 0;
    };
    auto res = std::make_shared<R>();
    via->router->Lookup(rng.Uniform(0, kKeySpan),
                        [res](const Status& s, sim::NodeId, int h) {
                          res->done = true;
                          res->status = s;
                          res->hops = h;
                        });
    const sim::SimTime give_up = c.sim().now() + 20 * sim::kSecond;
    while (!res->done && c.sim().now() < give_up) {
      if (!c.sim().Step()) break;
    }
    if (res->done && res->status.ok()) hops.Add(res->hops);
  }
  RouterRun run;
  run.hops_mean = hops.mean();
  run.refresh_msgs = c.metrics().counters().Get("router.refresh_rpcs") +
                     c.metrics().counters().Get("router.refresh_replies");
  return run;
}

}  // namespace
}  // namespace pepper::bench

int main() {
  using namespace pepper::bench;
  PrintHeader("Ablation A3: mean lookup hops vs ring size",
              {"peers", "linear_router", "hrf_batched", "refresh_batched"});
  for (size_t n : {10, 20, 40, 60, 80}) {
    const RouterRun linear = RunOnce(n, /*use_hrf=*/false, 700 + n);
    const RouterRun hrf = RunOnce(n, /*use_hrf=*/true, 700 + n);
    PrintRow({static_cast<double>(n), linear.hops_mean, hrf.hops_mean,
              static_cast<double>(hrf.refresh_msgs)});
  }
  std::printf(
      "\nExpected shape: linear grows ~n/2; the hierarchical router stays\n"
      "~log2(n) (the crossover is immediate and widens with scale).\n");
  return 0;
}
