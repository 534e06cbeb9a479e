#include "scenario/builtin_scenarios.h"

#include <cmath>

namespace pepper::scenario {

namespace {

sim::SimTime Sec(double seconds, const BuiltinParams& p) {
  return static_cast<sim::SimTime>(seconds * p.scale *
                                   static_cast<double>(sim::kSecond));
}

size_t Count(double n, const BuiltinParams& p) {
  return static_cast<size_t>(std::ceil(n * p.scale));
}

// The Section 6.1 base load every scenario layers on: two items per second,
// a trickle of deletes, one free peer per 3 s, never below 4 live members.
workload::WorkloadOptions BaseLoad() {
  workload::WorkloadOptions w;
  w.insert_rate_per_sec = 2.0;
  w.delete_rate_per_sec = 0.25;
  w.peer_add_rate_per_sec = 1.0 / 3.0;
  w.fail_rate_per_sec = 0.0;
  w.min_live_members = 4;
  return w;
}

Scenario SteadyState(const BuiltinParams& p) {
  return ScenarioBuilder("steady_state")
      .Describe("baseline Section 6.1 load: Poisson inserts/deletes/joins, "
                "no failures")
      .BaseWorkload(BaseLoad())
      .Steady(Sec(60, p))
      .Quiesce(Sec(20, p))
      .Build();
}

Scenario JoinWaveScenario(const BuiltinParams& p) {
  return ScenarioBuilder("join_wave")
      .Describe("two aggressive free-peer waves split the ring while the "
                "base load keeps inserting")
      .BaseWorkload(BaseLoad())
      .Steady(Sec(20, p))
      .JoinWave(Count(15, p), 2.0)
      .Steady(Sec(20, p))
      .JoinWave(Count(15, p), 4.0)
      .Quiesce(Sec(20, p))
      .Build();
}

Scenario LongChurn(const BuiltinParams& p) {
  // Guardrail latency bounds, not tight SLAs: wide enough for churn-phase
  // retry tails (the insert deadline is 30 s of simulated time), tight
  // enough to catch a systematic routing or takeover stall the audits alone
  // would miss.
  SloBounds slo;
  slo.insert_p50 = 0.5;
  slo.insert_p99 = 30;
  slo.insert_p999 = 120;
  slo.query_p50 = 2;
  slo.query_p99 = 60;
  slo.query_p999 = 120;
  return ScenarioBuilder("long_churn")
      .Describe("sustained failure-mode churn (the nightly property run): "
                "failures race joins, merges and takeovers for a long "
                "stretch of simulated time")
      .Slo(slo)
      .BaseWorkload(BaseLoad())
      .Steady(Sec(30, p))
      .Churn(/*fail_rate_per_sec=*/0.05, /*join_rate_per_sec=*/1.0 / 3.0,
             Sec(240, p))
      .Quiesce(Sec(30, p))
      .Build();
}

Scenario FailureStorm(const BuiltinParams& p) {
  return ScenarioBuilder("failure_storm")
      .Describe("a burst of failures faster than replacements arrive, then "
                "a recovery wave")
      .BaseWorkload(BaseLoad())
      .Steady(Sec(30, p))
      .Churn(/*fail_rate_per_sec=*/0.2, /*join_rate_per_sec=*/0.1,
             Sec(60, p))
      .JoinWave(Count(10, p), 1.0)
      .Quiesce(Sec(30, p))
      .Build();
}

Scenario FlashCrowdScenario(const BuiltinParams& p) {
  return ScenarioBuilder("flash_crowd")
      .Describe("zipf-skewed inserts plus an oracle-audited range-query "
                "burst against the hot arc")
      .BaseWorkload(BaseLoad())
      .Steady(Sec(30, p))
      .FlashCrowd(/*zipf_theta=*/0.95, /*query_rate_per_sec=*/2.0,
                  Sec(60, p))
      .Quiesce(Sec(20, p))
      .Build();
}

Scenario MassLeaveScenario(const BuiltinParams& p) {
  return ScenarioBuilder("mass_leave")
      .Describe("40% of the membership departs gracefully at once; the "
                "survivors absorb every range and item")
      .BaseWorkload(BaseLoad())
      .Steady(Sec(40, p))
      .MassLeave(/*fraction=*/0.4, Sec(60, p))
      .Quiesce(Sec(20, p))
      .Build();
}

Scenario FreePeerDroughtScenario(const BuiltinParams& p) {
  return ScenarioBuilder("free_peer_drought")
      .Describe("the free-peer directory runs dry while inserts keep "
                "landing: overflows stall, then clear when peers return")
      .BaseWorkload(BaseLoad())
      .Steady(Sec(20, p))
      .FreePeerDrought(Sec(60, p))
      .Steady(Sec(30, p))
      .Quiesce(Sec(20, p))
      .Build();
}

Scenario HotspotShiftScenario(const BuiltinParams& p) {
  return ScenarioBuilder("hotspot_shift")
      .Describe("the zipf hotspot jumps across the ring twice; storage "
                "balance chases it")
      .BaseWorkload(BaseLoad())
      .Steady(Sec(20, p))
      .HotspotShift(/*hotspot_offset=*/0, Sec(40, p))
      .HotspotShift(/*hotspot_offset=*/500000, Sec(40, p))
      .HotspotShift(/*hotspot_offset=*/250000, Sec(40, p))
      .Quiesce(Sec(20, p))
      .Build();
}

Scenario RollingUpgrade(const BuiltinParams& p) {
  ScenarioBuilder builder("rolling_upgrade");
  builder
      .Describe("a rolling fleet restart under load: three graceful "
                "departure waves, each followed by a replacement join wave "
                "— every wave re-chains the replica groups")
      .BaseWorkload(BaseLoad())
      .Steady(Sec(30, p));
  for (int wave = 0; wave < 3; ++wave) {
    builder.MassLeave(/*fraction=*/0.25, Sec(30, p))
        .JoinWave(Count(8, p), 1.0)
        .Steady(Sec(10, p));
  }
  builder.Quiesce(Sec(20, p));
  return builder.Build();
}

Scenario SlowPeerScenario(const BuiltinParams& p) {
  ScenarioBuilder builder("slow_peer");
  builder
      .Describe("gray failure: one live member's service queue slows to a "
                "crawl mid-run — callers time out on it while its own calls "
                "still succeed — until the operator replaces the zombie the "
                "health probe named")
      .BaseWorkload(BaseLoad())
      .Steady(Sec(20, p));

  workload::WorkloadOptions degraded = BaseLoad();
  degraded.query_rate_per_sec = 1.0;  // audited queries keep hitting its arc
  Phase degrade;
  degrade.name = "degrade";
  degrade.duration = Sec(40, p);
  degrade.workload = degraded;
  // The victim's predecessor takes its arc over within a ping period, but
  // the zombie keeps announcing itself (its own requests are undelayed) and
  // keeps its items — double ownership and a stale ring view are the
  // injected condition under study, so the end-of-phase structural audits
  // would only re-report the injection.  Health probes still run: the
  // timeout-anomaly stream from the re-adopt/evict cycle is the signal.
  degrade.skip_probes = true;
  degrade.on_enter = [](workload::Cluster& cluster, sim::Rng& rng) {
    // Deterministic victim: the scenario stream picks a live member, and
    // the node id lands in `wl.slow_peer_node` so reports and tests can
    // name it.  2 s of service-queue delay dwarfs every RPC timeout at
    // both timer scales, so every request to the victim times out.
    std::vector<workload::PeerStack*> live = cluster.LiveMembers();
    if (live.empty()) return;
    workload::PeerStack* victim =
        live[static_cast<size_t>(rng.Uniform(0, live.size() - 1))];
    cluster.metrics().counters().Inc("wl.slow_peer_node", victim->id());
    cluster.sim().network().set_node_extra_delay(victim->id(),
                                                 2 * sim::kSecond);
  };
  builder.AddPhase(std::move(degrade));

  Phase replace;
  replace.name = "replace";
  replace.duration = Sec(20, p);
  replace.workload = BaseLoad();
  replace.on_enter = [](workload::Cluster& cluster, sim::Rng&) {
    // The operator playbook: ring identities are single-use, so a flagged
    // gray peer is replaced, not revived — kill the zombie (its arc was
    // already taken over) and let the free pool supply fresh capacity.
    // Lift the delay from everyone rather than re-deriving the victim.
    for (const auto& peer : cluster.peers()) {
      cluster.sim().network().set_node_extra_delay(peer->id(), 0);
    }
    const sim::NodeId victim = static_cast<sim::NodeId>(
        cluster.metrics().counters().Get("wl.slow_peer_node"));
    for (const auto& peer : cluster.peers()) {
      if (peer->id() == victim && peer->ring->alive()) {
        cluster.FailPeer(peer.get());
        break;
      }
    }
  };
  builder.AddPhase(std::move(replace));

  builder.Quiesce(Sec(20, p));
  return builder.Build();
}

Scenario BigDataScenario(const BuiltinParams& p) {
  // Storage-engine stress: an order-of-magnitude insert torrent (10x the
  // Section 6.1 base rate) grows every arc's item set far past the default
  // storage factor, then audited range queries sweep the arcs end to end.
  // Run with --items-scale / --store=paged / --pool-pages to push each
  // peer's working set through a bounded buffer pool; the declared hit-rate
  // floor pins that the pool serves the load without thrashing (the
  // in-memory store counts every access as a hit, so it holds trivially
  // there).
  workload::WorkloadOptions heavy = BaseLoad();
  heavy.insert_rate_per_sec = 20.0;
  heavy.delete_rate_per_sec = 1.0;
  heavy.peer_add_rate_per_sec = 1.0;  // splits need a steady free-peer supply
  return ScenarioBuilder("big_data")
      .Describe("storage-heavy paged-store stress: a 10x insert torrent "
                "grows every arc's tree, then audited range queries sweep "
                "the items back through the bounded buffer pool")
      .MinStoreHitRate(0.5)
      .BaseWorkload(heavy)
      .Steady(Sec(40, p))
      .FlashCrowd(/*zipf_theta=*/0.5, /*query_rate_per_sec=*/2.0, Sec(40, p))
      .Steady(Sec(20, p))
      .Quiesce(Sec(20, p))
      .Build();
}

Scenario ReplicaStorm(const BuiltinParams& p) {
  return ScenarioBuilder("replica_storm")
      .Describe("failure bursts racing the replication refresh: rapid "
                "successor churn stresses delta pushes, chain resets, "
                "chain mending and pull-based revive; availability "
                "stays a fatal audit")
      .BaseWorkload(BaseLoad())
      .Steady(Sec(30, p))
      .Churn(/*fail_rate_per_sec=*/0.1, /*join_rate_per_sec=*/0.5,
             Sec(45, p))
      .Steady(Sec(10, p))
      .Churn(/*fail_rate_per_sec=*/0.15, /*join_rate_per_sec=*/0.5,
             Sec(45, p))
      .JoinWave(Count(8, p), 2.0)
      .Quiesce(Sec(30, p))
      .Build();
}

}  // namespace

const std::vector<BuiltinScenario>& BuiltinScenarios() {
  static const std::vector<BuiltinScenario> kScenarios = {
      {"steady_state", "baseline Poisson load, no failures", &SteadyState},
      {"join_wave", "aggressive join waves under load", &JoinWaveScenario},
      {"long_churn", "sustained failure-mode churn (nightly property run)",
       &LongChurn},
      {"failure_storm", "failure burst outpacing replacements, then recovery",
       &FailureStorm},
      {"flash_crowd", "zipf hotspot + audited range-query burst",
       &FlashCrowdScenario},
      {"mass_leave", "40% graceful mass departure", &MassLeaveScenario},
      {"free_peer_drought", "no free peers while overflows pile up",
       &FreePeerDroughtScenario},
      {"hotspot_shift", "zipf hotspot migrating across the ring",
       &HotspotShiftScenario},
      {"rolling_upgrade", "three graceful leave waves with replacement joins",
       &RollingUpgrade},
      {"replica_storm",
       "failure bursts racing the replication refresh (revive stress)",
       &ReplicaStorm},
      {"big_data",
       "10x insert torrent + range-query sweeps (paged-store stress)",
       &BigDataScenario},
      {"slow_peer",
       "one member turns slow-but-alive (gray failure); the flagged zombie "
       "is replaced",
       &SlowPeerScenario},
  };
  return kScenarios;
}

std::optional<Scenario> MakeBuiltin(const std::string& name,
                                    const BuiltinParams& params) {
  for (const auto& s : BuiltinScenarios()) {
    if (s.name == name) return s.make(params);
  }
  return std::nullopt;
}

}  // namespace pepper::scenario
