#ifndef PEPPER_WORKLOAD_CLUSTER_H_
#define PEPPER_WORKLOAD_CLUSTER_H_

#include <memory>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "datastore/data_store_node.h"
#include "datastore/free_peer_pool.h"
#include "history/oracle.h"
#include "index/p2p_index.h"
#include "replication/replication_manager.h"
#include "ring/ring_checker.h"
#include "ring/ring_node.h"
#include "router/content_router.h"
#include "router/hrf_router.h"
#include "sim/simulator.h"
#include "telemetry/load_monitor.h"

namespace pepper::workload {

// One fully wired peer: ring + data store + replication manager + content
// router + P2P index, sharing a single simulated node.
struct PeerStack {
  std::unique_ptr<ring::RingNode> ring;
  std::unique_ptr<datastore::DataStoreNode> ds;
  std::unique_ptr<replication::ReplicationManager> repl;
  std::unique_ptr<router::ContentRouter> router;
  std::unique_ptr<index::P2PIndex> index;

  sim::NodeId id() const { return ring->id(); }
};

struct ClusterOptions {
  uint64_t seed = 42;
  // Partition cores the nodes are split across.  0 and 1 both mean one
  // core; N > 1 runs N cores one after another on the calling thread inside
  // each lookahead window (a cell of the simulator's fixed grid).  Results
  // (CSV, counters, audits) are bit-identical for every value at a given
  // seed.
  uint32_t shards = 0;
  sim::NetworkOptions net;
  ring::RingOptions ring;
  datastore::DataStoreOptions ds;
  replication::ReplicationOptions repl;
  index::IndexOptions index;
  router::RouterOptions router;
  bool use_hrf_router = true;
  sim::SimTime hrf_refresh_period = 2 * sim::kSecond;
  // Cap of the stability-adaptive refresh cadence: the period backs off
  // toward it while the ring is stable (HrfOptions::max_refresh_period).
  sim::SimTime hrf_max_refresh_period = 16 * sim::kSecond;

  // Causal tracing (trace/tracer.h).  Off by default: compiled in, zero
  // schedule impact either way (same seed replays bit-identically with
  // tracing off or on).  `trace_sample_every` = 1-in-N root-op sampling;
  // `trace_ring_capacity` is the flight-recorder size in records; when it
  // wraps, the newest records are kept.
  bool trace = false;
  uint64_t trace_sample_every = 1;
  size_t trace_ring_capacity = 1 << 16;

  // Windowed telemetry (telemetry/load_monitor.h).  Off by default; like
  // tracing, enabling it never shifts the event schedule (the hooks consume
  // no randomness, no timers, no deferred events), so the same seed replays
  // bit-identically with telemetry off or on, at any shard count.
  bool telemetry = false;
  sim::SimTime telemetry_window = 5 * sim::kSecond;
  size_t telemetry_ring_capacity = 128;

  // Paper defaults (Section 6.1): successor list 4, stabilization 4 s,
  // sf = 5, replication factor 6.
  static ClusterOptions PaperDefaults();
  // Scaled-down timers for unit/integration tests.
  static ClusterOptions FastDefaults();
};

// Owns the simulator, the peers, the free-peer pool, the metrics hub and the
// correctness oracle; provides synchronous (simulated-time) drivers that the
// tests, benches and examples share.
class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  sim::Simulator& sim() { return *sim_; }
  MetricsHub& metrics() { return metrics_; }
  // Null unless ClusterOptions::telemetry.
  telemetry::LoadMonitor* monitor() { return monitor_.get(); }
  history::LivenessOracle& oracle() { return *oracle_; }
  datastore::FreePeerPool& pool() { return pool_; }
  const ClusterOptions& options() const { return options_; }

  // Creates the first peer (owns the whole key space).
  PeerStack* Bootstrap(Key val);
  // Creates a free peer; it enters the ring when some overflow splits with
  // it (Section 2.3).
  PeerStack* AddFreePeer();

  // --- Synchronous drivers (advance simulated time until completion) ------
  // They poll between Simulator::Step calls, which stop only after a window
  // that ran something, so where a driver returns — and what the caller
  // schedules next — does not depend on the shard count.
  Status InsertItem(Key skv, const std::string& data = "",
                    PeerStack* via = nullptr,
                    sim::SimTime deadline = 30 * sim::kSecond);
  Status DeleteItem(Key skv, PeerStack* via = nullptr,
                    sim::SimTime deadline = 30 * sim::kSecond);

  struct QueryOutcome {
    Status status = Status::Internal("not finished");
    std::vector<datastore::Item> items;
    sim::SimTime started = 0;
    sim::SimTime finished = 0;
    // The oracle's verdict on this result (Definition 4).
    history::LivenessOracle::QueryAudit audit;
  };
  QueryOutcome RangeQuery(const Span& span, PeerStack* via = nullptr,
                          sim::SimTime deadline = 60 * sim::kSecond);

  // Fail-stop crash of a peer (notifies the oracle).
  void FailPeer(PeerStack* peer);

  // Requests a *graceful* departure (the Section 5 availability-preserving
  // exit: extra-hop replication, consistent leave, takeover by the
  // successor).  Best-effort: a peer mid-reorganization ignores it.
  void DepartPeer(PeerStack* peer);

  void RunFor(sim::SimTime d) { sim_->RunFor(d); }

  // --- Observation ---------------------------------------------------------
  const std::vector<std::unique_ptr<PeerStack>>& peers() const {
    return peers_;
  }
  std::vector<PeerStack*> LiveMembers() const;  // alive, ring-joined, DS on
  PeerStack* FindPeer(sim::NodeId id) const;
  ring::RingAudit AuditRing() const;
  history::LivenessOracle::AvailabilityAudit AuditAvailability() const {
    return oracle_->CheckAvailability();
  }
  size_t TotalStoredItems() const;
  // Any live member (deterministic round-robin for drivers).
  PeerStack* SomeMember();

 private:
  // Routes data-store placement events to the oracle through the
  // simulator's control context (Simulator::Defer): inline from control,
  // at the window barrier — ordered by (event time, origin seq) — from a
  // node's event, since the oracle's timeline is cluster-global state that
  // node events must not touch directly.
  class DeferredObserver : public datastore::DataStoreObserver {
   public:
    DeferredObserver(sim::Simulator* sim, history::LivenessOracle* oracle,
                     telemetry::LoadMonitor* monitor)
        : sim_(sim), oracle_(oracle), monitor_(monitor) {}
    void OnStore(sim::NodeId peer, Key skv) override {
      sim_->Defer([this, peer, skv]() { oracle_->OnStore(peer, skv); });
    }
    void OnDrop(sim::NodeId peer, Key skv) override {
      sim_->Defer([this, peer, skv]() { oracle_->OnDrop(peer, skv); });
    }
    // Telemetry takes this one DIRECTLY, not through Defer: the monitor's
    // arc log is per-node storage written by the firing node's own events,
    // and a deferred event would add control events to the run's event
    // count (telemetry must be schedule-invisible).  The oracle tracks items, not
    // arcs, so nothing here touches cluster-global state.
    void OnRangeChange(sim::NodeId peer, const RingRange& range,
                       bool active) override {
      if (monitor_ != nullptr) {
        monitor_->OnRangeChange(peer, range, active, sim_->now());
      }
    }

   private:
    sim::Simulator* sim_;
    history::LivenessOracle* oracle_;
    telemetry::LoadMonitor* monitor_;
  };

  PeerStack* MakeStack();

  ClusterOptions options_;
  MetricsHub metrics_;
  std::unique_ptr<sim::Simulator> sim_;
  // Declared before the observer proxy, which captures the raw pointer.
  std::unique_ptr<telemetry::LoadMonitor> monitor_;
  std::unique_ptr<history::LivenessOracle> oracle_;
  std::unique_ptr<DeferredObserver> observer_proxy_;
  datastore::FreePeerPool pool_;
  std::vector<std::unique_ptr<PeerStack>> peers_;
  size_t rr_cursor_ = 0;
};

}  // namespace pepper::workload

#endif  // PEPPER_WORKLOAD_CLUSTER_H_
