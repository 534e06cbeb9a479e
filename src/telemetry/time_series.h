#ifndef PEPPER_TELEMETRY_TIME_SERIES_H_
#define PEPPER_TELEMETRY_TIME_SERIES_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "sim/message.h"

namespace pepper::telemetry {

using sim::NodeId;
using sim::SimTime;

// Windowed time-series storage for per-peer load counters — the substrate
// under LoadMonitor, built on the PR 6 lane discipline of common/stats.h.
//
// Window contract:
//   * Window boundaries sit at deterministic sim-time multiples:
//     window(t) = t / window_length.  No wall clock, no RNG — the window an
//     event lands in is a pure function of its simulated instant, so the
//     windowed view is bit-identical across shard counts.
//   * All values are unsigned integer event counts.  Integer addition is
//     exactly associative and commutative, so any partition of the writers
//     (1 shard, 4 shards) merges to the same totals — the same
//     argument that keeps laned Counters and ExactSum shard-invariant.
//
// Storage discipline:
//   * The hot per-peer counts live in per-node rings written ONLY by the
//     node's owning shard thread (delivery, lookup, scan and mutation hooks
//     all execute there) — single-writer, no locks, direct indexing.
//   * The one cross-thread signal (RPC timeouts, observed by the caller but
//     charged to the callee) is lane-striped: each metrics lane appends to
//     its own sparse per-window slots, merged at read time — exactly the
//     laned-metrics merge.
//   * Rings hold the most recent `capacity` windows per node (flight-
//     recorder semantics); overwritten windows are counted in
//     slots_recycled() and reported, never silently dropped.
//
// Reads (Collect*) happen only from the control context at barriers or
// between runs, where the simulator's synchronization orders them after
// every lane write — the same read-side contract as Counters::Get.

// Per-window integer load counters for one peer/arc.
struct WindowCounters {
  uint64_t lookups = 0;    // router lookups answered as range owner
  uint64_t scans = 0;      // scan slices served over the local arc
  uint64_t mutations = 0;  // client inserts/deletes applied locally
  uint64_t msgs_in = 0;    // messages delivered (in-window event backlog)
  uint64_t rpcs_in = 0;    // RPC requests delivered
  uint64_t rpc_timeouts = 0;  // RPCs to this peer that timed out
  uint64_t store_hits = 0;    // buffer-pool page hits on this peer's store
  uint64_t store_faults = 0;  // buffer-pool page faults (simulated disk I/O)

  // The arc-load figure the top-k ranking uses: owner-attributed work.
  uint64_t arc_load() const { return lookups + scans + mutations; }
  bool any() const {
    return (lookups | scans | mutations | msgs_in | rpcs_in | rpc_timeouts |
            store_hits | store_faults) != 0;
  }
  void Add(const WindowCounters& o) {
    lookups += o.lookups;
    scans += o.scans;
    mutations += o.mutations;
    msgs_in += o.msgs_in;
    rpcs_in += o.rpcs_in;
    rpc_timeouts += o.rpc_timeouts;
    store_hits += o.store_hits;
    store_faults += o.store_faults;
  }
};

class TimeSeries {
 public:
  static constexpr uint64_t kNoWindow = ~0ull;

  // `window_length` in sim microseconds; `capacity` windows are retained
  // per node (and per lane for the striped timeout series).
  TimeSeries(SimTime window_length, size_t capacity);

  SimTime window_length() const { return window_length_; }
  size_t capacity() const { return capacity_; }
  uint64_t WindowOf(SimTime t) const { return t / window_length_; }
  SimTime WindowStart(uint64_t w) const { return w * window_length_; }

  // Grows the per-node ring table; control context only (Simulator
  // registration path), workers parked.
  void OnRegister(NodeId id);

  // --- Writers (owning node's thread) --------------------------------------
  void AddLookup(NodeId node, SimTime now) { Slot(node, now).lookups++; }
  void AddScan(NodeId node, SimTime now) { Slot(node, now).scans++; }
  void AddMutation(NodeId node, SimTime now) { Slot(node, now).mutations++; }
  void AddDelivery(NodeId node, bool is_rpc, SimTime now) {
    WindowCounters& c = Slot(node, now);
    c.msgs_in++;
    if (is_rpc) c.rpcs_in++;
  }
  void AddStoreAccess(NodeId node, uint64_t hits, uint64_t faults,
                      SimTime now) {
    WindowCounters& c = Slot(node, now);
    c.store_hits += hits;
    c.store_faults += faults;
  }

  // --- Writer (caller's thread, charged to `callee`) -----------------------
  void AddTimeout(NodeId callee, SimTime now);

  // --- Control-context reads -----------------------------------------------
  // Sums the named window across every node ring and timeout lane.
  WindowCounters CollectTotals(uint64_t window) const;
  // Per-node counters for one window, ascending NodeId, empty rows skipped.
  std::vector<std::pair<NodeId, WindowCounters>> CollectWindow(
      uint64_t window) const;
  // RPC timeouts charged to `node` in `window` (merged across lanes).
  uint64_t TimeoutsFor(NodeId node, uint64_t window) const;
  // Windows overwritten by ring wraparound (flight-recorder loss figure).
  uint64_t slots_recycled() const;
  // Smallest / largest window index with any retained data (kNoWindow when
  // nothing has been recorded yet).
  uint64_t OldestWindow() const;
  uint64_t NewestWindow() const;

 private:
  struct NodeSlot {
    uint64_t window = kNoWindow;
    WindowCounters c;
  };
  struct NodeRing {
    std::vector<NodeSlot> slots;  // capacity-sized on first touch
    uint64_t recycled = 0;
  };
  // Sparse per-lane timeout slots: (callee, count) pairs per window.  Rare
  // events (a timeout costs a full RPC deadline), so linear scans are fine.
  struct LaneSlot {
    uint64_t window = kNoWindow;
    std::vector<std::pair<NodeId, uint64_t>> counts;
  };
  struct LaneRing {
    std::vector<LaneSlot> slots;
    uint64_t recycled = 0;
  };

  WindowCounters& Slot(NodeId node, SimTime now);

  SimTime window_length_;
  size_t capacity_;
  // Indexed by NodeId; grown only at Register (control context, workers
  // parked — the Tracer::OnRegister discipline), so worker writes never
  // race a reallocation.
  std::vector<NodeRing> nodes_;
  // One timeout ring per metrics lane, allocated lazily by its owning
  // thread (the pointer array itself is fixed, so there is no race).
  std::array<std::unique_ptr<LaneRing>, kMaxMetricLanes> timeout_lanes_;
};

}  // namespace pepper::telemetry

#endif  // PEPPER_TELEMETRY_TIME_SERIES_H_
