#ifndef PEPPER_TELEMETRY_TIME_SERIES_H_
#define PEPPER_TELEMETRY_TIME_SERIES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/message.h"

namespace pepper::telemetry {

using sim::NodeId;
using sim::SimTime;

// Windowed time-series storage for per-peer load counters — the substrate
// under LoadMonitor.
//
// Window contract:
//   * Window boundaries sit at deterministic sim-time multiples:
//     window(t) = t / window_length.  No wall clock, no RNG — the window an
//     event lands in is a pure function of its simulated instant, so the
//     windowed view is bit-identical across shard counts.
//   * All values are unsigned integer event counts.  Integer addition is
//     exactly associative and commutative, so the order the partition
//     cores add in (1 shard, 4 shards) cannot change a total.
//
// Storage discipline:
//   * Every count lives in its peer's ring, indexed directly by NodeId.
//     RPC timeouts are observed by the caller and charged to the callee's
//     ring.
//   * Rings hold the most recent `capacity` windows per node (flight-
//     recorder semantics); overwritten windows are counted in
//     slots_recycled() and reported, never silently dropped.
//   * Writes to one ring come in time order, except that a timeout charged
//     from the caller's core can precede the callee core's own writes at
//     earlier instants of the same lookahead window.  With windows no
//     shorter than the lookahead, such a pair is at most one window
//     apart, and a ring keeps at least two, so the two writes land in
//     different slots and neither evicts the other.

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

  // `window_length` in sim microseconds; `capacity` (at least 2) windows
  // are retained per node.
  TimeSeries(SimTime window_length, size_t capacity);

  SimTime window_length() const { return window_length_; }
  size_t capacity() const { return capacity_; }
  uint64_t WindowOf(SimTime t) const { return t / window_length_; }
  SimTime WindowStart(uint64_t w) const { return w * window_length_; }

  // Grows the per-node ring table; control context only (Simulator
  // registration path).
  void OnRegister(NodeId id);

  // --- Writers (the executing node) ----------------------------------------
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

  // --- Writer (the caller, charged to `callee`) ----------------------------
  void AddTimeout(NodeId callee, SimTime now) {
    Slot(callee, now).rpc_timeouts++;
  }

  // --- Control-context reads -----------------------------------------------
  // Sums the named window across every node ring.
  WindowCounters CollectTotals(uint64_t window) const;
  // Per-node counters for one window, ascending NodeId, empty rows skipped.
  std::vector<std::pair<NodeId, WindowCounters>> CollectWindow(
      uint64_t window) const;
  // RPC timeouts charged to `node` in `window`.
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
  WindowCounters& Slot(NodeId node, SimTime now);

  SimTime window_length_;
  size_t capacity_;
  std::vector<NodeRing> nodes_;  // indexed by NodeId, grown at Register
};

}  // namespace pepper::telemetry

#endif  // PEPPER_TELEMETRY_TIME_SERIES_H_
