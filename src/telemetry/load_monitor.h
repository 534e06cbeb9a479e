#ifndef PEPPER_TELEMETRY_LOAD_MONITOR_H_
#define PEPPER_TELEMETRY_LOAD_MONITOR_H_

#include <cstdint>
#include <vector>

#include "common/key_space.h"
#include "sim/telemetry_hooks.h"
#include "telemetry/time_series.h"

namespace pepper::telemetry {

// Reorganization completions, as reported by the datastore engines.  The
// timeline folds these into per-window reorg counts so a load shift can be
// read against the ownership changes that caused (or chased) it.
enum class ReorgKind : uint8_t {
  kSplit = 0,
  kMerge = 1,
  kTakeover = 2,
  kRedistribute = 3,
};
inline constexpr size_t kReorgKinds = 4;
const char* ReorgKindName(ReorgKind kind);

// One ownership-change record: node's arc became `range` (active) or the
// node gave its arc up (!active).  Emitted by the Data Store facade's
// observer hook in the owning node's events; `seq` is a per-node monotone
// counter, so (time, node, seq) totally orders the merged log independent
// of the shard partition.
struct ArcEvent {
  SimTime time = 0;
  uint64_t seq = 0;
  NodeId node = sim::kNullNode;
  RingRange range;
  bool active = false;
};

// Per-arc load attribution + per-peer health signals, on the TimeSeries
// windowed substrate.
//
// Attribution rules (the conservation contract the tests pin):
//   * An arc is identified by its owning peer's NodeId — ring identities
//     are single-use (a merged-away peer rejoins as a brand-new peer), so
//     "arc" and "owner at the time of the op" coincide.
//   * Every op is counted exactly once, on the node that executed it, in
//     the window of its execution instant.  A split/merge/takeover moves
//     *future* ops to the new owner; ops already executed stay attributed
//     to the owner that served them.  Summing any window across all arcs
//     therefore equals the cluster-wide op count for that window — no
//     double-count, no orphaned window, regardless of reorganizations.
//   * Ownership changes are logged (ArcEvent) rather than rewritten, so a
//     window in which an arc changed hands shows both owners with the ops
//     each actually served plus the change itself.
//
// Health signals tracked per peer:
//   * RPC timeout rate: timeouts observed by callers, charged to the
//     callee (the peer that failed to answer) — the gray-failure signal.
//   * Refresh staleness: sim-time since the peer's router last completed a
//     refresh pass (HrfRouter::FinishPass).
//   * In-window event backlog: messages/RPC requests delivered per window.
//
// Storage: hot hooks write the executing node's own ring; the
// caller-observed timeout is charged to the callee's ring (see TimeSeries);
// arc/reorg events append to the executing node's log.  All reads happen
// from the control context at barriers or between runs.
class LoadMonitor : public sim::TelemetrySink {
 public:
  struct Options {
    SimTime window = 5 * sim::kSecond;
    size_t ring_capacity = 128;
  };

  explicit LoadMonitor(const Options& options);

  const TimeSeries& series() const { return series_; }
  SimTime window_length() const { return series_.window_length(); }

  // Grows per-node state; control context only (Cluster registration
  // path).
  void OnRegister(NodeId id);

  // --- sim::TelemetrySink (engine hooks) -----------------------------------
  void OnMessageDelivered(NodeId to, bool is_rpc, SimTime now) override {
    series_.AddDelivery(to, is_rpc, now);
  }
  void OnRpcTimeout(NodeId caller, NodeId callee, SimTime now) override {
    (void)caller;
    series_.AddTimeout(callee, now);
  }

  // --- Component hooks (the executing node) --------------------------------
  void OnLookupServed(NodeId owner, SimTime now) {
    series_.AddLookup(owner, now);
  }
  void OnScanServed(NodeId owner, SimTime now) { series_.AddScan(owner, now); }
  void OnMutation(NodeId owner, SimTime now) {
    series_.AddMutation(owner, now);
  }
  // Buffer-pool activity on `owner`'s store, flushed as deltas by the Data
  // Store facade after each store operation.
  void OnStoreAccess(NodeId owner, uint64_t hits, uint64_t faults,
                     SimTime now) {
    series_.AddStoreAccess(owner, hits, faults, now);
  }
  void OnRangeChange(NodeId node, const RingRange& range, bool active,
                     SimTime now);
  void OnReorg(NodeId node, ReorgKind kind, SimTime now);
  void OnRefreshPass(NodeId node, SimTime now);

  // --- Control-context reads -----------------------------------------------
  // Sim time of `node`'s last completed router refresh pass (its component
  // construction instant before the first pass).
  SimTime last_refresh(NodeId node) const;
  // The full ownership-change log, merged across nodes and totally ordered
  // by (time, node, seq).
  std::vector<ArcEvent> MergedArcEvents() const;
  // Reorg completions of `kind` in `window`, summed across nodes.
  uint64_t ReorgsInWindow(uint64_t window, ReorgKind kind) const;

 private:
  struct ReorgEvent {
    SimTime time = 0;
    ReorgKind kind = ReorgKind::kSplit;
  };
  struct NodeLog {
    uint64_t arc_seq = 0;
    std::vector<ArcEvent> arcs;
    std::vector<ReorgEvent> reorgs;
  };

  TimeSeries series_;
  // Indexed by NodeId; grown only at Register, entries written only by
  // the node's own events.
  std::vector<NodeLog> logs_;
  std::vector<SimTime> last_refresh_;
};

}  // namespace pepper::telemetry

#endif  // PEPPER_TELEMETRY_LOAD_MONITOR_H_
