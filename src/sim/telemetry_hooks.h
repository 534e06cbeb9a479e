#ifndef PEPPER_SIM_TELEMETRY_HOOKS_H_
#define PEPPER_SIM_TELEMETRY_HOOKS_H_

#include "sim/message.h"

namespace pepper::sim {

// Engine-side telemetry hook interface.  The simulator holds one optional
// pointer (see Simulator::set_telemetry_sink); telemetry::LoadMonitor is the
// production implementation.  Kept in sim/ so the engine never depends on
// the telemetry layer.
//
// Determinism contract (the same one the Tracer honours): a sink
// implementation must never touch the simulator's RNG streams, event seqs,
// timers or MetricsHub from these callbacks — hook or no hook, the schedule
// and the metrics CSV stay bit-identical.  Callbacks fire inside the
// executing node's event; cross-node attribution is the sink's problem
// (LoadMonitor charges a timeout to the callee's ring).
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;

  // A message arrived at `to` (fires in `to`'s delivery event).  `is_rpc` is
  // true for RPC requests — the "someone is waiting on this peer" subset of
  // the in-window event backlog.
  virtual void OnMessageDelivered(NodeId to, bool is_rpc, SimTime now) = 0;

  // An RPC from `caller` to `callee` timed out (fires on `caller`'s shard
  // thread — the callee may be dead or merely slow, which is the point).
  virtual void OnRpcTimeout(NodeId caller, NodeId callee, SimTime now) = 0;
};

}  // namespace pepper::sim

#endif  // PEPPER_SIM_TELEMETRY_HOOKS_H_
