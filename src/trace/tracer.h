#ifndef PEPPER_TRACE_TRACER_H_
#define PEPPER_TRACE_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/message.h"

namespace pepper::trace {

// Deterministic causal tracing + flight recorder.
//
// A sampled protocol operation (router lookup, index insert, revive round,
// split, ...) opens a root span; the TraceContext riding on sim::Message
// (and restored across Node::After / RPC-timeout continuations) carries the
// trace across hops, so every delivery becomes a hop span and every nested
// operation a child span — a causal tree of the whole decision.
//
// Determinism contract:
//   * Span/trace ids are (origin node, per-node counter) pairs, and the
//     sampling decision is a hash of (seed, trace id) — no RNG draws, no
//     wall clock — so the same seed emits bit-identical trace output at any
//     shard count (absent ring-buffer eviction: which records are oldest
//     within one lookahead window depends on the order the partition cores
//     took their turns in).
//   * Tracing never touches the simulator's RNG streams, event seqs or
//     MetricsHub, so a run's schedule and metrics CSV are bit-identical
//     with tracing off, on, or at a different sampling rate.
//
// Records land in one fixed-capacity ring buffer — the flight recorder,
// which keeps the newest `ring_capacity` records — and are sorted at read
// time on (end time, composite record key).  Export formats:
// Chrome-trace/Perfetto JSON, a deterministic text dump, and per-key causal
// histories for audit-failure forensics.

using sim::NodeId;
using sim::SimTime;
using sim::TraceContext;

// One flight-recorder record.  Records are emitted exactly once, at a
// deterministic instant (no open-span bookkeeping): an op emits a kOpBegin
// instant when it starts and a kOpEnd interval when it finishes; a message
// delivery emits its kHop interval [sent_at, delivery]; kMark annotates an
// instant inside the current span.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  SimTime start = 0;
  SimTime end = 0;
  // Merge key: ((emitting node + 1) << 40) | per-node record counter.  A
  // pure function of that node's execution history, so the merged order is
  // invariant under the shard partition.
  uint64_t key = 0;
  // Item key (or other correlator) for history filtering; 0 = none.
  uint64_t tag = 0;
  NodeId node = sim::kNullNode;
  enum class Kind : uint8_t { kOpBegin, kOpEnd, kHop, kMark };
  Kind kind = Kind::kMark;
  const char* name = "";  // static-duration string (literal or typeid name)
};

// Returned by Tracer::StartOp; captured (by value) into the completion path
// and handed back to FinishOp.  Inactive tokens (tracing disabled, root not
// sampled) make every later call a no-op.
struct OpToken {
  TraceContext ctx;
  SimTime start = 0;
  uint64_t tag = 0;
  NodeId node = sim::kNullNode;
  const char* name = "";
  bool active() const { return ctx.active(); }
};

class Tracer {
 public:
  explicit Tracer(uint64_t seed) : seed_(seed) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Turns tracing on.  `ring_capacity` is in records; 1-in-
  // `sample_every` root operations start a trace; `num_nodes` pre-sizes the
  // per-node counters for nodes registered before enabling.  Call from the
  // control context only (the simulator owner), before or between runs.
  void Enable(size_t ring_capacity, uint64_t sample_every, size_t num_nodes);
  bool enabled() const { return enabled_; }

  // Grows the per-node counters; called by Simulator::Register (control
  // context).  No-op while disabled — Enable() catches up.
  void OnRegister(NodeId id) {
    if (enabled_ && counters_.size() <= id) counters_.resize(id + 1);
  }

  // --- Thread-local active context (engine plumbing) -----------------------
  static const TraceContext& Current() { return tls_ctx_; }
  static void SetCurrent(const TraceContext& ctx) { tls_ctx_ = ctx; }
  // Cheap when already clear: one load + branch per event dispatch.
  static void Clear() {
    if (tls_ctx_.trace_id != 0) tls_ctx_ = TraceContext{};
  }

  // --- Span emission -------------------------------------------------------
  // Opens an operation span on `node`: a child of the current context when
  // one is active, otherwise a new root (sampled 1-in-sample_every).  The
  // new context is installed as current, so sends made before the handler
  // returns ride on this span.
  OpToken StartOp(NodeId node, SimTime now, const char* name,
                  uint64_t tag = 0);
  void FinishOp(const OpToken& op, SimTime now);
  // Instant annotation inside the current span (no-op outside a trace).
  void Mark(NodeId node, SimTime now, const char* name, uint64_t tag = 0);
  // Records the delivery hop of a traced message and installs the delivery
  // context; called by Node::Deliver when msg.trace is active.
  void OnDeliver(const sim::Message& msg, NodeId to, SimTime now);

  // --- Flight recorder readout (control context / between runs) ------------
  size_t record_count() const;
  uint64_t records_dropped() const;  // overwritten by ring wraparound
  uint64_t sample_every() const { return sample_every_; }

  // Every live record, sorted on (end, key) — a total order.
  std::vector<SpanRecord> Merged() const;
  // Deterministic line-per-record text dump of the merged recorder.
  std::string DumpText() const;
  // The recent window (last `max_records` by merge order) plus the FULL
  // causal history of every trace that touched `tag` — the audit-failure
  // forensics format.
  std::string DumpKeyHistory(uint64_t tag, size_t max_recent = 64) const;
  // Chrome trace event JSON ({"traceEvents":[...]}; loads in Perfetto /
  // chrome://tracing).  ts/dur are sim microseconds; tid is the node.
  // `root_prefix` (when non-empty) keeps only the traces whose root op name
  // starts with it — "router." exports lookup trees and nothing else —
  // bounding export size without changing what was recorded.
  std::string ChromeTraceJson(const std::string& root_prefix = "") const;

 private:
  struct NodeCtr {
    uint64_t span = 0;
    uint64_t rec = 0;
  };

  uint64_t AllocSpanId(NodeId node) {
    return ((static_cast<uint64_t>(node) + 1) << 40) | counters_[node].span++;
  }
  uint64_t NextRecKey(NodeId node) {
    return ((static_cast<uint64_t>(node) + 1) << 40) | counters_[node].rec++;
  }
  bool Sampled(uint64_t trace_id) const;
  void Record(const SpanRecord& rec);

  static thread_local TraceContext tls_ctx_;

  uint64_t seed_;
  bool enabled_ = false;
  uint64_t sample_every_ = 1;
  size_t ring_capacity_ = 0;
  std::vector<NodeCtr> counters_;  // grown at Register
  // The flight recorder: grows to ring_capacity_, then `next_` overwrites
  // the oldest record.
  std::vector<SpanRecord> ring_;
  size_t next_ = 0;
  uint64_t written_ = 0;
};

}  // namespace pepper::trace

#endif  // PEPPER_TRACE_TRACER_H_
