#ifndef PEPPER_SIM_SIMULATOR_H_
#define PEPPER_SIM_SIMULATOR_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "sim/event_queue.h"
#include "sim/message.h"
#include "sim/rng.h"
#include "sim/telemetry_hooks.h"
#include "trace/tracer.h"

namespace pepper::sim {

class Node;
class Simulator;

// Point-to-point message transport with configurable latency.  Channels are
// reliable, FIFO per (src, dst) pair, with bounded delay — the system model
// of Section 2.1.  Messages addressed to a failed peer are dropped at
// delivery time (fail-stop).
struct NetworkOptions {
  SimTime min_latency = 500 * kMicrosecond;   // LAN-like defaults
  SimTime max_latency = 1500 * kMicrosecond;
};

class Network {
 public:
  Network(Simulator* sim, NetworkOptions options)
      : sim_(sim), options_(options) {}

  void Send(Message msg);

  const NetworkOptions& options() const { return options_; }
  void set_options(NetworkOptions options) { options_ = options; }
  // Incremented on every Send — one-way messages, requests and replies all
  // funnel through Network::Send.  Split by payload type in the
  // simulator's counters() as `sim.msgs.<PayloadType>`.
  uint64_t messages_sent() const { return messages_sent_; }
  // Live per-channel FIFO entries (observability for pruning tests).
  size_t channel_count() const { return channel_count_; }

  // A delay that safely upper-bounds one round trip; protocol timeouts are
  // derived from it.
  SimTime RoundTripBound() const { return 2 * options_.max_latency + 2; }

  // Extra one-way delay added to every *request* delivered TO `id` — the
  // gray-failure knob (a slow-but-alive peer).  Models service-queue delay,
  // not link delay: inbound requests stall in the slow peer's queue, while
  // RPC replies coming back to it (work its healthy callees already
  // finished) arrive on time — so callers time out on the slow peer, but
  // the slow peer's own calls still succeed and nobody else is implicated.
  // Only ever ADDS latency on top of the (FIFO-clamped) drawn base, so the
  // conservative lookahead (min_latency) stays a safe lower bound and the
  // windowed schedule stays valid; the delay is excluded from the channel's
  // FIFO floor — a queued request must never drag later transport traffic
  // (in particular the victim's own replies) behind it.  No RNG stream is
  // touched, so the injection is deterministic.  Set from the control
  // context (scenario on_enter hooks), read on the send path.
  void set_node_extra_delay(NodeId id, SimTime delay) {
    if (extra_delay_.size() <= id) extra_delay_.resize(id + 1, 0);
    extra_delay_[id] = delay;
  }
  SimTime node_extra_delay(NodeId id) const {
    return id < extra_delay_.size() ? extra_delay_[id] : 0;
  }

 private:
  friend class Simulator;
  friend class Node;

  // Channel teardown is part of node teardown: Node::Fail and
  // Simulator::Unregister call this (fail-stop: the peer never sends again,
  // and sends *to* it stop being recorded).  Ids are never reused, so
  // without this long churn runs grow the bookkeeping with one entry per
  // channel every dead peer ever used.  O(channels of `id`) via the
  // inbound-sender index, not a full scan.  Control-context only.
  void ReleaseNode(NodeId id);

  // Per-node flat channel tables, indexed by the dense NodeId.  `out` is
  // kept sorted by peer id: lookup is a binary search over a contiguous
  // 16-byte-entry array (a long-lived router accumulates hundreds of
  // channels at paper scale, where a linear probe was the top cost of the
  // whole run), with a last-hit cache for the bursty case (push chains,
  // stabilize/ping to the same successor).  Inserts memmove, but a channel
  // is created once per distinct (from, to) pair ever — vanishing next to
  // the sends crossing it.  The old nested unordered_map<from,
  // unordered_map<to, SimTime>> cost two hash lookups per send.
  struct Channel {
    NodeId peer;
    SimTime last_delivery;  // latest delivery scheduled on this channel
  };
  struct NodeChannels {
    std::vector<Channel> out;        // channels this node sends on, sorted
    std::vector<NodeId> in_senders;  // nodes holding an out-channel to us
    uint32_t last_out = 0;           // index of the most recent lookup hit
  };

  Simulator* sim_;
  NetworkOptions options_;
  uint64_t messages_sent_ = 0;
  std::vector<NodeChannels> channels_;  // sized at Register
  size_t channel_count_ = 0;
  // Per-destination gray-failure delay; empty (the common case) costs one
  // size check per send.  Resized only from the control context.
  std::vector<SimTime> extra_delay_;
};

// Deterministic discrete-event simulator.  Peers are Node actors; every
// handler runs atomically at a virtual instant, and all concurrency between
// protocol steps is expressed as interleaving of events, exactly the
// granularity at which the paper's histories are defined.
//
// The hot path is allocation-free in steady state: message deliveries are
// fixed-size records recycled through the EventQueue arena, and a timer's
// closure is allocated once and reused across its ticks; only generic
// At/After closures still engage a std::function per event.
//
// There is one engine, and its schedule does not depend on how the nodes
// are partitioned.  Nodes are split across `shards` partition cores by
// dense NodeId (id % shards); each core owns a private EventQueue arena,
// TimerHeap and the per-node RNG streams of its nodes.  The cores advance
// in lock-step windows bounded by the conservative lookahead
// L = min_latency (at least 1): every message sent at time t delivers at
// t + latency >= t + L, so a window [m, e) with e - m <= L can execute core
// by core — nothing that happens inside the window can affect another node
// before e.  All cores run on the calling thread, one after another inside
// each window; a cross-core send lands at or after e and is pushed straight
// into the destination core's queue.
//
// Windows are cells of a fixed grid: m is the next pending time (the
// earliest queue head, timer-heap top or control heap top) and
// e = min((m / L + 1) * L, bound + 1), with `bound` the RunUntil target.
// So which window an event runs in depends on its own time alone, never on
// which other events exist: an event that changes nothing moves no other
// event, barrier or control decision, and a change that removes only such
// events replays bit-identically except for the event counts.  Every
// window pops at least the item at m.
//
// Every event carries a composite seq
// ((origin NodeId + 1) << 40 | per-origin counter), so the (time, seq) order
// — and therefore the entire run — is bit-identical for any shard count,
// which is what lets a test check partition invariance by replaying one
// seed at several counts.  `shards` 0 and 1 both mean one core.
//
// Work that is not a node's own execution — nodeless closures, Defer()ed
// cluster-global state changes, node construction and failure — runs in
// the control context at the window barriers.  Two rules follow, and every
// caller sees them:
//   1. A control-context At/After closure, and Defer()ed work, runs at the
//      barrier of the window it falls in — after that window's node events —
//      ordered by (time, rank).
//   2. Anything the control context schedules onto a node (PostToNode,
//      Node::After, timers armed by Node::Every or Call) lands at least one
//      lookahead after the control clock, since the node's core may already
//      have executed up to the window edge.
class Simulator {
 public:
  // Composite-seq split: high bits carry origin+1, low kSeqBits the
  // per-origin counter.  2^40 events per origin is out of reach (whole
  // paper-scale runs execute ~1e8 events).
  static constexpr int kSeqBits = 40;

  // `shards` 0 and 1 are the same engine: one core.
  explicit Simulator(uint64_t seed, NetworkOptions net = NetworkOptions(),
                     uint32_t shards = 0);
  // Nodes and the network hold the simulator's address.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }
  SimTime lookahead() const { return lookahead_; }

  // Current virtual time of the calling context: inside a node's event the
  // clock of its core, everywhere else the control clock.
  SimTime now() const;

  void At(SimTime t, std::function<void()> fn);
  void After(SimTime delay, std::function<void()> fn);

  // Runs `fn` in the control context, where cluster-global state (oracle,
  // free-peer pool, driver bookkeeping) is safe to touch: immediately when
  // called from control, at the current window's barrier — ordered by (core
  // time, origin seq) — when called from a node's event.
  void Defer(std::function<void()> fn);
  // Schedules `fn` on `id`'s execution context (alive-guarded), from the
  // control context; lands one lookahead out.
  void PostToNode(NodeId id, std::function<void()> fn) {
    AfterOnNode(id, 0, std::move(fn));
  }

  // Executes whole lookahead windows up to and including the first one
  // that runs an event or control item (finer steps would expose
  // mid-window states that differ across shard counts; a window whose
  // pops all fizzled — work for failed peers — changes nothing).
  // Returns false if nothing is scheduled.
  bool Step();
  void RunFor(SimTime duration) { RunUntil(now() + duration); }
  void RunUntil(SimTime t);

  // Calling context's RNG: the per-node stream of the executing node inside
  // a node's event, the control stream otherwise.  Every node has its own
  // seed-derived stream, so draw order is a per-node property, invariant
  // under the partition.
  Rng& rng();
  Network& network() { return network_; }
  Counters& counters() { return counters_; }

  // Deterministic causal tracing (off by default; see trace/tracer.h).
  // Enable from the control context, passing the flight-recorder capacity
  // and the 1-in-N root sampling rate.
  trace::Tracer& tracer() { return tracer_; }
  const trace::Tracer& tracer() const { return tracer_; }
  void EnableTracing(size_t ring_capacity, uint64_t sample_every) {
    tracer_.Enable(ring_capacity, sample_every, nodes_.size());
  }

  // Windowed-telemetry hooks (off by default; see sim/telemetry_hooks.h and
  // telemetry/load_monitor.h).  Install from the control context before the
  // run; null disables — the disabled cost is one pointer load + branch at
  // each hook site.
  void set_telemetry_sink(TelemetrySink* sink) { telemetry_sink_ = sink; }
  TelemetrySink* telemetry_sink() const { return telemetry_sink_; }

  NodeId Register(Node* node);
  void Unregister(NodeId id);
  Node* node(NodeId id) const;
  bool IsAlive(NodeId id) const;
  size_t num_registered() const { return nodes_.size(); }

  // Total events executed (messages, ticks, closures); deterministic for a
  // given seed and any shard count, and the numerator of the scenario
  // runner's events/sec.
  uint64_t events_executed() const;
  // Periodic (Node::Every) timer fires executed, a subset of
  // events_executed().  Split by timer label in counters() as
  // `sim.fires.<label>`; like events, fizzled fires are not counted.
  uint64_t timer_fires_executed() const;
  // Lookahead windows run, and those among them that popped no item (the
  // window base is exact, so the engine leaves none); both deterministic
  // for a given seed and any shard count.
  uint64_t windows_executed() const { return windows_; }
  uint64_t empty_windows() const { return empty_windows_; }
  // Per-core introspection (bench/event_core tests).
  const EventQueue& shard_queue(uint32_t i) const { return shards_[i]->queue; }
  // Armed timers (Node::Every and RPC timeouts) over every core.
  size_t pending_timers() const;

 private:
  friend class Network;
  friend class Node;

  // One partition core: a complete event loop over the subset of nodes
  // with id % shards == index.
  struct ShardCore {
    uint32_t index = 0;
    EventQueue queue;
    TimerHeap timers;
    SimTime now = 0;
    SimTime next_event = 0;  // valid during AdvanceWindow only
    uint64_t events = 0;
    uint64_t timer_fires = 0;  // periodic fires among `events`
    NodeId exec_node = kNullNode;  // node whose event is executing
  };

  struct NodeSlot {
    Rng rng;
    uint64_t seq_ctr = 0;
    NodeSlot() : rng(0) {}
  };

  struct CtrlItem {
    SimTime at;
    uint64_t rank;
    std::function<void()> fn;
  };
  // Heap comparator (std::push_heap builds a max-heap; invert for min).
  static bool CtrlAfter(const CtrlItem& a, const CtrlItem& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.rank > b.rank;
  }

  // Node::After without the old per-call wrapper closure: the alive guard
  // lives in the event record, not a capturing lambda.
  void AfterOnNode(NodeId id, SimTime delay, std::function<void()> fn);
  // Timer plumbing for Node::Every / Call / CancelTimer.  `fires` is the
  // FireCounter of a periodic timer's label (kNil for one-shots).
  uint32_t ArmTimer(NodeId id, SimTime expiry, SimTime period,
                    std::function<void()> fn,
                    uint32_t fires = TimerHeap::kNil);
  // Interns `sim.fires.<label>` in counters(), once per label address.
  Counters::Id FireCounter(const char* label);
  // Counts one sent message as `sim.msgs.<PayloadType>` in counters().
  void CountMessage(uint32_t payload_type);
  void CancelTimer(NodeId id, uint32_t idx);
  // Message scheduling for Network::Send (by value, no closure).
  void ScheduleMessage(SimTime deliver_at, Message msg);
  Rng& SlotRng(NodeId id) { return slots_[id].rng; }

  uint32_t ShardOf(NodeId id) const {
    return id % static_cast<uint32_t>(shards_.size());
  }
  // Next composite seq for events originating at `id`.
  uint64_t SeqOf(NodeId id) {
    return ((static_cast<uint64_t>(id) + 1) << kSeqBits) | slots_[id].seq_ctr++;
  }
  uint64_t CtrlRank() { return ctrl_rank_ctr_++; }
  void PushCtrl(SimTime at, uint64_t rank, std::function<void()> fn);
  // One shard's next pending time: its queue head or its timer-heap top,
  // whichever is earlier.
  SimTime ShardPeekNext(ShardCore& sc);
  // Executes every event and timer with time < end on one shard, in
  // (time, seq) order; returns how many it popped.
  uint64_t RunShardWindow(ShardCore& sc, SimTime end);
  void ExecuteShardNext(ShardCore& sc);
  void FireShardTimer(ShardCore& sc);
  // One lock-step window: find m, run the grid cell [m, e) on each shard
  // in turn, then run control work at the barrier.  Returns false if
  // nothing is pending at or before `bound`.
  bool AdvanceWindow(SimTime bound);

  static constexpr SimTime kNoEvent = ~SimTime{0};

  // Execution-context marker: the core whose window is running, null in
  // the control context.
  ShardCore* exec_shard_ = nullptr;

  uint64_t seed_;
  SimTime now_ = 0;  // control clock
  Rng rng_;          // control-context stream
  Network network_;
  Counters counters_;
  // `sim.msgs.<PayloadType>` handle by payload type id, interned on the
  // type's first send (kNoCounter until then).
  static constexpr Counters::Id kNoCounter = ~Counters::Id{0};
  std::vector<Counters::Id> msg_counters_;
  // `sim.fires.<label>` handle by label address (labels are literals).
  std::vector<std::pair<const char*, Counters::Id>> fire_counters_;
  // `sim.timers.armed`: timer records taken (one-shot timers, RPC timeouts
  // and periodic timers' first arm; a periodic re-arm reuses its record).
  Counters::Id timers_armed_ = 0;
  trace::Tracer tracer_;
  TelemetrySink* telemetry_sink_ = nullptr;
  std::vector<Node*> nodes_;  // index == NodeId; nullptr when destroyed

  std::vector<std::unique_ptr<ShardCore>> shards_;
  std::vector<NodeSlot> slots_;  // per-node rng + seq counter
  SimTime lookahead_ = 0;
  std::vector<CtrlItem> ctrl_heap_;  // min-heap on (at, rank)
  uint64_t ctrl_rank_ctr_ = 0;
  uint64_t ctrl_events_ = 0;
  uint64_t windows_ = 0;
  uint64_t empty_windows_ = 0;
};

// Wraps a callback so its body runs in the simulator's control context (see
// Simulator::Defer); completion callbacks that touch cluster-global state
// (oracle, workload bookkeeping) from protocol code use this to stay
// deterministic at any shard count.  Arguments are captured by value.
template <typename F>
auto DeferredCallback(Simulator* sim, F fn) {
  return [sim, fn = std::move(fn)](auto... args) {
    sim->Defer([fn, args...]() { fn(args...); });
  };
}

}  // namespace pepper::sim

#endif  // PEPPER_SIM_SIMULATOR_H_
