#include "sim/simulator.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/logging.h"
#include "sim/node.h"

namespace pepper::sim {

namespace {

// Installs the execution context of one event: the sim-time/node prefix for
// PEPPER_LOG lines, and a cleared trace context (Node::Deliver installs the
// incoming message's context; After/RPC continuations restore their own).
// Cost per event when tracing is off: two thread-local stores and a branch.
inline void BeginEventContext(SimTime t, NodeId node) {
  SetSimLogContext(t, node);
  trace::Tracer::Clear();
}

}  // namespace

void Network::Send(Message msg) {
  if (msg.to == kNullNode || msg.from == kNullNode) {
    std::fprintf(stderr, "null endpoint: from=%u to=%u payload=%s\n",
                 msg.from, msg.to,
                 PayloadTypeName(msg.payload.type_id()).c_str());
  }
  PEPPER_CHECK(msg.from != kNullNode && msg.to != kNullNode);
  ++messages_sent_;
  sim_->CountMessage(msg.payload.type_id());
  // Latency draws come from the sender's per-node stream, so a node's draw
  // order is a property of that node's execution history alone — invariant
  // under the shard partition.  Fixed-latency configs (min == max) draw
  // nothing.
  const SimTime latency =
      options_.min_latency == options_.max_latency
          ? options_.min_latency
          : sim_->SlotRng(msg.from).Uniform(options_.min_latency,
                                            options_.max_latency);
  SimTime deliver_at = sim_->now() + latency;
  // FIFO bookkeeping only for channels that can still deliver: a message to
  // a dead or destroyed peer is dropped at delivery time anyway, and
  // recording it would resurrect bookkeeping ReleaseNode just pruned.
  if (sim_->IsAlive(msg.to)) {
    NodeChannels& nc = channels_[msg.from];  // pre-sized at Register
    if (nc.last_out < nc.out.size() && nc.out[nc.last_out].peer == msg.to) {
      Channel& ch = nc.out[nc.last_out];
      deliver_at = std::max(deliver_at, ch.last_delivery);  // FIFO
      ch.last_delivery = deliver_at;
    } else {
      auto it = std::lower_bound(
          nc.out.begin(), nc.out.end(), msg.to,
          [](const Channel& ch, NodeId id) { return ch.peer < id; });
      if (it != nc.out.end() && it->peer == msg.to) {
        nc.last_out = static_cast<uint32_t>(it - nc.out.begin());
        deliver_at = std::max(deliver_at, it->last_delivery);  // FIFO
        it->last_delivery = deliver_at;
      } else {
        // Sorted insert; creation is once per distinct channel ever.
        nc.out.insert(it, Channel{msg.to, deliver_at});
        channels_[msg.to].in_senders.push_back(msg.from);
        ++channel_count_;
      }
    }
  }
  // Gray-failure injection: extra destination delay (requests only — see
  // set_node_extra_delay) models the receiver's service queue, applied
  // AFTER the transport FIFO clamp and excluded from the clamp floor —
  // responses ride the transport untouched and may overtake queued
  // requests, so a slow peer's own calls still complete on time.  The
  // delay only ever pushes delivery later, keeping the lookahead lower
  // bound valid, and with no delay armed the schedule is unchanged.
  if (!msg.is_response) deliver_at += node_extra_delay(msg.to);
  sim_->ScheduleMessage(deliver_at, std::move(msg));
}

void Network::ReleaseNode(NodeId id) {
  if (id >= channels_.size()) return;
  NodeChannels& nc = channels_[id];
  channel_count_ -= nc.out.size();
  for (const Channel& ch : nc.out) {
    auto& senders = channels_[ch.peer].in_senders;
    for (size_t i = 0; i < senders.size(); ++i) {
      if (senders[i] == id) {
        senders[i] = senders.back();
        senders.pop_back();
        break;
      }
    }
  }
  for (NodeId from : nc.in_senders) {
    auto& out = channels_[from].out;
    // Ordered erase: `out` stays sorted for the binary search.
    for (size_t i = 0; i < out.size(); ++i) {
      if (out[i].peer == id) {
        out.erase(out.begin() + i);
        --channel_count_;
        break;
      }
    }
  }
  nc.out.clear();
  nc.in_senders.clear();
}

Simulator::Simulator(uint64_t seed, NetworkOptions net, uint32_t shards)
    : seed_(seed), rng_(seed), network_(this, net), tracer_(seed) {
  shards = std::max<uint32_t>(shards, 1);
  // Conservative lookahead: every send delivers at least min_latency in the
  // future, so min_latency bounds how far a window can run without
  // cross-shard effects.  A zero floor would make windows degenerate.
  PEPPER_CHECK(net.min_latency >= 1);
  lookahead_ = net.min_latency;
  timers_armed_ = counters_.Intern("sim.timers.armed");
  shards_.reserve(shards);
  for (uint32_t i = 0; i < shards; ++i) {
    auto sc = std::make_unique<ShardCore>();
    sc->index = i;
    shards_.push_back(std::move(sc));
  }
}

SimTime Simulator::now() const {
  return exec_shard_ != nullptr ? exec_shard_->now : now_;
}

Rng& Simulator::rng() {
  if (exec_shard_ != nullptr) return slots_[exec_shard_->exec_node].rng;
  return rng_;
}

void Simulator::At(SimTime t, std::function<void()> fn) {
  ShardCore* sc = exec_shard_;
  if (sc != nullptr) {
    PEPPER_CHECK(t >= sc->now);
    sc->queue.PushClosureSeq(t, SeqOf(sc->exec_node), sc->exec_node,
                             std::move(fn));
    return;
  }
  PEPPER_CHECK(t >= now_);
  PushCtrl(t, CtrlRank(), std::move(fn));
}

void Simulator::After(SimTime delay, std::function<void()> fn) {
  ShardCore* sc = exec_shard_;
  if (sc != nullptr) {
    // Node context: stays on the executing node's core, attributed to that
    // node for seq purposes.
    sc->queue.PushClosureSeq(sc->now + delay, SeqOf(sc->exec_node),
                             sc->exec_node, std::move(fn));
    return;
  }
  // Control context: control closures (workload drivers, scenario probes)
  // run at barriers.
  PushCtrl(now_ + delay, CtrlRank(), std::move(fn));
}

void Simulator::Defer(std::function<void()> fn) {
  ShardCore* sc = exec_shard_;
  if (sc == nullptr) {
    // Control context: the caller already holds the right to touch
    // cluster-global state — run inline so setup-time code observes its
    // effects immediately.
    fn();
    return;
  }
  // Stamped (core time, origin seq): the key is a function of the node's
  // own history, so the barrier runs deferred work in the same order at
  // any shard count.
  PushCtrl(sc->now, SeqOf(sc->exec_node), std::move(fn));
}

void Simulator::AfterOnNode(NodeId id, SimTime delay,
                            std::function<void()> fn) {
  ShardCore* sc = exec_shard_;
  if (sc != nullptr) {
    // A node schedules onto itself (Node::After, RPC plumbing).  Another
    // core's node may already have run up to the window edge, so only a
    // message (which lands a lookahead out) may reach it.
    PEPPER_CHECK(ShardOf(id) == sc->index);
    sc->queue.PushNodeClosureSeq(sc->now + delay, SeqOf(sc->exec_node), id,
                                 std::move(fn));
    return;
  }
  // Control context pushing into a core: clamp one lookahead out so the
  // target core — which may already have executed up to the window edge —
  // never sees an event in its past.  (Same bound every message
  // already obeys.)
  ShardCore& dst = *shards_[ShardOf(id)];
  const SimTime at = now_ + std::max(delay, lookahead_);
  dst.queue.PushNodeClosureSeq(at, SeqOf(id), id, std::move(fn));
}

uint32_t Simulator::ArmTimer(NodeId id, SimTime expiry, SimTime period,
                             std::function<void()> fn, uint32_t fires) {
  TimerHeap::Timer timer{id, fires, period, std::move(fn)};
  counters_.Inc(timers_armed_);
  ShardCore* sc = exec_shard_;
  if (sc != nullptr) {
    PEPPER_CHECK(ShardOf(id) == sc->index);
    return sc->timers.Arm(expiry, SeqOf(sc->exec_node), std::move(timer));
  }
  // Control context: one lookahead out, as for PostToNode.
  const SimTime at = std::max(expiry, now_ + lookahead_);
  return shards_[ShardOf(id)]->timers.Arm(at, SeqOf(id), std::move(timer));
}

Counters::Id Simulator::FireCounter(const char* label) {
  // Every arm and re-arm lands here; a pointer scan over the handful of
  // labels seen so far skips building the name and scanning every counter.
  for (const auto& [seen, id] : fire_counters_) {
    if (seen == label) return id;
  }
  PEPPER_CHECK(label != nullptr && label[0] != '\0');
  const Counters::Id id =
      counters_.Intern(std::string("sim.fires.") + label);
  fire_counters_.emplace_back(label, id);
  return id;
}

void Simulator::CountMessage(uint32_t payload_type) {
  if (payload_type >= msg_counters_.size()) {
    msg_counters_.resize(payload_type + 1, kNoCounter);
  }
  Counters::Id& id = msg_counters_[payload_type];
  if (id == kNoCounter) {
    id = counters_.Intern("sim.msgs." + PayloadTypeName(payload_type));
  }
  counters_.Inc(id);
}

void Simulator::CancelTimer(NodeId id, uint32_t idx) {
  // Cancels come from the node's own execution or from control-context
  // teardown (Node::Fail, Unregister).
  ShardCore* sc = exec_shard_;
  if (sc != nullptr) PEPPER_CHECK(ShardOf(id) == sc->index);
  shards_[ShardOf(id)]->timers.Cancel(idx);
}

void Simulator::ScheduleMessage(SimTime deliver_at, Message msg) {
  // Straight into the destination core's queue, from a node or from
  // control: deliver_at >= sender clock + min_latency >= the running
  // window's end, so no core has run past it, whether or not it has had
  // its turn in this window yet.  A node sends only as itself: drawing
  // another core's node seq mid-window would depend on the core order.
  PEPPER_CHECK(exec_shard_ == nullptr ||
               ShardOf(msg.from) == exec_shard_->index);
  const uint64_t seq = SeqOf(msg.from);
  shards_[ShardOf(msg.to)]->queue.PushMessageSeq(deliver_at, seq,
                                                 std::move(msg));
}

bool Simulator::Step() {
  // Skips the windows that execute nothing (every pop fizzled), so a
  // driver polling between steps sees a state some event changed.
  const uint64_t before = events_executed();
  while (AdvanceWindow(kNoEvent - 1)) {
    if (events_executed() != before) return true;
  }
  return false;
}

void Simulator::RunUntil(SimTime t) {
  while (AdvanceWindow(t)) {
  }
  now_ = std::max(now_, t);
}

// --- windows -----------------------------------------------------------------

void Simulator::PushCtrl(SimTime at, uint64_t rank,
                         std::function<void()> fn) {
  ctrl_heap_.push_back(CtrlItem{at, rank, std::move(fn)});
  std::push_heap(ctrl_heap_.begin(), ctrl_heap_.end(), CtrlAfter);
}

SimTime Simulator::ShardPeekNext(ShardCore& sc) {
  sc.next_event = sc.queue.Empty() ? kNoEvent : sc.queue.Top().at;
  if (!sc.timers.Empty()) {
    sc.next_event = std::min(sc.next_event, sc.timers.Top().at);
  }
  return sc.next_event;
}

void Simulator::FireShardTimer(ShardCore& sc) {
  const HeapEntry top = sc.timers.Top();
  const uint32_t idx = top.idx;
  sc.now = std::max(sc.now, top.at);
  {
    TimerHeap::Timer& t = sc.timers.timer(idx);
    // Node::Fail and teardown cancel a node's timers, so the guard only
    // keeps the engine's own promise: nothing runs for a dead node.
    if (!IsAlive(t.node)) {
      sc.timers.Free(idx);
      return;
    }
    sc.exec_node = t.node;
    ++sc.events;
    if (t.period != 0) {  // periodic timers always carry a label
      ++sc.timer_fires;
      counters_.Inc(t.fires);
    }
    BeginEventContext(sc.now, t.node);
  }
  // The closure runs moved out of its record: arming timers inside it may
  // grow the record pool.
  std::function<void()> fn = std::move(sc.timers.timer(idx).fn);
  sc.timers.StartFire(idx);
  fn();
  const bool armed = sc.timers.FinishFire();
  TimerHeap::Timer& t = sc.timers.timer(idx);
  if (!armed || t.period == 0) {
    sc.timers.Free(idx);
  } else {
    t.fn = std::move(fn);
    sc.timers.Rearm(idx, sc.now + t.period, SeqOf(t.node));
  }
  sc.exec_node = kNullNode;
}

void Simulator::ExecuteShardNext(ShardCore& sc) {
  Event ev = sc.queue.PopEvent();
  sc.now = std::max(sc.now, ev.at);
  // Only events whose action runs are counted; fizzled pops (guard drops)
  // are not, like fizzled timer fires.
  switch (ev.kind) {
    case EventKind::kClosure:
      sc.exec_node = ev.node;  // origin attribution, no guard
      ++sc.events;
      BeginEventContext(sc.now, ev.node);
      ev.fn();
      break;
    case EventKind::kNodeClosure: {
      Node* n = node(ev.node);
      if (n != nullptr && n->alive()) {
        sc.exec_node = ev.node;
        ++sc.events;
        BeginEventContext(sc.now, ev.node);
        ev.fn();
      }
      break;
    }
    case EventKind::kMessage: {
      Node* target = node(ev.msg.to);
      if (target != nullptr && target->alive()) {
        sc.exec_node = ev.msg.to;
        ++sc.events;
        BeginEventContext(sc.now, ev.msg.to);
        target->Deliver(ev.msg);
      }
      break;
    }
    case EventKind::kFree:
      PEPPER_CHECK(false);
      break;
  }
  sc.exec_node = kNullNode;
}

uint64_t Simulator::RunShardWindow(ShardCore& sc, SimTime end) {
  // The one merge point of the two heaps: whichever of the queue head and
  // the timer top is earlier by (time, seq) runs next.
  uint64_t pops = 0;
  for (;; ++pops) {
    const bool timer_next =
        !sc.timers.Empty() &&
        (sc.queue.Empty() || Earlier(sc.timers.Top(), sc.queue.Top()));
    if (timer_next) {
      if (sc.timers.Top().at >= end) return pops;
      FireShardTimer(sc);
    } else {
      if (sc.queue.Empty() || sc.queue.Top().at >= end) return pops;
      ExecuteShardNext(sc);
    }
  }
}

bool Simulator::AdvanceWindow(SimTime bound) {
  // Window base m: the next pending time across every shard and the
  // control heap.  The window is the lookahead-grid cell that contains m,
  // so its edges depend on no event's presence.
  SimTime m = kNoEvent;
  for (auto& sc : shards_) {
    m = std::min(m, ShardPeekNext(*sc));
  }
  if (!ctrl_heap_.empty()) m = std::min(m, ctrl_heap_.front().at);
  if (m == kNoEvent || m > bound) return false;
  const SimTime e = std::min((m / lookahead_ + 1) * lookahead_, bound + 1);

  // Run [m, e) on every shard with work in the window, one after another.
  // Anything executed inside sends at latency >= lookahead, landing at
  // >= e — outside the window — so the order the shards take their turns
  // in cannot change the schedule.
  uint64_t pops = 0;
  for (auto& sc : shards_) {
    if (sc->next_event >= e) continue;
    exec_shard_ = sc.get();
    pops += RunShardWindow(*sc, e);
  }
  exec_shard_ = nullptr;

  // Barrier: control work due this window, in (time, rank) order.  Plain
  // control ranks are < 2^kSeqBits, so control-originated items sort ahead
  // of shard-deferred ones at the same instant — an arbitrary but fixed
  // rule.
  while (!ctrl_heap_.empty() && ctrl_heap_.front().at < e) {
    std::pop_heap(ctrl_heap_.begin(), ctrl_heap_.end(), CtrlAfter);
    CtrlItem item = std::move(ctrl_heap_.back());
    ctrl_heap_.pop_back();
    now_ = std::max(now_, item.at);
    ++ctrl_events_;
    ++pops;
    BeginEventContext(now_, kNullNode);
    item.fn();
  }
  // Control code after the loop (driver loops, probes) is not
  // event-scoped: drop the last item's log prefix and trace context.
  ClearSimLogContext();
  trace::Tracer::Clear();
  // Pull the control clock to the window edge so driver loops polling
  // now() against a deadline always terminate.
  now_ = std::max(now_, e - 1);
  ++windows_;
  if (pops == 0) ++empty_windows_;
  return true;
}

// --- registry ---------------------------------------------------------------

NodeId Simulator::Register(Node* node) {
  nodes_.push_back(node);
  const NodeId id = static_cast<NodeId>(nodes_.size() - 1);
  tracer_.OnRegister(id);
  PEPPER_CHECK(exec_shard_ == nullptr);  // construction is control-only
  slots_.emplace_back();
  // Seed-derived per-node stream: draw order is a per-node property, so it
  // cannot depend on the shard partition.
  slots_[id].rng = Rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (id + 1)));
  network_.channels_.resize(nodes_.size());
  return id;
}

void Simulator::Unregister(NodeId id) {
  PEPPER_CHECK(exec_shard_ == nullptr);  // teardown at control
  if (id < nodes_.size()) nodes_[id] = nullptr;
  network_.ReleaseNode(id);
}

Node* Simulator::node(NodeId id) const {
  if (id >= nodes_.size()) return nullptr;
  return nodes_[id];
}

bool Simulator::IsAlive(NodeId id) const {
  Node* n = node(id);
  return n != nullptr && n->alive();
}

uint64_t Simulator::events_executed() const {
  uint64_t total = ctrl_events_;
  for (const auto& sc : shards_) total += sc->events;
  return total;
}

size_t Simulator::pending_timers() const {
  size_t total = 0;
  for (const auto& sc : shards_) total += sc->timers.size();
  return total;
}

uint64_t Simulator::timer_fires_executed() const {
  uint64_t total = 0;
  for (const auto& sc : shards_) total += sc->timer_fires;
  return total;
}

}  // namespace pepper::sim
