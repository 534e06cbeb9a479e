#include "sim/node.h"

#include <typeinfo>

#include "common/logging.h"
#include "trace/tracer.h"

namespace pepper::sim {

Node::Node(Simulator* sim) : sim_(sim), id_(sim->Register(this)) {}

Node::~Node() {
  // Armed timers would otherwise fire into a destroyed node.
  CancelPendingRpcTimers();
  CancelAllTimers();
  sim_->Unregister(id_);
}

void Node::Fail() {
  if (!alive_) return;
  alive_ = false;
  CancelPendingRpcTimers();
  pending_.clear();
  CancelAllTimers();
  // Fail-stop: this peer never sends again, so its FIFO channel
  // bookkeeping can be dropped now rather than at destruction (churn runs
  // keep failed node objects around for the whole simulation).
  sim_->network().ReleaseNode(id_);
  OnFail();
}

void Node::Send(NodeId to, PayloadPtr payload) {
  if (!alive_) return;
  Message msg;
  msg.from = id_;
  msg.to = to;
  msg.payload = std::move(payload);
  const TraceContext& ctx = trace::Tracer::Current();
  if (ctx.trace_id != 0) {
    msg.trace = ctx;
    msg.trace.sent_at = sim_->now();
  }
  sim_->network().Send(std::move(msg));
}

Node::PendingCall* Node::FindPending(uint64_t rpc_id) {
  for (PendingCall& call : pending_) {
    if (call.rpc_id == rpc_id) return &call;
  }
  return nullptr;
}

void Node::ErasePending(PendingCall* call) {
  if (call != &pending_.back()) *call = std::move(pending_.back());
  pending_.pop_back();
}

void Node::RpcTimeoutFire(uint64_t rpc_id) {
  PendingCall* call = FindPending(rpc_id);
  if (call == nullptr) return;  // already answered
  if (TelemetrySink* sink = sim_->telemetry_sink()) {
    // Charged to the callee: whether it is dead or merely slow, it failed
    // to answer within the deadline — the gray-failure signal.
    sink->OnRpcTimeout(id_, call->to, sim_->now());
  }
  TimeoutFn cb = std::move(call->on_timeout);
  ErasePending(call);
  if (cb) cb();
}

void Node::Call(NodeId to, PayloadPtr payload, ReplyFn on_reply,
                SimTime timeout, TimeoutFn on_timeout) {
  if (!alive_) return;
  const uint64_t rpc_id = next_rpc_id_++;
  // Traced calls capture the caller's context so the timeout continuation
  // (a retry, typically) stays inside the trace.  The untraced shape keeps
  // the small 16-byte capture — it must not grow, or every RPC would pay a
  // std::function heap allocation.
  const TraceContext ctx = trace::Tracer::Current();
  uint32_t timer_idx;
  if (ctx.trace_id != 0) {
    timer_idx = sim_->ArmTimer(id_, sim_->now() + timeout, /*period=*/0,
                               [this, rpc_id, ctx]() {
                                 trace::Tracer::SetCurrent(ctx);
                                 RpcTimeoutFire(rpc_id);
                               });
  } else {
    timer_idx = sim_->ArmTimer(id_, sim_->now() + timeout, /*period=*/0,
                               [this, rpc_id]() { RpcTimeoutFire(rpc_id); });
  }
  pending_.push_back(PendingCall{rpc_id, timer_idx, to, std::move(on_reply),
                                 std::move(on_timeout)});
  Message msg;
  msg.from = id_;
  msg.to = to;
  msg.rpc_id = rpc_id;
  msg.payload = std::move(payload);
  if (ctx.trace_id != 0) {
    msg.trace = ctx;
    msg.trace.sent_at = sim_->now();
  }
  sim_->network().Send(std::move(msg));
}

void Node::Reply(const Message& request, PayloadPtr payload) {
  if (!alive_) return;
  PEPPER_CHECK(request.rpc_id != 0 && !request.is_response);
  Message msg;
  msg.from = id_;
  msg.to = request.from;
  msg.rpc_id = request.rpc_id;
  msg.is_response = true;
  msg.payload = std::move(payload);
  const TraceContext& ctx = trace::Tracer::Current();
  if (ctx.trace_id != 0) {
    msg.trace = ctx;
    msg.trace.sent_at = sim_->now();
  }
  sim_->network().Send(std::move(msg));
}

void Node::After(SimTime delay, std::function<void()> fn) {
  // The alive guard (node still registered — ids are never reused — and
  // alive) lives in the event record itself; no wrapper closure.  Inside a
  // trace, the continuation carries the caller's context (durable-ack
  // re-attempts, backoff retries stay in the causal tree); the wrapper only
  // exists on that sampled path.
  const TraceContext ctx = trace::Tracer::Current();
  if (ctx.trace_id != 0) {
    sim_->AfterOnNode(id_, delay, [ctx, fn = std::move(fn)]() {
      trace::Tracer::SetCurrent(ctx);
      fn();
    });
    return;
  }
  sim_->AfterOnNode(id_, delay, std::move(fn));
}

uint64_t Node::Every(const char* label, SimTime period,
                     std::function<void()> fn, SimTime initial_delay) {
  PEPPER_CHECK(period > 0);  // period 0 marks one-shot timer records
  // A timer armed after failure would map a timer record the already-ran
  // CancelAllTimers never sees; when it fizzles and its record is recycled,
  // this node's destructor would cancel whoever reused the record.
  if (!alive_) return next_timer_id_++;  // never fires, cancel is a no-op
  const uint64_t timer_id = next_timer_id_++;
  const uint32_t idx = sim_->ArmTimer(id_, sim_->now() + initial_delay,
                                      period, std::move(fn),
                                      sim_->FireCounter(label));
  active_timers_.emplace(timer_id, idx);
  return timer_id;
}

void Node::CancelTimer(uint64_t timer_id) {
  auto it = active_timers_.find(timer_id);
  if (it == active_timers_.end()) return;
  sim_->CancelTimer(id_, it->second);
  active_timers_.erase(it);
}

void Node::CancelAllTimers() {
  for (const auto& entry : active_timers_) {
    sim_->CancelTimer(id_, entry.second);
  }
  active_timers_.clear();
}

void Node::CancelPendingRpcTimers() {
  for (const PendingCall& call : pending_) {
    sim_->CancelTimer(id_, call.timeout_timer);
  }
}

void Node::Deliver(const Message& msg) {
  if (!alive_) return;
  if (TelemetrySink* sink = sim_->telemetry_sink()) {
    // Charged to this node's own windowed backlog counters.
    sink->OnMessageDelivered(id_, msg.rpc_id != 0 && !msg.is_response,
                             sim_->now());
  }
  if (msg.trace.trace_id != 0) {
    // Record the hop span [sent_at, now] and install the delivery context,
    // so handler-side work (and the reply) continues the causal chain.
    sim_->tracer().OnDeliver(msg, id_, sim_->now());
  }
  if (msg.is_response) {
    PendingCall* call = FindPending(msg.rpc_id);
    if (call == nullptr) return;  // late reply after timeout: ignore
    sim_->CancelTimer(id_, call->timeout_timer);
    ReplyFn cb = std::move(call->on_reply);
    ErasePending(call);
    if (cb) cb(msg);
    return;
  }
  const uint32_t tid = msg.payload.type_id();
  if (tid < handlers_.size() && handlers_[tid]) {
    handlers_[tid](msg);
    return;
  }
  PEPPER_LOG(Warn) << "node " << id_ << ": unhandled payload type "
                   << typeid(*msg.payload).name();
}

}  // namespace pepper::sim
