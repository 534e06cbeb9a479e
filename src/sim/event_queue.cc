#include "sim/event_queue.h"

#include "common/logging.h"

namespace pepper::sim {

Event& EventQueue::Allocate(SimTime at, uint64_t seq) {
  uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = static_cast<uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  Event& ev = pool_[idx];
  ev.at = at;
  ev.seq = seq;
  heap_.Push(HeapEntry{at, seq, idx});
  return ev;
}

void EventQueue::PushClosureSeq(SimTime at, uint64_t seq, NodeId origin,
                                std::function<void()> fn) {
  Event& ev = Allocate(at, seq);
  ev.kind = EventKind::kClosure;
  ev.node = origin;
  ev.fn = std::move(fn);
}

void EventQueue::PushNodeClosureSeq(SimTime at, uint64_t seq, NodeId node,
                                    std::function<void()> fn) {
  Event& ev = Allocate(at, seq);
  ev.kind = EventKind::kNodeClosure;
  ev.node = node;
  ev.fn = std::move(fn);
}

void EventQueue::PushMessageSeq(SimTime at, uint64_t seq, Message msg) {
  Event& ev = Allocate(at, seq);
  ev.kind = EventKind::kMessage;
  ev.msg = std::move(msg);
}

Event EventQueue::PopEvent() {
  PEPPER_CHECK(!heap_.empty());
  const HeapEntry top = heap_.Pop();
  Event out = std::move(pool_[top.idx]);
  Event& slot = pool_[top.idx];
  slot.kind = EventKind::kFree;
  // Moved-from shared_ptr/function are already empty; the explicit resets
  // guard against a std::function whose moved-from state still owns a
  // callable (permitted by the standard).
  slot.msg = Message{};
  slot.fn = nullptr;
  free_.push_back(top.idx);
  return out;
}

uint32_t TimerHeap::Arm(SimTime at, uint64_t seq, Timer timer) {
  uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
    pool_[idx] = std::move(timer);
  } else {
    idx = static_cast<uint32_t>(pool_.size());
    pool_.push_back(std::move(timer));
  }
  heap_.Push(HeapEntry{at, seq, idx});
  return idx;
}

void TimerHeap::Cancel(uint32_t idx) {
  if (idx == firing_) {
    firing_canceled_ = true;
    return;
  }
  PEPPER_CHECK(heap_.Contains(idx));
  Free(idx);
}

void TimerHeap::Free(uint32_t idx) {
  heap_.Remove(idx);
  pool_[idx].fn = nullptr;  // release the closure now, not at reuse
  free_.push_back(idx);
}

}  // namespace pepper::sim
