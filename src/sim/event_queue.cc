#include "sim/event_queue.h"

#include <algorithm>

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
  HeapPush(HeapEntry{at, seq, idx});
  return ev;
}

void EventQueue::PushTimerFire(SimTime at, uint64_t seq, uint32_t timer_idx) {
  Event& ev = Allocate(at, seq);
  ev.kind = EventKind::kTimerFire;
  ev.timer_idx = timer_idx;
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

SimTime EventQueue::NextTime() const {
  PEPPER_CHECK(!heap_.empty());
  return heap_[0].at;
}

Event EventQueue::PopEvent() {
  const HeapEntry top = HeapPop();
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

void EventQueue::HeapPush(HeapEntry e) {
  heap_.push_back(e);
  size_t i = heap_.size() - 1;
  while (i > 0) {
    const size_t parent = (i - 1) >> 2;
    if (!Earlier(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

EventQueue::HeapEntry EventQueue::HeapPop() {
  PEPPER_CHECK(!heap_.empty());
  const HeapEntry top = heap_[0];
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    const size_t n = heap_.size();
    size_t i = 0;
    for (;;) {
      const size_t first_child = 4 * i + 1;
      if (first_child >= n) break;
      size_t best = first_child;
      const size_t end = std::min(first_child + 4, n);
      for (size_t c = first_child + 1; c < end; ++c) {
        if (Earlier(heap_[c], heap_[best])) best = c;
      }
      if (!Earlier(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return top;
}

}  // namespace pepper::sim
