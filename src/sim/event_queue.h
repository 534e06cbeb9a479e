#ifndef PEPPER_SIM_EVENT_QUEUE_H_
#define PEPPER_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/message.h"

namespace pepper::sim {

// What a pooled event does when it fires.  The common simulator traffic
// (message deliveries, periodic-timer ticks) uses dedicated kinds that carry
// their data by value inside the fixed-size record, so the steady-state hot
// path allocates nothing; kClosure is the generic fallback for everything
// else.
enum class EventKind : uint8_t {
  kFree = 0,     // recycled record sitting on the free list
  kClosure,      // run fn unconditionally (Simulator::At / After)
  kNodeClosure,  // run fn iff `node` is still registered and alive
  kMessage,      // deliver msg to msg.to iff registered and alive
  kTimerFire,    // periodic-timer tick; timer_idx indexes the TimerWheel pool
};

// One fixed-size event record.  Records live in the EventQueue's arena and
// are recycled through a free list; in steady state no event ever touches
// the heap (the std::function is only engaged for closure kinds, and the
// Message's payload pointer is created by the sender either way).
struct Event {
  SimTime at = 0;
  uint64_t seq = 0;
  EventKind kind = EventKind::kFree;
  NodeId node = kNullNode;    // kNodeClosure: alive-guard target
  uint32_t timer_idx = 0;     // kTimerFire: TimerWheel record index
  Message msg;                // kMessage: carried by value, no per-send lambda
  std::function<void()> fn;   // kClosure / kNodeClosure
};

// Time-ordered pooled event queue.  Ordering is by (at, seq), where the
// caller supplies seq — the simulator's composite (origin node, per-origin
// counter) values, allocated outside the queue so the (at, seq) order is
// identical for any shard count.  A 4-ary index heap over arena slots
// enforces it (heap entries are small PODs; the fat records never move
// during sifts).
class EventQueue {
 public:
  // `origin` on the closure variant records the node whose execution
  // scheduled it (the core's context attribution); it carries no alive
  // guard.
  void PushClosureSeq(SimTime at, uint64_t seq, NodeId origin,
                      std::function<void()> fn);
  void PushNodeClosureSeq(SimTime at, uint64_t seq, NodeId node,
                          std::function<void()> fn);
  void PushMessageSeq(SimTime at, uint64_t seq, Message msg);
  // Timer fires keep the seq assigned when the timer was (re)armed — see
  // TimerWheel — so a tick orders against same-instant events exactly as if
  // it had been pushed at arm time.
  void PushTimerFire(SimTime at, uint64_t seq, uint32_t timer_idx);

  bool Empty() const { return heap_.empty(); }
  // Time of the earliest event.  A window base needs only this (a lower
  // bound is enough on the window grid), so the queue exposes no peek at
  // the record itself.
  SimTime NextTime() const;

  // Pops the earliest event, MOVING it out of the arena (the slot is
  // recycled before return).  The old implementation const_cast the
  // priority_queue's const top() to steal its closure — the pool makes the
  // move-out legitimate, and tests/event_core_test.cc pins that no copy of
  // the event state survives in the queue afterwards.
  Event PopEvent();

  size_t size() const { return heap_.size(); }
  // Arena introspection for bench_sim_core: steady state is reached when
  // pool_capacity stops growing (every push is served from the free list).
  size_t pool_capacity() const { return pool_.capacity(); }
  size_t free_count() const { return free_.size(); }

 private:
  struct HeapEntry {
    SimTime at;
    uint64_t seq;
    uint32_t idx;  // arena slot
  };
  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  // Grabs an arena slot, stamps (at, seq) and links it into the heap.
  Event& Allocate(SimTime at, uint64_t seq);
  void HeapPush(HeapEntry e);
  HeapEntry HeapPop();

  std::vector<Event> pool_;
  std::vector<uint32_t> free_;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap on (at, seq)
};

}  // namespace pepper::sim

#endif  // PEPPER_SIM_EVENT_QUEUE_H_
