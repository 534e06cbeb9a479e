#ifndef PEPPER_SIM_EVENT_QUEUE_H_
#define PEPPER_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/message.h"

namespace pepper::sim {

// One heap entry: the (at, seq) key and the index of the record it orders.
// Callers supply every seq — the simulator's composite (origin node,
// per-origin counter) values, allocated outside the heaps so the (at, seq)
// order is identical for any shard count.  Keys are unique.
struct HeapEntry {
  SimTime at;
  uint64_t seq;
  uint32_t idx;
};

// (at, seq) order as one 128-bit compare: branch-free, so the sifts' child
// selection below compiles to conditional moves instead of mispredicting.
inline bool Earlier(const HeapEntry& a, const HeapEntry& b) {
  using Key = unsigned __int128;
  return ((Key{a.at} << 64) | a.seq) < ((Key{b.at} << 64) | b.seq);
}

// 4-ary min-heap of HeapEntry on (at, seq), the one sift implementation
// behind both per-core ordered structures.  Entries are small PODs; the
// records they index never move during sifts.  kIndexed keeps a
// record -> position array so an entry can be re-keyed or removed in place
// (the timer heap); the event queue only ever pops the top.
template <bool kIndexed>
class QuadHeap {
 public:
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  const HeapEntry& top() const { return heap_[0]; }

  void Push(HeapEntry e) {
    if constexpr (kIndexed) {
      if (e.idx >= pos_.size()) pos_.resize(e.idx + 1, kAbsent);
    }
    heap_.push_back(e);
    SiftUp(heap_.size() - 1, e);
  }
  HeapEntry Pop() {
    const HeapEntry top = heap_[0];
    RemoveAt(0);
    return top;
  }

  // kIndexed only.  Whether record `idx` has an entry.
  bool Contains(uint32_t idx) const {
    return idx < pos_.size() && pos_[idx] != kAbsent;
  }
  // kIndexed only.  Gives record `idx` a key no earlier than its current
  // one; its ancestors stay earlier, so one sift-down places it.
  void Rekey(uint32_t idx, SimTime at, uint64_t seq) {
    SiftDown(pos_[idx], HeapEntry{at, seq, idx});
  }
  // kIndexed only.  Unlinks record `idx`'s entry.
  void Remove(uint32_t idx) { RemoveAt(pos_[idx]); }

 private:
  static constexpr uint32_t kAbsent = 0xffffffffu;

  void Place(size_t i, const HeapEntry& e) {
    heap_[i] = e;
    if constexpr (kIndexed) pos_[e.idx] = static_cast<uint32_t>(i);
  }
  // Removes the entry at position i; the last entry takes its place.
  void RemoveAt(size_t i) {
    if constexpr (kIndexed) pos_[heap_[i].idx] = kAbsent;
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    if (i > 0 && Earlier(last, heap_[(i - 1) >> 2])) {
      SiftUp(i, last);
    } else {
      SiftDown(i, last);
    }
  }
  void SiftUp(size_t i, HeapEntry e) {
    while (i > 0) {
      const size_t parent = (i - 1) >> 2;
      if (!Earlier(e, heap_[parent])) break;
      Place(i, heap_[parent]);
      i = parent;
    }
    Place(i, e);
  }
  void SiftDown(size_t i, HeapEntry e) {
    const size_t n = heap_.size();
    for (;;) {
      const size_t c = 4 * i + 1;  // first child
      if (c >= n) break;
      size_t best = c;
      if (c + 4 <= n) {  // all four children: a two-round tournament
        const size_t a = Earlier(heap_[c + 1], heap_[c]) ? c + 1 : c;
        const size_t b = Earlier(heap_[c + 3], heap_[c + 2]) ? c + 3 : c + 2;
        best = Earlier(heap_[b], heap_[a]) ? b : a;
      } else {
        for (size_t k = c + 1; k < n; ++k) {
          if (Earlier(heap_[k], heap_[best])) best = k;
        }
      }
      if (!Earlier(heap_[best], e)) break;
      Place(i, heap_[best]);
      i = best;
    }
    Place(i, e);
  }

  std::vector<HeapEntry> heap_;
  std::vector<uint32_t> pos_;  // kIndexed: record idx -> heap position
};

// What a pooled event does when it fires.  Message deliveries carry their
// data by value inside the fixed-size record, so the steady-state hot path
// allocates nothing; the closure kinds engage a std::function.
enum class EventKind : uint8_t {
  kFree = 0,     // recycled record sitting on the free list
  kClosure,      // run fn unconditionally (Simulator::At / After)
  kNodeClosure,  // run fn iff `node` is still registered and alive
  kMessage,      // deliver msg to msg.to iff registered and alive
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
  Message msg;                // kMessage: carried by value, no per-send lambda
  std::function<void()> fn;   // kClosure / kNodeClosure
};

// Time-ordered pooled event queue: arena records ordered by a QuadHeap.
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

  bool Empty() const { return heap_.empty(); }
  // Key of the earliest event (the queue exposes no peek at the record).
  const HeapEntry& Top() const { return heap_.top(); }

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
  // Grabs an arena slot, stamps (at, seq) and links it into the heap.
  Event& Allocate(SimTime at, uint64_t seq);

  std::vector<Event> pool_;
  std::vector<uint32_t> free_;
  QuadHeap<false> heap_;
};

// Per-core pending timers: Node::Every ticks and the one-shot RPC timeouts
// of Node::Call.  Each record keeps the closure it was armed with and
// reuses it across ticks; its (at, seq) key — seq assigned at (re)arm, like
// any event's — lives in an indexed QuadHeap, so the simulator merges the
// timer top with the queue head in exact (at, seq) order.  Cancel unlinks
// the entry at once; a fired periodic timer is re-keyed in place.
class TimerHeap {
 public:
  static constexpr uint32_t kNil = 0xffffffffu;

  struct Timer {
    NodeId node = kNullNode;  // owner; every timer is alive-guarded
    // Counters handle of the periodic timer's `sim.fires.<label>` count;
    // kNil for one-shot records.
    uint32_t fires = kNil;
    SimTime period = 0;        // 0: one-shot (fires once, then recycled)
    std::function<void()> fn;  // allocated once, reused across ticks
  };

  // Arms a new timer due at (at, seq); returns its record index, stable
  // until the record is canceled or a one-shot has fired.
  uint32_t Arm(SimTime at, uint64_t seq, Timer timer);
  // Unlinks and recycles an armed record; while the record is firing
  // (between StartFire and FinishFire) it only marks it, and FinishFire
  // reports the cancel.
  void Cancel(uint32_t idx);

  bool Empty() const { return heap_.empty(); }
  const HeapEntry& Top() const { return heap_.top(); }
  Timer& timer(uint32_t idx) { return pool_[idx]; }

  // Firing protocol of the top record `idx`, which keeps its entry while
  // its closure runs: StartFire, run the closure, then FinishFire — false
  // if the record was canceled meanwhile — and either Rearm it at a later
  // key or Free it.
  void StartFire(uint32_t idx) {
    firing_ = idx;
    firing_canceled_ = false;
  }
  bool FinishFire() {
    firing_ = kNil;
    return !firing_canceled_;
  }
  void Rearm(uint32_t idx, SimTime at, uint64_t seq) {
    heap_.Rekey(idx, at, seq);
  }
  // Unlinks and recycles the record.
  void Free(uint32_t idx);

  // Armed timers (firing ones included).
  size_t size() const { return heap_.size(); }

 private:
  std::vector<Timer> pool_;
  std::vector<uint32_t> free_;
  QuadHeap<true> heap_;
  uint32_t firing_ = kNil;
  bool firing_canceled_ = false;
};

}  // namespace pepper::sim

#endif  // PEPPER_SIM_EVENT_QUEUE_H_
