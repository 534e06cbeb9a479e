#ifndef PEPPER_SIM_TIMER_WHEEL_H_
#define PEPPER_SIM_TIMER_WHEEL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.h"
#include "sim/message.h"

namespace pepper::sim {

// Hierarchical timer wheel for the periodic protocol timers (Node::Every):
// stabilize, ping, replication refresh, anti-entropy, router refresh and
// data store maintenance — thousands of live timers at paper scale, each
// firing many times — plus the index watchdog, which is armed only while
// its peer has a query in flight.  Arm, cancel and rearm are O(1) and
// allocation-free; the per-timer closure is allocated once when the timer
// is created and reused across every tick (the old path re-captured it
// into a fresh heap closure per tick).
//
// Levels are 64 slots wide; level L slots span 64^L microseconds, so six
// levels cover ~19.4 simulated hours of delay.  Longer delays sit in a
// plain overflow list that is rescanned whenever its earliest expiry is
// the wheel's next due work — correct, just not O(1); no periodic
// protocol gets close to the horizon.
//
// Determinism contract: a timer carries the (expiry, seq) it was armed
// with; when its slot comes due the record is injected into the EventQueue
// with exactly that key, so ticks interleave with same-instant messages and
// closures in (at, seq) order — identical tie-breaking to pushing the tick
// into the queue at arm time.  The wheel itself never compares anything but times, so its
// behavior is a pure function of the arm/cancel call sequence.
//
// Cancellation is lazy: Cancel marks the record and the mark is honored
// (and the record recycled) when its slot is processed or its injected
// fire event executes.  That keeps cancel O(1) without doubly-linked slot
// lists; a canceled record lingers at most one period, exactly like the
// orphaned tick event of the old ScheduleTick path.
class TimerWheel {
 public:
  static constexpr uint32_t kNil = 0xffffffffu;
  static constexpr int kLevels = 6;
  static constexpr int kSlotBits = 6;
  static constexpr uint32_t kSlots = 1u << kSlotBits;  // 64

  enum class State : uint8_t {
    kFree = 0,  // on the free list
    kInSlot,    // linked into a wheel slot
    kPending,   // injected into the EventQueue, awaiting execution
  };

  // period == 0 marks a one-shot record (RPC timeouts, far-future After
  // closures): it fires once and is recycled instead of rearmed.
  // node == kNullNode marks a record with no alive guard (plain
  // Simulator::After closures parked here to keep the heap shallow).
  struct Timer {
    NodeId node = kNullNode;
    // Counters handle of the periodic timer's `sim.fires.<label>` count;
    // kNil for one-shot records.  Set by the simulator after Arm.  (Placed
    // beside `node` so it fills padding rather than growing the record.)
    uint32_t fires = kNil;
    SimTime period = 0;
    SimTime expiry = 0;
    uint64_t seq = 0;          // EventQueue seq assigned at (re)arm
    std::function<void()> fn;  // allocated once, reused across ticks
    uint32_t next = kNil;      // intrusive singly-linked slot list
    State state = State::kFree;
    bool canceled = false;
    bool has_guard = true;     // false: run even without a live node
  };

  // Arms a new timer; returns its record index (stable until the record is
  // recycled, which happens only after cancellation or node death is
  // observed at fire/slot time).  If expiry is not in the future relative
  // to the wheel cursor the fire event is injected into `queue` directly.
  // `seq` is the (at, seq) tie-break key the fire will carry — the caller
  // allocates it (the simulator's composite per-origin seq).
  uint32_t Arm(NodeId node, SimTime expiry, SimTime period,
               std::function<void()> fn, EventQueue* queue, uint64_t seq,
               bool has_guard = true);
  // Re-arms a just-fired record (state kPending) for its next tick.  O(1).
  void Rearm(uint32_t idx, SimTime expiry, EventQueue* queue, uint64_t seq);
  // Lazy-cancels; the record is recycled when next touched.  O(1).
  void Cancel(uint32_t idx);
  // Recycles a kPending record whose fire event fizzled (canceled or node
  // dead).  Only the Simulator calls this.
  void Free(uint32_t idx);

  Timer& timer(uint32_t idx) { return pool_[idx]; }

  // True while any record is linked in a slot or parked in the overflow
  // list (pending fires are already in the EventQueue and need no
  // draining).
  bool HasSlottedTimers() const { return slotted_count_ > 0; }
  // Start of the earliest occupied slot (or the earliest overflow expiry)
  // — a lower bound on every held record's expiry.  Requires
  // HasSlottedTimers().
  SimTime EarliestSlotStart() const;
  // Processes the earliest occupied slot: recycles canceled records,
  // injects due records into `queue` as kTimerFire events, cascades the
  // rest to finer levels.  Advances the cursor to the slot start.
  void ProcessEarliestSlot(EventQueue* queue);

  size_t live_count() const { return live_count_; }
  size_t pool_capacity() const { return pool_.capacity(); }

 private:
  uint32_t AllocateRecord();
  void Insert(uint32_t idx);
  void ProcessOverflow(EventQueue* queue);
  // Earliest occupied slot start at one level (kNoSlot if empty).
  SimTime LevelEarliestStart(int level) const;
  SimTime RecomputeEarliest() const;

  static constexpr SimTime kNoSlot = ~SimTime{0};

  std::vector<Timer> pool_;
  std::vector<uint32_t> free_;
  uint64_t occupied_[kLevels] = {};        // per-level slot bitmaps
  uint32_t heads_[kLevels][kSlots];        // slot list heads (init kNil)
  // Records whose delta exceeds the wheel horizon; rescanned (re-inserting
  // whatever now fits the wheel) when overflow_min_ is the earliest bound.
  std::vector<uint32_t> overflow_;
  SimTime overflow_min_ = kNoSlot;
  // Monotonic processing horizon: every slot processed so far started at or
  // before cursor_, and every event the simulator has executed was at or
  // after it — so inserts always land ahead of it.
  SimTime cursor_ = 0;
  size_t slotted_count_ = 0;
  size_t live_count_ = 0;  // armed and not canceled (slotted or pending)
  // Cached EarliestSlotStart(): kept as a running min on insert (a slot
  // start never decreases otherwise), invalidated by slot processing.  The
  // drain loop probes this once per simulator step, so it must be O(1).
  mutable SimTime cached_earliest_ = kNoSlot;
  mutable bool cache_valid_ = false;

 public:
  TimerWheel();
};

}  // namespace pepper::sim

#endif  // PEPPER_SIM_TIMER_WHEEL_H_
