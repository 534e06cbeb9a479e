#include "sim/timer_wheel.h"

#include <algorithm>

#include "common/logging.h"

namespace pepper::sim {

namespace {

// Width of one slot at `level`, in microseconds.
constexpr SimTime SlotWidth(int level) {
  return SimTime{1} << (TimerWheel::kSlotBits * level);
}

}  // namespace

TimerWheel::TimerWheel() {
  for (int level = 0; level < kLevels; ++level) {
    for (uint32_t s = 0; s < kSlots; ++s) heads_[level][s] = kNil;
  }
}

uint32_t TimerWheel::AllocateRecord() {
  if (!free_.empty()) {
    const uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  pool_.emplace_back();
  return static_cast<uint32_t>(pool_.size() - 1);
}

uint32_t TimerWheel::Arm(NodeId node, SimTime expiry, SimTime period,
                         std::function<void()> fn, EventQueue* queue,
                         uint64_t seq, bool has_guard) {
  const uint32_t idx = AllocateRecord();
  Timer& t = pool_[idx];
  t.node = node;
  t.period = period;
  t.expiry = expiry;
  t.seq = seq;
  t.fn = std::move(fn);
  t.next = kNil;
  t.canceled = false;
  t.has_guard = has_guard;
  t.fires = kNil;
  ++live_count_;
  if (expiry <= cursor_) {
    // Already due relative to the processing horizon (zero initial delay):
    // skip the wheel, the queue orders it by (expiry, seq) like any event.
    t.state = State::kPending;
    queue->PushTimerFire(expiry, t.seq, idx);
  } else {
    Insert(idx);
  }
  return idx;
}

void TimerWheel::Rearm(uint32_t idx, SimTime expiry, EventQueue* queue,
                       uint64_t seq) {
  Timer& t = pool_[idx];
  PEPPER_CHECK(t.state == State::kPending && !t.canceled);
  t.expiry = expiry;
  t.seq = seq;
  if (expiry <= cursor_) {
    queue->PushTimerFire(expiry, t.seq, idx);  // stays kPending
  } else {
    Insert(idx);
  }
}

void TimerWheel::Cancel(uint32_t idx) {
  Timer& t = pool_[idx];
  if (t.state == State::kFree || t.canceled) return;
  t.canceled = true;
  --live_count_;
}

void TimerWheel::Free(uint32_t idx) {
  Timer& t = pool_[idx];
  PEPPER_CHECK(t.state == State::kPending);
  if (!t.canceled) --live_count_;
  t.state = State::kFree;
  t.canceled = false;
  t.fn = nullptr;  // release the closure now, not at pool destruction
  t.next = kNil;
  free_.push_back(idx);
}

void TimerWheel::Insert(uint32_t idx) {
  Timer& t = pool_[idx];
  const SimTime delta = t.expiry - cursor_;  // Arm/Rearm guarantee > 0
  if ((delta >> (kSlotBits * kLevels)) != 0) {
    // Beyond the ~19h horizon: park in the overflow list.  (Parking in a
    // top-level slot instead would collide with the own-slot boundary rule
    // in LevelEarliestStart and re-park forever.)
    overflow_.push_back(idx);
    overflow_min_ = std::min(overflow_min_, t.expiry);
    t.state = State::kInSlot;
    ++slotted_count_;
    if (cache_valid_ && overflow_min_ < cached_earliest_) {
      cached_earliest_ = overflow_min_;
    }
    return;
  }
  const int msb = 63 - __builtin_clzll(delta);
  const int level = msb / kSlotBits;
  const uint32_t slot = static_cast<uint32_t>(
      (t.expiry >> (kSlotBits * level)) & (kSlots - 1));
  const SimTime slot_start = t.expiry & ~(SlotWidth(level) - 1);
  t.next = heads_[level][slot];
  heads_[level][slot] = idx;
  occupied_[level] |= uint64_t{1} << slot;
  t.state = State::kInSlot;
  ++slotted_count_;
  if (cache_valid_ && slot_start < cached_earliest_) {
    cached_earliest_ = slot_start;
  }
}

SimTime TimerWheel::LevelEarliestStart(int level) const {
  const uint64_t bits = occupied_[level];
  if (bits == 0) return kNoSlot;
  const SimTime width = SlotWidth(level);
  const uint32_t cursor_slot = static_cast<uint32_t>(
      (cursor_ >> (kSlotBits * level)) & (kSlots - 1));
  const SimTime cycle = width << kSlotBits;  // 64 * width
  const SimTime cycle_base = cursor_ & ~(cycle - 1);
  // Slots strictly ahead of the cursor's slot belong to the current cycle;
  // slots strictly behind can only hold next-cycle records (the cursor
  // never passes an occupied slot).  The cursor's own slot is the subtle
  // case: while the cursor sits EXACTLY on the slot boundary — a tie with
  // a finer level advanced it there before this slot was processed — the
  // slot still holds current-cycle records that are due now; once the
  // cursor is strictly inside the slot, only next-cycle records can exist
  // (an insert at offset o into the slot would need a sub-o remainder to
  // land this-cycle, and level L only takes deltas >= its slot width).
  if ((bits >> cursor_slot) & 1) {
    const SimTime own_start = cycle_base + cursor_slot * width;
    if (own_start == cursor_) return own_start;
  }
  const uint64_t ahead =
      cursor_slot + 1 < kSlots ? bits >> (cursor_slot + 1) << (cursor_slot + 1)
                               : 0;
  if (ahead != 0) {
    const uint32_t s = static_cast<uint32_t>(__builtin_ctzll(ahead));
    return cycle_base + s * width;
  }
  const uint64_t behind_or_own = bits & ~(ahead);
  const uint32_t s = static_cast<uint32_t>(__builtin_ctzll(behind_or_own));
  return cycle_base + cycle + s * width;
}

SimTime TimerWheel::RecomputeEarliest() const {
  SimTime best = overflow_min_;
  for (int level = 0; level < kLevels; ++level) {
    best = std::min(best, LevelEarliestStart(level));
  }
  return best;
}

SimTime TimerWheel::EarliestSlotStart() const {
  if (!cache_valid_) {
    cached_earliest_ = RecomputeEarliest();
    cache_valid_ = true;
  }
  PEPPER_CHECK(cached_earliest_ != kNoSlot);
  return cached_earliest_;
}

void TimerWheel::ProcessEarliestSlot(EventQueue* queue) {
  int best_level = -1;
  SimTime best_start = kNoSlot;
  for (int level = 0; level < kLevels; ++level) {
    const SimTime start = LevelEarliestStart(level);
    if (start < best_start) {
      best_start = start;
      best_level = level;
    }
  }
  if (overflow_min_ < best_start) {
    ProcessOverflow(queue);
    return;
  }
  PEPPER_CHECK(best_level >= 0);
  cache_valid_ = false;
  const uint32_t slot = static_cast<uint32_t>(
      (best_start >> (kSlotBits * best_level)) & (kSlots - 1));
  cursor_ = std::max(cursor_, best_start);
  uint32_t idx = heads_[best_level][slot];
  heads_[best_level][slot] = kNil;
  occupied_[best_level] &= ~(uint64_t{1} << slot);
  while (idx != kNil) {
    Timer& t = pool_[idx];
    const uint32_t next = t.next;
    t.next = kNil;
    PEPPER_CHECK(t.state == State::kInSlot);
    --slotted_count_;
    if (t.canceled) {
      t.state = State::kFree;
      t.canceled = false;
      t.fn = nullptr;
      free_.push_back(idx);
    } else if (t.expiry <= cursor_) {
      t.state = State::kPending;
      queue->PushTimerFire(t.expiry, t.seq, idx);
    } else {
      Insert(idx);  // cascade to a finer level
    }
    idx = next;
  }
}

void TimerWheel::ProcessOverflow(EventQueue* queue) {
  // The earliest overflow expiry is the wheel's next due work: advance the
  // cursor to it, then re-home everything — records now within the horizon
  // drop into the wheel proper, still-too-far ones stay parked.  The
  // minimum strictly increases each pass, so this always makes progress.
  cache_valid_ = false;
  cursor_ = std::max(cursor_, overflow_min_);
  std::vector<uint32_t> keep;
  overflow_min_ = kNoSlot;
  for (const uint32_t idx : overflow_) {
    Timer& t = pool_[idx];
    PEPPER_CHECK(t.state == State::kInSlot);
    if (t.canceled) {
      --slotted_count_;
      t.state = State::kFree;
      t.canceled = false;
      t.fn = nullptr;
      free_.push_back(idx);
    } else if (t.expiry <= cursor_) {
      --slotted_count_;
      t.state = State::kPending;
      queue->PushTimerFire(t.expiry, t.seq, idx);
    } else if (((t.expiry - cursor_) >> (kSlotBits * kLevels)) == 0) {
      --slotted_count_;  // Insert re-counts it
      Insert(idx);
    } else {
      keep.push_back(idx);
      overflow_min_ = std::min(overflow_min_, t.expiry);
    }
  }
  overflow_ = std::move(keep);
}

}  // namespace pepper::sim
