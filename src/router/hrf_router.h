#ifndef PEPPER_ROUTER_HRF_ROUTER_H_
#define PEPPER_ROUTER_HRF_ROUTER_H_

#include <array>
#include <utility>
#include <vector>

#include "router/content_router.h"

namespace pepper::router {

// One routing-hierarchy pointer: a peer roughly 2^level ring successors
// away.  Shared by the level vector and the refresh replies.
struct LevelEntry {
  sim::NodeId id = sim::kNullNode;
  Key val = 0;

  bool operator==(const LevelEntry& o) const {
    return id == o.id && val == o.val;
  }
  bool operator!=(const LevelEntry& o) const { return !(*this == o); }
};

// Small-vector with N inline slots: elements live in the inline array until
// the first push beyond N, after which everything moves to (and stays on)
// the heap.  Level vectors are log2(cluster size) entries — 16 covers rings
// up to ~65k peers — so in practice every GetLevels reply avoids the
// per-RPC heap allocation the std::vector carried; `spilled()` lets the
// reply path count the exceptions (`router.levels_spill`).
template <typename T, size_t N>
class SmallVec {
 public:
  void push_back(const T& v) {
    if (!spilled_) {
      if (size_ < N) {
        inline_[size_++] = v;
        return;
      }
      spill_.assign(inline_.begin(), inline_.end());
      spilled_ = true;
    }
    spill_.push_back(v);
    ++size_;
  }
  void clear() {
    size_ = 0;
    spill_.clear();
    spilled_ = false;
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool spilled() const { return spilled_; }
  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

 private:
  T* data() { return spilled_ ? spill_.data() : inline_.data(); }
  const T* data() const { return spilled_ ? spill_.data() : inline_.data(); }

  size_t size_ = 0;
  bool spilled_ = false;
  std::array<T, N> inline_{};
  std::vector<T> spill_;
};

// Batched refresh probe: one RPC returns the remote peer's entire level
// vector, so a refresh pass reads each chain peer once.
struct GetLevelsRequest : sim::Payload {};
struct GetLevelsReply : sim::Payload {
  bool valid = false;  // remote is ring-joined and answered with its vector
  // Inline up to 16 levels (rings beyond 2^16 peers spill, counted by
  // `router.levels_spill`).
  SmallVec<LevelEntry, 16> entries;
};

struct HrfOptions {
  RouterOptions base;
  // Base cadence: how often routing levels are rebuilt from the ring.
  sim::SimTime refresh_period = 2 * sim::kSecond;
  // Stability-adaptive cadence: the refresh period doubles after every pass
  // that observes no change — same level-0 successor, every returned vector
  // entry identical to the assembled hierarchy — up to this cap.  It snaps
  // back to `refresh_period` on any hard ring event (successor failure, new
  // successor, peer state change, a timed-out chain peer, a hierarchy
  // cleared under a pass), and halves after two consecutive passes that
  // observed remote vector deltas (a one-off distant delta is tolerated —
  // pointers are hints).  Set equal to `refresh_period` to disable.
  sim::SimTime max_refresh_period = 16 * sim::kSecond;
};

// Order-preserving hierarchical router in the spirit of the P-Ring Content
// Router ("hierarchy of rings", Section 2.3): the level-i pointer of a peer
// is (approximately) its 2^i-th ring successor, built lazily by asking the
// level-(i-1) peer for *its* level-(i-1) pointer.  Routing is greedy: jump
// to the farthest pointer that does not overshoot the key, then finish with
// level-0 successor hops, giving O(log n) lookups.  Pointers may be stale;
// correctness never depends on them (the Data Store range test at each hop
// decides, and the final hops follow the fault-tolerant ring), matching the
// paper's premise that router concurrency is handled elsewhere [2, 6].
//
// That staleness license is what makes maintenance cheap: level refresh is
// batched (one GetLevels RPC per chain peer returns its whole vector) and
// the refresh cadence backs off while the ring is stable (see HrfOptions).
class HrfRouter : public RouterBase {
 public:
  HrfRouter(ring::RingNode* ring, datastore::DataStoreNode* ds,
            HrfOptions options);

  // Number of currently valid levels (for tests/benches).
  size_t num_levels() const { return levels_.size(); }

  // --- Test-only hooks (deterministic race orchestration) ------------------
  // Current adaptive refresh period.
  sim::SimTime refresh_period_for_test() const { return current_period_; }
  // Starts a refresh pass now.
  void refresh_now_for_test() { Tick(); }
  // Simulates the hierarchy being cleared / truncated while a refresh RPC
  // is in flight (ring state change racing a slow reply).
  void clear_levels_for_test() { levels_.clear(); }
  void truncate_levels_for_test(size_t n) {
    if (levels_.size() > n) levels_.resize(n);
  }
  std::vector<LevelEntry> levels_for_test() const { return levels_; }

 protected:
  sim::NodeId NextHop(Key key) override;

 private:
  // One refresh pass walks the chain with GetLevels RPCs.
  void Tick();
  void ChainStep(size_t level, uint64_t pass_epoch);
  void TruncateAndFinish(size_t level, uint64_t pass_epoch);
  // `hard` = instability observed right here (chain timeout, hierarchy
  // cleared/rebuilt under the pass): snap to the base period.  Soft remote
  // vector deltas (pass_changed_) halve the period instead; a clean pass
  // doubles it up to the cap.
  void FinishPass(uint64_t pass_epoch, bool hard);

  // Cadence control.
  void SetPeriod(sim::SimTime period);
  void OnRingEvent();

  // Clockwise distance from this peer's value to `to` (modular Key
  // arithmetic).
  uint64_t DistFromSelf(Key to) const;

  HrfOptions hrf_options_;
  std::vector<LevelEntry> levels_;

  // Adaptive-cadence state.
  sim::SimTime current_period_;
  uint64_t refresh_timer_ = 0;
  ring::PeerState last_state_;
  uint64_t pass_epoch_ = 0;
  bool pass_active_ = false;
  bool pass_changed_ = false;
  int soft_delta_streak_ = 0;
  // Trace span of the in-flight refresh pass (chain walk included);
  // finished by FinishPass.
  trace::OpToken pass_op_;

  // Interned metric handles (see RouterBase): the refresh path increments
  // these once per RPC/reply, the hottest maintenance traffic at scale.
  Counters::Id m_refresh_replies_ = 0;
  Counters::Id m_refresh_rpcs_ = 0;
  Counters::Id m_refresh_passes_ = 0;
  Counters::Id m_levels_spill_ = 0;
  Counters::Id m_refresh_skipped_ = 0;
  Counters::Id m_refresh_hard_events_ = 0;
  Counters::Id m_refresh_deltas_ = 0;
  Counters::Id m_cadence_backoffs_ = 0;
  Counters::Id m_cadence_resets_ = 0;
};

}  // namespace pepper::router

#endif  // PEPPER_ROUTER_HRF_ROUTER_H_
