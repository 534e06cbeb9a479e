#include "history/oracle.h"

#include <algorithm>

namespace pepper::history {

void LivenessOracle::OnStore(sim::NodeId peer, Key skv) {
  KeyState& state = keys_[skv];
  if (state.holders.empty() && !state.open_since.has_value()) {
    state.open_since = sim_->now();
  }
  state.holders.insert(peer);
  peer_keys_[peer].insert(skv);
}

void LivenessOracle::CloseIfEmpty(KeyState& state, bool dropped) {
  if (state.holders.empty() && state.open_since.has_value()) {
    state.live.emplace_back(*state.open_since, sim_->now());
    state.open_since.reset();
    state.dropped = dropped;
  }
}

void LivenessOracle::OnDrop(sim::NodeId peer, Key skv) {
  auto it = keys_.find(skv);
  if (it == keys_.end()) return;
  it->second.holders.erase(peer);
  auto pit = peer_keys_.find(peer);
  if (pit != peer_keys_.end()) pit->second.erase(skv);
  CloseIfEmpty(it->second, /*dropped=*/true);
}

void LivenessOracle::OnPeerFailed(sim::NodeId peer) {
  auto pit = peer_keys_.find(peer);
  if (pit == peer_keys_.end()) return;
  for (Key skv : pit->second) {
    auto it = keys_.find(skv);
    if (it == keys_.end()) continue;
    it->second.holders.erase(peer);
    CloseIfEmpty(it->second, /*dropped=*/false);
  }
  peer_keys_.erase(pit);
}

void LivenessOracle::RegisterInsert(Key skv) { keys_[skv].inserted = true; }

void LivenessOracle::RegisterDelete(Key skv) {
  auto it = keys_.find(skv);
  if (it != keys_.end()) it->second.deleted = true;
}

void LivenessOracle::RegisterUnconfirmedDelete(Key skv, sim::SimTime issued) {
  auto it = keys_.find(skv);
  if (it == keys_.end()) return;
  KeyState& s = it->second;
  if (s.holders.empty() && s.dropped && !s.live.empty() &&
      s.live.back().second >= issued) {
    s.deleted = true;
  }
}

bool LivenessOracle::IsLiveNow(Key skv) const {
  auto it = keys_.find(skv);
  return it != keys_.end() && !it->second.holders.empty();
}

bool LivenessOracle::LiveThroughout(Key skv, sim::SimTime from,
                                    sim::SimTime to) const {
  auto it = keys_.find(skv);
  return it != keys_.end() && LiveThroughout(it->second, from, to);
}

bool LivenessOracle::LiveThroughout(const KeyState& s, sim::SimTime from,
                                    sim::SimTime to) {
  for (const auto& period : s.live) {
    if (period.first <= from && period.second >= to) return true;
  }
  return s.open_since.has_value() && *s.open_since <= from;
}

bool LivenessOracle::EverLiveIn(Key skv, sim::SimTime from,
                                sim::SimTime to) const {
  auto it = keys_.find(skv);
  if (it == keys_.end()) return false;
  const KeyState& s = it->second;
  for (const auto& period : s.live) {
    if (period.first <= to && period.second >= from) return true;
  }
  if (s.open_since.has_value() && *s.open_since <= to) return true;
  return false;
}

LivenessOracle::QueryAudit LivenessOracle::CheckQuery(
    const Span& predicate, sim::SimTime start, sim::SimTime end,
    const std::vector<Key>& result) const {
  QueryAudit audit;
  // Condition 1: every returned item satisfies the predicate and was live
  // at some point during the query.
  for (Key k : result) {
    if (!predicate.Contains(k) || !EverLiveIn(k, start, end)) {
      audit.unexpected.push_back(k);
    }
  }
  // Condition 2: every item satisfying the predicate and live throughout
  // the query is in the result.  Both sides are walked in key order, a
  // merge-join: O(r log r) to sort the r result keys, then O(log n + m + r)
  // for the m tracked keys inside the predicate.
  std::vector<Key> sorted = result;
  std::sort(sorted.begin(), sorted.end());
  auto next = sorted.begin();
  for (auto it = keys_.lower_bound(predicate.lo); it != keys_.end(); ++it) {
    if (it->first > predicate.hi) break;
    if (!LiveThroughout(it->second, start, end)) continue;
    while (next != sorted.end() && *next < it->first) ++next;
    if (next == sorted.end() || *next != it->first) {
      audit.missing.push_back(it->first);
    }
  }
  audit.correct = audit.missing.empty() && audit.unexpected.empty();
  return audit;
}

LivenessOracle::AvailabilityAudit LivenessOracle::CheckAvailability() const {
  AvailabilityAudit audit;
  for (const auto& kv : keys_) {
    const KeyState& s = kv.second;
    if (s.inserted && !s.deleted && s.holders.empty()) {
      audit.lost.push_back(kv.first);
    }
  }
  audit.ok = audit.lost.empty();
  return audit;
}

}  // namespace pepper::history
