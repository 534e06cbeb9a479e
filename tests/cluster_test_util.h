#ifndef PEPPER_TESTS_CLUSTER_TEST_UTIL_H_
#define PEPPER_TESTS_CLUSTER_TEST_UTIL_H_

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "workload/cluster.h"

namespace pepper::workload {

// Result of checking that the active Data Store ranges partition the key
// circle: pairwise disjoint and jointly complete.
struct PartitionAudit {
  bool ok = true;
  std::vector<std::string> problems;
};

inline PartitionAudit AuditRangePartition(const Cluster& cluster) {
  PartitionAudit audit;
  std::vector<const PeerStack*> active;
  for (const auto& p : cluster.peers()) {
    if (p->ring->alive() && p->ds->active()) active.push_back(p.get());
  }
  if (active.empty()) {
    audit.ok = false;
    audit.problems.push_back("no active data stores");
    return audit;
  }
  if (active.size() == 1) {
    if (!active[0]->ds->range().full()) {
      audit.ok = false;
      audit.problems.push_back("single peer does not own the full circle");
    }
    return audit;
  }
  // With multiple peers: each range is (lo, hi]; the set of (lo, hi) pairs
  // must chain: sorted by hi, each range's lo equals the previous range's
  // hi (cyclically).
  std::vector<std::pair<Key, Key>> ranges;  // (lo, hi)
  for (const PeerStack* p : active) {
    const RingRange& r = p->ds->range();
    if (r.full()) {
      audit.ok = false;
      audit.problems.push_back("peer " + std::to_string(p->id()) +
                               " claims the full circle among others");
      return audit;
    }
    ranges.emplace_back(r.lo(), r.hi());
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  for (size_t i = 0; i < ranges.size(); ++i) {
    const auto& prev = ranges[(i + ranges.size() - 1) % ranges.size()];
    if (ranges[i].first != prev.second) {
      audit.ok = false;
      audit.problems.push_back(
          "gap/overlap: range (" + std::to_string(ranges[i].first) + ", " +
          std::to_string(ranges[i].second) + "] does not start at previous " +
          "hi " + std::to_string(prev.second));
    }
  }
  return audit;
}

// Every stored item must lie in its holder's range.
inline PartitionAudit AuditItemPlacement(const Cluster& cluster) {
  PartitionAudit audit;
  for (const auto& p : cluster.peers()) {
    if (!p->ring->alive() || !p->ds->active()) continue;
    p->ds->ForEachItem([&](const datastore::Item& item, uint64_t) {
      if (!p->ds->range().Contains(item.skv)) {
        audit.ok = false;
        audit.problems.push_back("peer " + std::to_string(p->id()) +
                                 " holds out-of-range key " +
                                 std::to_string(item.skv));
      }
    });
  }
  return audit;
}

// --- Engineered Definition 7 availability gap (the PR 2 repro) --------------
// Shared by revive_test (loss without / recovery with pull revive) and
// trace_test (flight-recorder forensics on the engineered loss).

inline constexpr Key kGapKeySpan = 1000000;

// Replication that only ever reacts to change-triggered pushes: the
// periodic refresh and the group TTL are pushed far beyond the test
// horizon, so the only group copies in play are the ones the construction
// placed deliberately.
inline ClusterOptions GapOptions(uint64_t seed, bool pull_revive) {
  ClusterOptions o = ClusterOptions::FastDefaults();
  o.seed = seed;
  o.repl.replication_factor = 2;
  o.repl.refresh_period = 600 * sim::kSecond;
  o.repl.group_ttl = 3600 * sim::kSecond;
  o.repl.push_delay = 10 * sim::kMillisecond;
  o.repl.pull_revive = pull_revive;
  return o;
}

inline std::vector<PeerStack*> MembersByVal(const Cluster& c) {
  std::vector<PeerStack*> members = c.LiveMembers();
  std::sort(members.begin(), members.end(), [](PeerStack* a, PeerStack* b) {
    return a->ring->val() < b->ring->val();
  });
  return members;
}

// Builds the gap: ring ... P, O, T, U0 ... where U0 splits, inserting a
// brand-new peer U between T and U0 (U is seeded with group(T) only); then
// O and T die in the same instant.  U becomes the owner of O's arc while
// holding no replica group for O — but U0, two hops back, still does.
// Returns the number of items O owned (the stake), or 0 if the topology
// never offered a usable trio (caller skips the seed).
inline size_t BuildGapAndKill(Cluster& c, uint64_t seed) {
  c.Bootstrap(kGapKeySpan);
  for (int i = 0; i < 24; ++i) c.AddFreePeer();
  c.RunFor(sim::kSecond);
  sim::Rng rng(seed * 31);
  for (int i = 0; i < 80; ++i) {
    if (!c.InsertItem(rng.Uniform(0, kGapKeySpan)).ok()) return 0;
  }
  c.RunFor(2 * sim::kSecond);

  // Place every owner's group on its *current* k successors.
  for (PeerStack* p : c.LiveMembers()) p->repl->PushNow();
  c.RunFor(2 * sim::kSecond);

  // A trio O -> T -> U0 where U0's range is linear and wide enough to aim
  // inserts into, and O has items at stake.
  auto members = MembersByVal(c);
  if (members.size() < 8) return 0;
  PeerStack* o_peer = nullptr;
  PeerStack* t_peer = nullptr;
  PeerStack* u0_peer = nullptr;
  for (size_t i = 0; i < members.size(); ++i) {
    PeerStack* a = members[i];
    PeerStack* b = members[(i + 1) % members.size()];
    PeerStack* d = members[(i + 2) % members.size()];
    const RingRange& r = d->ds->range();
    if (!r.full() && r.lo() < r.hi() && r.hi() - r.lo() > 1000 &&
        a->ds->ItemCount() > 0 && a->ds->range().lo() < a->ds->range().hi()) {
      o_peer = a;
      t_peer = b;
      u0_peer = d;
      break;
    }
  }
  if (o_peer == nullptr) return 0;
  // U0 must hold O's group (it is O's second successor, k=2).
  if (u0_peer->repl->groups().count(o_peer->id()) == 0) return 0;

  // Overflow U0 so it splits: the recruit U is inserted between T and U0,
  // seeded with group(T) — and nothing of O's.
  const uint64_t splits_before = c.metrics().counters().Get("ds.splits");
  const Key lo = u0_peer->ds->range().lo();
  const Key hi = u0_peer->ds->range().hi();
  const Key width = hi - lo;
  for (Key j = 1; j <= 14; ++j) {
    (void)c.InsertItem(lo + (width * j) / 16);
    if (c.metrics().counters().Get("ds.splits") > splits_before) break;
  }
  if (c.metrics().counters().Get("ds.splits") == splits_before) return 0;
  c.RunFor(sim::kSecond);

  // Find U: live, joined after the split, squeezed between T and U0.
  PeerStack* u_peer = nullptr;
  for (PeerStack* p : c.LiveMembers()) {
    if (p == u0_peer || p == t_peer) continue;
    const RingRange& r = p->ds->range();
    if (!r.full() && r.lo() >= t_peer->ring->val() && r.hi() <= hi &&
        r.lo() < r.hi()) {
      u_peer = p;
    }
  }
  if (u_peer == nullptr) return 0;
  // The gap precondition: the brand-new successor holds nothing of O.
  if (u_peer->repl->groups().count(o_peer->id()) > 0) return 0;

  const size_t at_stake = o_peer->ds->ItemCount();
  if (at_stake == 0) return 0;
  // O and T die in the same simulated instant — before O ever stabilizes
  // with U or refreshes its chain.  Group(O) now lives only on U0, two
  // hops behind the new owner U.
  c.FailPeer(t_peer);
  c.FailPeer(o_peer);
  return at_stake;
}

}  // namespace pepper::workload

#endif  // PEPPER_TESTS_CLUSTER_TEST_UTIL_H_
