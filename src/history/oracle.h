#ifndef PEPPER_HISTORY_ORACLE_H_
#define PEPPER_HISTORY_ORACLE_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/key_space.h"
#include "datastore/observer.h"
#include "sim/simulator.h"

namespace pepper::history {

// Ground-truth liveness tracker.  Observes every Data Store placement event
// in the cluster and maintains, per key, the time intervals during which the
// item was *live* (held by some alive peer's Data Store — Definition 3).
// From that timeline it audits:
//   - query results against Definition 4 (all and only the live matching
//     items), and
//   - item availability against Definition 7 (inserted and not deleted
//     implies live).
// The oracle is omniscient test scaffolding, not part of the system.
class LivenessOracle : public datastore::DataStoreObserver {
 public:
  explicit LivenessOracle(sim::Simulator* sim) : sim_(sim) {}

  // --- DataStoreObserver ---------------------------------------------------
  void OnStore(sim::NodeId peer, Key skv) override;
  void OnDrop(sim::NodeId peer, Key skv) override;

  // The cluster reports fail-stop peer crashes (their held items die with
  // them).
  void OnPeerFailed(sim::NodeId peer);

  // Successful index-level insert/delete completions.
  void RegisterInsert(Key skv);
  void RegisterDelete(Key skv);
  // A delete issued at `issued` that reported failure.  It may still have
  // applied (a timed-out attempt is retried, and only the last attempt's
  // status reaches the client), so it excuses the key only where the key
  // stopped being live by a drop, not a crash, at or after `issued`.  A key
  // lost before the delete was issued, or to a crash while it ran, stays
  // owed.
  void RegisterUnconfirmedDelete(Key skv, sim::SimTime issued);

  // --- Liveness queries ----------------------------------------------------
  bool IsLiveNow(Key skv) const;
  bool LiveThroughout(Key skv, sim::SimTime from, sim::SimTime to) const;
  bool EverLiveIn(Key skv, sim::SimTime from, sim::SimTime to) const;

  // --- Audits --------------------------------------------------------------
  struct QueryAudit {
    bool correct = true;
    // Keys that satisfied the predicate and were live throughout the query
    // but are absent from the result (violates Definition 4 condition 2).
    std::vector<Key> missing;
    // Result keys that never satisfied the predicate or were never live
    // during the query (violates Definition 4 condition 1).
    std::vector<Key> unexpected;
  };
  QueryAudit CheckQuery(const Span& predicate, sim::SimTime start,
                        sim::SimTime end, const std::vector<Key>& result) const;

  struct AvailabilityAudit {
    bool ok = true;
    std::vector<Key> lost;  // inserted, never deleted, not live now
  };
  AvailabilityAudit CheckAvailability() const;

  size_t tracked_keys() const { return keys_.size(); }

 private:
  struct KeyState {
    std::set<sim::NodeId> holders;
    // Closed-open [start, end) periods during which holders was non-empty.
    std::vector<std::pair<sim::SimTime, sim::SimTime>> live;
    std::optional<sim::SimTime> open_since;
    // The last period in `live` ended by a drop (not a peer crash).
    bool dropped = false;
    bool inserted = false;
    bool deleted = false;
  };

  void CloseIfEmpty(KeyState& state, bool dropped);
  static bool LiveThroughout(const KeyState& s, sim::SimTime from,
                             sim::SimTime to);

  sim::Simulator* sim_;
  std::map<Key, KeyState> keys_;
  std::map<sim::NodeId, std::set<Key>> peer_keys_;
};

}  // namespace pepper::history

#endif  // PEPPER_HISTORY_ORACLE_H_
