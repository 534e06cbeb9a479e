#ifndef PEPPER_DATASTORE_REBALANCER_H_
#define PEPPER_DATASTORE_REBALANCER_H_

#include <optional>
#include <vector>

#include "common/key_space.h"
#include "common/stats.h"
#include "common/status.h"
#include "datastore/ds_messages.h"
#include "datastore/item.h"
#include "sim/component.h"

namespace pepper::datastore {

class DataStoreNode;

// The storage-balance engine (Section 2.3 with the availability-preserving
// departure of Section 5): a periodic local check splits an overflowing peer
// (> 2*sf items) with a recruited free peer and resolves an underflowing one
// (< sf items) by proposing a merge to its successor, which answers with a
// redistribution (both end near total/2) or a full takeover (the proposer
// replicates one extra hop, leaves the ring consistently, and transfers its
// range and items).  The check also triggers the last-resort replica revive
// sweep for items whose owner is confirmed dead.
//
// State machine guards: `rebalancing_` marks an operation this peer
// initiated (item traffic bounces while set); `merge_busy_` marks the
// successor side of a proposed takeover, which holds the write lock until
// the leaver's transfer arrives, aborts, or times out (epoch-guarded).
class Rebalancer : public sim::ProtocolComponent {
 public:
  explicit Rebalancer(DataStoreNode* ds);

  // Triggers the overflow/underflow check now (also runs periodically).
  void MaybeRebalance();

  // Forced graceful departure (scenario harness: MassLeave): the full
  // availability-preserving exit — replicate one extra hop, leave the ring
  // consistently, hand range and items to the successor — without waiting
  // for an underflow.  A peer already mid-reorganization ignores the
  // request (callers treat departure as best-effort).
  void RequestLeave();

  // The revive sweep's trigger: does a held replica inside our range hold
  // a key the store lacks?  Reuses the last "no" while our range, the
  // store's content_version() and the held replicas' upsert count are all
  // unchanged — nothing else can add a missing key (see the .cc).
  bool ReviveSweepNeeded();

  // Test/bench observability.
  bool rebalancing() const { return rebalancing_; }
  bool merge_busy() const { return merge_busy_; }

 private:
  void StartSplit();
  // Continuation once the free-peer pool answers (possibly a window later
  // under the sharded simulator); re-validates before materializing.  The
  // trace op spans the whole reorganization and is threaded through every
  // continuation to its terminal outcome.
  void ContinueSplitWithPeer(std::optional<sim::NodeId> free_peer,
                             sim::SimTime started, const trace::OpToken& op);
  void FinishSplit(sim::NodeId free_peer, Key split_point,
                   std::vector<Item> handed, const Status& status,
                   const trace::OpToken& op);
  void StartUnderflow();
  void DoMergeLeave(sim::NodeId succ_id, const trace::OpToken& op);
  void EndRebalance(bool locked);
  void MaybeStartReviveSweep();

  void HandleSplitInsert(const sim::Message& msg,
                         const SplitInsertRequest& req);
  void HandleMergeProposal(const sim::Message& msg, const MergeProposal& req);
  void HandleMergeTakeover(const sim::Message& msg, const MergeTakeover& req);
  void HandleMergeAbort(const sim::Message& msg, const MergeAbort& req);

  DataStoreNode* ds_;

  // Interned metric handles (valid only when the data store has a metrics
  // hub): reorganization outcomes fire under churn, where the string-keyed
  // lookups added up.
  Counters::Id m_revive_sweep_ = 0;
  Counters::Id m_split_no_free_peer_ = 0;
  Counters::Id m_split_failed_ = 0;
  Counters::Id m_splits_ = 0;
  Counters::Id m_redistributes_ = 0;
  Counters::Id m_merges_ = 0;
  Counters::Id m_merge_takeover_failed_ = 0;
  Counters::Id m_takeover_expired_ = 0;
  Counters::Id m_takeover_late_ = 0;
  Histogram* m_split_time_ = nullptr;
  Histogram* m_redistribute_time_ = nullptr;
  Histogram* m_merge_time_ = nullptr;

  bool rebalancing_ = false;
  bool merge_busy_ = false;  // successor side of a proposed merge
  uint64_t takeover_epoch_ = 0;  // guards stale takeover-expiry timers
  sim::NodeId takeover_from_ = sim::kNullNode;
  uint64_t maintenance_timer_ = 0;

  // What a negative ReviveSweepNeeded() probe saw; valid while `negative`.
  struct ReviveProbe {
    bool negative = false;
    RingRange range;
    uint64_t content_version = 0;
    uint64_t replica_upserts = 0;
  };
  ReviveProbe last_revive_probe_;
};

}  // namespace pepper::datastore

#endif  // PEPPER_DATASTORE_REBALANCER_H_
