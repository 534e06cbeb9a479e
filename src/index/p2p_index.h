#ifndef PEPPER_INDEX_P2P_INDEX_H_
#define PEPPER_INDEX_P2P_INDEX_H_

#include <map>
#include <vector>

#include "common/key_space.h"
#include "common/stats.h"
#include "common/status.h"
#include "datastore/data_store_node.h"
#include "index/index_messages.h"
#include "ring/ring_node.h"
#include "router/content_router.h"
#include "sim/component.h"

namespace pepper::index {

struct IndexOptions {
  // true: range queries use the scanRange primitive (Section 4.3.2) with
  // coverage verification and resume; false: the naive application-level
  // ring walk of Section 6.2 (no correctness guarantee).
  bool pepper_scan = true;
  sim::SimTime query_timeout = 30 * sim::kSecond;
  // A correct-mode query with no progress for this long resumes from the
  // first uncovered key.
  sim::SimTime progress_timeout = 2 * sim::kSecond;
  sim::SimTime watchdog_period = 200 * sim::kMillisecond;
  sim::SimTime rpc_timeout = 500 * sim::kMillisecond;
  sim::SimTime retry_delay = 200 * sim::kMillisecond;
  int insert_retries = 6;
  MetricsHub* metrics = nullptr;  // optional, not owned
};

// The P2P Index of the framework (Figure 1, top): findItems / insertItem /
// deleteItem over the Content Router and Data Store.  Range queries
// (Algorithm 6/7) register a rangeQuery handler with scanRange; each visited
// peer streams <items, r> to the initiator, which assembles coverage of
// [lb, ub] — completion of the union is exactly Definition 6 condition 4, so
// a completed query is a correct query result (Theorem 3).
class P2PIndex : public sim::ProtocolComponent {
 public:
  using DoneFn = std::function<void(const Status&)>;
  // done(status, items): items sorted by key.  status OK iff the result is
  // complete (covers the whole query range).
  using QueryFn =
      std::function<void(const Status&, std::vector<datastore::Item>)>;

  P2PIndex(ring::RingNode* ring, datastore::DataStoreNode* ds,
           router::ContentRouter* router, IndexOptions options);

  P2PIndex(const P2PIndex&) = delete;
  P2PIndex& operator=(const P2PIndex&) = delete;

  // insertItem / deleteItem: route to the owner, store, retry on
  // reorganization races.
  void InsertItem(const datastore::Item& item, DoneFn done);
  void DeleteItem(Key skv, DoneFn done);

  // findItems with a range predicate [lb, ub] (equality is lb == ub).
  void RangeQuery(const Span& span, QueryFn done);

  size_t active_queries() const { return queries_.size(); }
  // True while the watchdog timer is armed: exactly while a query is in
  // flight at this peer.
  bool watchdog_armed() const { return watchdog_timer_ != 0; }
  // The instant of the watchdog's first tick had it run since construction;
  // every tick lands on watchdog_grid() + k * watchdog_period.
  sim::SimTime watchdog_grid() const { return watchdog_grid_; }

 private:
  struct ActiveQuery {
    Span span{0, 0};
    SpanCoverage coverage{Span{0, 0}};
    std::map<Key, datastore::Item> items;
    QueryFn done;
    sim::SimTime started = 0;
    sim::SimTime last_progress = 0;
    bool naive = false;
    bool kicking = false;
    // Trace span covering the whole query (kicks, resumes, partials);
    // finished when the query completes or times out.
    trace::OpToken op;
  };

  void AttemptInsert(const datastore::Item& item, int retries_left,
                     DoneFn done);
  void AttemptDelete(Key skv, int retries_left, DoneFn done);

  void Kick(uint64_t query_id);
  void KickNaive(uint64_t query_id);
  void Finish(uint64_t query_id, const Status& status);
  void Watchdog();
  // Arms the watchdog at the first point of its construction-time grid at
  // least one lookahead out (the earliest a control-context arm can land),
  // so ticks fall at the instants an always-on timer would have used.
  void ArmWatchdog();

  void HandleStartScan(const sim::Message& msg, const StartScanRequest& req);
  void HandleQueryPartial(const sim::Message& msg, const QueryPartial& part);
  void HandleNaiveScan(const sim::Message& msg, const NaiveScanMsg& scan);
  void HandleQueryDone(const sim::Message& msg, const QueryDoneMsg& done);

  ring::RingNode* ring_;
  datastore::DataStoreNode* ds_;
  router::ContentRouter* router_;
  IndexOptions options_;

  uint64_t next_query_id_;
  // Interned metric handles: per-operation counters on the index hot path
  // (string-keyed lookup hoisted to construction).  Valid only when
  // options_.metrics != nullptr.
  Counters::Id m_inserts_ = 0;
  Counters::Id m_deletes_ = 0;
  Counters::Id m_queries_ = 0;
  Counters::Id m_queries_completed_ = 0;
  Counters::Id m_queries_failed_ = 0;
  Counters::Id m_scan_overlaps_ = 0;
  Counters::Id m_query_resumes_ = 0;
  Histogram* m_query_time_ = nullptr;
  std::map<uint64_t, ActiveQuery> queries_;
  // First tick of the watchdog grid (construction time + period), and the
  // timer id while armed (0 when idle).
  sim::SimTime watchdog_grid_ = 0;
  uint64_t watchdog_timer_ = 0;
};

}  // namespace pepper::index

#endif  // PEPPER_INDEX_P2P_INDEX_H_
