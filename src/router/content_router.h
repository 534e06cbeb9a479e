#ifndef PEPPER_ROUTER_CONTENT_ROUTER_H_
#define PEPPER_ROUTER_CONTENT_ROUTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/key_space.h"
#include "common/stats.h"
#include "common/status.h"
#include "datastore/data_store_node.h"
#include "ring/ring_node.h"
#include "sim/component.h"

namespace pepper::router {

// The Content Router of the indexing framework (Figure 1): routes a request
// to the peer whose Data Store range contains a search key value.  The P2P
// Index uses it to find the first peer of a range scan and the owner for
// item inserts/deletes.  Staleness-tolerant by contract: implementations may
// route through outdated pointers, but the final hops always follow level-0
// ring successors, and the destination check is the *current* Data Store
// range at each hop.
class ContentRouter {
 public:
  // done(status, owner, hops): `owner` currently owns `key`.
  using LookupFn =
      std::function<void(const Status&, sim::NodeId owner, int hops)>;

  virtual ~ContentRouter() = default;

  virtual void Lookup(Key key, LookupFn done) = 0;
};

// --- Shared routing messages -------------------------------------------------

struct LookupRequest : sim::Payload {
  uint64_t lookup_id = 0;
  Key key = 0;
  sim::NodeId initiator = sim::kNullNode;
  int hops = 0;       // hops taken so far
  int hops_left = 0;  // budget
  bool greedy = true;  // false: pure successor walk (LinearRouter)
  // Ring value of the peer that forwarded the lookup (unset on the
  // initiator's own first check).  A receiver whose arc (from_val, val]
  // holds the key has been passed the key: see RouterBase::RouteOrAnswer.
  bool has_from = false;
  Key from_val = 0;
};

struct LookupReply : sim::Payload {
  uint64_t lookup_id = 0;
  sim::NodeId owner = sim::kNullNode;
  int hops = 0;
};

struct RouterOptions {
  sim::SimTime lookup_timeout = 5 * sim::kSecond;
  int max_retries = 3;
  MetricsHub* metrics = nullptr;  // optional, not owned
  // Windowed load attribution (optional, not owned): lookups answered by
  // this peer as the owner are charged to its arc.
  telemetry::LoadMonitor* monitor = nullptr;
};

// Base with the shared request/reply plumbing; subclasses choose the next
// hop.
//
// A lookup never passes its key twice.  Each forwarded request carries the
// forwarder's ring value, so a receiver whose arc (from_val, val] holds the
// key knows it was sent as the key's successor.  If it does not own the
// key, the owner can only lie between the forwarder and itself: it hands
// the lookup back to its predecessor when that peer lies in between (the
// forwarder's successor list skipped it), and otherwise holds the lookup
// until its range or its predecessor changes (its range has not yet grown
// over a dead predecessor's arc).  Forwarding it on round the ring instead
// would circle until the hop budget ran out.
class RouterBase : public sim::ProtocolComponent, public ContentRouter {
 public:
  RouterBase(ring::RingNode* ring, datastore::DataStoreNode* ds,
             RouterOptions options, bool greedy);

  void Lookup(Key key, LookupFn done) override;

  // Test-only: positions the id allocator so tests can provoke historical
  // id-reuse schemes deterministically (see router_refresh_test.cc).
  void set_next_lookup_id_for_test(uint64_t v) { next_lookup_id_ = v; }
  size_t pending_lookups_for_test() const { return pending_.size(); }

 protected:
  // Picks the next hop for `key`; kNullNode if no progress is possible.
  virtual sim::NodeId NextHop(Key key) = 0;

  ring::RingNode* ring_;
  datastore::DataStoreNode* ds_;
  RouterOptions options_;

 private:
  void StartAttempt(Key key, uint64_t lookup_id, int retries_left,
                    LookupFn done, const trace::OpToken& op);
  void HandleRequest(const sim::Message& msg, const LookupRequest& req);
  void HandleReply(const sim::Message& msg, const LookupReply& reply);
  // Answers, forwards, hands back or holds the lookup.  `avoid` is a
  // predecessor whose hand-back already failed for this request, and
  // `held_since` the instant the lookup was first held here.
  void RouteOrAnswer(const LookupRequest& req,
                     sim::NodeId avoid = sim::kNullNode,
                     sim::SimTime held_since = kNotHeld);
  void Hold(const LookupRequest& req, sim::NodeId avoid,
            sim::SimTime held_since);
  // Re-routes every held lookup; runs on each change of the owned range
  // and of the ring predecessor.
  void WakeHeld();
  // Acked forwarding with ring fallback: if `next` never acks, or refuses
  // because it is no longer a ring member, re-consult the ring up to
  // `ring_consults_left` times (the successor chain repairs itself between
  // consults); a chain that ends with no live member hop is counted as
  // `router.fwd_dead_end` (the lookup then stalls until the initiator-side
  // retry).
  void ForwardLookup(std::shared_ptr<LookupRequest> fwd, sim::NodeId next,
                     int ring_consults_left);
  void ForwardFallback(std::shared_ptr<LookupRequest> fwd, sim::NodeId next,
                       int ring_consults_left);

  static constexpr sim::SimTime kNotHeld = ~sim::SimTime{0};

  bool greedy_;
  uint64_t next_lookup_id_;
  struct HeldLookup {
    LookupRequest req;
    sim::NodeId avoid;
    sim::SimTime since;
  };
  // A lookup held longer than lookup_timeout is dropped: its initiator has
  // retried by then.
  std::vector<HeldLookup> held_;
  struct PendingLookup {
    LookupFn done;
    // Trace span covering the whole lookup (all attempts); carried across
    // retries and finished when the reply or the final timeout fires.
    trace::OpToken op;
  };
  std::map<uint64_t, PendingLookup> pending_;

  // Interned metric handles: one name lookup at construction, O(1) array
  // increments per operation (the string-keyed scan was per-lookup work on
  // the hottest router path).  Valid only when options_.metrics != nullptr.
  Counters::Id m_lookups_ = 0;
  Counters::Id m_attempts_ = 0;
  Counters::Id m_retries_ = 0;
  Counters::Id m_budget_exhausted_ = 0;
  Counters::Id m_dead_end_ = 0;
  Counters::Id m_held_ = 0;
  Counters::Id m_handed_back_ = 0;
  Histogram* m_hops_ = nullptr;
};

// O(n) baseline: follows ring successors only.
class LinearRouter : public RouterBase {
 public:
  LinearRouter(ring::RingNode* ring, datastore::DataStoreNode* ds,
               RouterOptions options)
      : RouterBase(ring, ds, options, /*greedy=*/false) {}

 protected:
  sim::NodeId NextHop(Key key) override;
};

}  // namespace pepper::router

#endif  // PEPPER_ROUTER_CONTENT_ROUTER_H_
