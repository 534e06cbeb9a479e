#ifndef PEPPER_DATASTORE_DATA_STORE_NODE_H_
#define PEPPER_DATASTORE_DATA_STORE_NODE_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/key_space.h"
#include "common/stats.h"
#include "common/status.h"
#include "datastore/ds_messages.h"
#include "datastore/free_peer_pool.h"
#include "datastore/item.h"
#include "datastore/observer.h"
#include "datastore/range_lock.h"
#include "datastore/scan_engine.h"
#include "ring/ring_node.h"
#include "sim/component.h"
#include "store/item_store.h"

namespace pepper::telemetry {
class LoadMonitor;
}  // namespace pepper::telemetry

namespace pepper::datastore {

class Rebalancer;
class TakeoverEngine;

// Ordered view over a peer's items in circular order starting just past its
// range's low end — the order every split/redistribute decision works in.
// Built on ItemStore cursors, so it works over any backend; iterating
// materializes nothing, and only the prefix a decision actually hands off
// gets copied by the caller.  Iterators are single-pass (input iterators)
// and, like any store cursor, invalidated by item or range mutations;
// consume the view before releasing the facade's write lock.
class CircularItemView {
 public:
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Item;
    using difference_type = std::ptrdiff_t;
    using pointer = const Item*;
    using reference = const Item&;

    reference operator*() const { return cursor_->item(); }
    pointer operator->() const { return &cursor_->item(); }
    Iterator& operator++();
    bool operator==(const Iterator& o) const {
      if (done_ || o.done_) return done_ == o.done_;
      return cursor_->item().skv == o.cursor_->item().skv;
    }
    bool operator!=(const Iterator& o) const { return !(*this == o); }

   private:
    friend class CircularItemView;
    const CircularItemView* view_ = nullptr;
    // Shared so iterators stay copyable; copies alias one position, the
    // usual single-pass input-iterator caveat.
    std::shared_ptr<store::ItemStore::Cursor> cursor_;
    bool wrapped_ = false;
    bool done_ = true;
  };

  Iterator begin() const;
  Iterator end() const;
  // Number of items the iteration visits; O(size) cursor stepping, no Item
  // copies.
  size_t size() const;
  bool empty() const { return begin() == end(); }
  // Materializes the first `n` items in view order (the handed-off prefix
  // of a split/redistribute decision) — the only part that ever copies.
  std::vector<Item> TakePrefix(size_t n) const;

 private:
  friend class DataStoreNode;
  CircularItemView(store::ItemStore* store, const RingRange& range)
      : store_(store), range_(range) {}

  // A full or wrapped range visits every item (keys > lo, then the wrapped
  // tail with keys <= lo); a plain range visits keys in (lo, hi].
  bool wraps() const;
  Key lo_bound() const;
  void Settle(Iterator& it) const;

  store::ItemStore* store_;
  RingRange range_;
};

// What the Data Store needs from the Replication Manager (Section 5.2);
// an interface so the modules stay independently testable.
class ReplicationHooks {
 public:
  virtual ~ReplicationHooks() = default;

  // Replicate everything this peer stores (own items and held replicas) one
  // additional hop before a merge-induced departure (Section 5.2).
  virtual void ReplicateExtraHop(std::function<void(const Status&)> done) = 0;

  // Replicas this peer holds whose keys fall in `arc`; used to revive items
  // after a predecessor failure (the Figure 9 takeover).
  virtual std::vector<Item> CollectReplicasIn(const RingRange& arc) = 0;

  // True if `pred` holds for the key of some held replica inside `arc`;
  // tests keys in place and stops at the first hit.
  virtual bool AnyReplicaIn(const RingRange& arc,
                            const std::function<bool(Key)>& pred) const = 0;

  // Counts batches of items upserted into held replica groups.  Only an
  // upsert can add a key to the held replicas; erases and group drops
  // only remove keys.
  virtual uint64_t replica_upserts() const = 0;

  // The replica-group owners (peer id, ring value) this peer knows of whose
  // values fall in `arc` — i.e. our recent predecessors.  Used to verify an
  // arc is really dead before extending our range over it.
  virtual std::vector<std::pair<sim::NodeId, Key>> GroupOwnersIn(
      const RingRange& arc) = 0;

  // Last-resort revival: for every held group with items inside `range`
  // that the caller is missing, ping the group's owner.  A *departed*
  // (FREE) owner answers and its obsolete group is purged — promoting from
  // it would resurrect items its takeover recipient has since deleted.  A
  // *dead* owner does not answer; its group's in-range items are handed to
  // `promote`.  At most one sweep runs at a time.
  virtual void StartReviveSweep(const RingRange& range,
                                std::function<void(const Item&)> promote) = 0;

  // Pull-based revive (the Definition 7 gap closer): broadcast a bounded
  // "who holds replicas for `arc`?" query along the successor chain.  Peers
  // holding replica groups with items inside the arc answer directly; the
  // freshest copy of each dead owner's group is handed to `promote`,
  // item by item, after the owner's death is verified by ping (a departed
  // owner's frozen group must not resurrect deleted items).  Used by the
  // takeover engine when it extends over an arc for which this peer holds
  // no replica group — e.g. the owner died before ever pushing to us.
  virtual void StartPullRevive(const RingRange& arc,
                               std::function<void(const Item&)> promote) = 0;

  // The local item set changed; schedule a (debounced) replica push.
  virtual void OnLocalItemsChanged() = 0;

  // Push now and report the outcome.  The durable-ack path for client item
  // mutations: an insert or delete is acknowledged only once a second copy
  // exists, so an acked operation survives the immediate crash of its
  // owner.  settled(true) when the first replica hop acked — or when
  // replication is moot (lone peer, replication factor 0); settled(false)
  // when the first hop never acked, i.e. the caller may retry after the
  // ring repairs.
  virtual void PushDurable(std::function<void(bool)> settled) = 0;

  // Items changed hands (redistribute, takeover, revival): push replicas
  // NOW — a failure inside a debounce window must not orphan moved items.
  virtual void PushImmediate() = 0;
};

struct DataStoreOptions {
  // sf: each live peer holds between sf and 2*sf items (Section 2.3).
  // Paper default 5.
  size_t storage_factor = 5;
  // Period of the local overflow/underflow check.
  sim::SimTime maintenance_period = 1 * sim::kSecond;
  sim::SimTime rpc_timeout = 250 * sim::kMillisecond;
  // Abort an operation whose range-lock acquisition stalls this long.
  sim::SimTime lock_timeout = 10 * sim::kSecond;
  // A successor that offered a takeover gives up waiting after this long.
  sim::SimTime takeover_timeout = 30 * sim::kSecond;
  // Wait between retries of a scan held at the successor STAB gate.
  sim::SimTime scan_succ_retry_delay = 50 * sim::kMillisecond;
  int scan_hop_budget = 512;
  // PEPPER replicate-to-additional-hop before a merge departure (Section
  // 5.2); false reproduces the naive baseline that can lose items.
  bool pepper_availability = true;
  // Which engine backs the local item set (and its knobs); see
  // store/item_store.h.  The in-memory default is bit-identical to the
  // paged backend at page_io_latency = 0.
  store::StoreOptions store;
  MetricsHub* metrics = nullptr;         // optional, not owned
  DataStoreObserver* observer = nullptr;  // optional, not owned
  // Windowed load attribution (optional, not owned).  Mutation counts are
  // charged to the owning arc at the instant they execute; the arc identity
  // log itself rides on the observer's OnRangeChange.
  telemetry::LoadMonitor* monitor = nullptr;
};

// The PEPPER Data Store facade (Figure 1).  Owns the peer's assigned range
// (pred.val, val], the ItemStore holding the items mapped into it, and the
// range lock; the three protocol engines stacked on the same host node do
// the actual work:
//
//   ScanEngine      — the scanRange accept/process/forward chain
//                     (Section 4.3.2, Algorithms 3-5)
//   Rebalancer      — storage-balance maintenance: split / merge /
//                     redistribute with free-peer recruitment (Section 2.3)
//                     and the availability-preserving departure (Section 5)
//   TakeoverEngine  — predecessor-failure arc reclaim: claimant
//                     confirmation, extension-boundary probing, replica
//                     revival through ReplicationHooks (Section 5)
//
// The facade exposes the paper's Data Store API unchanged, handles plain
// item traffic itself, and provides the engines a narrow core surface
// (StoreItem/DropItem/set_range/locks) so every range or item mutation is
// observable in one place.  Engines and clients never see the backing
// container: lookups go through HasItem/FindItem, iteration through
// ForEachItem/OrderedItems — the ItemStore contract.
class DataStoreNode : public sim::ProtocolComponent {
 public:
  using ScanHandler = ScanEngine::ScanHandler;
  using DoneFn = std::function<void(const Status&)>;

  DataStoreNode(ring::RingNode* ring, FreePeerPool* pool,
                DataStoreOptions options);
  ~DataStoreNode() override;

  DataStoreNode(const DataStoreNode&) = delete;
  DataStoreNode& operator=(const DataStoreNode&) = delete;

  // --- Lifecycle ----------------------------------------------------------

  // Activates this peer as the first ring member: it owns the full circle.
  void ActivateAsFirst();

  // Activates from a split handoff (wired to the ring's INSERTED event).
  void ActivateFromHandoff(const SplitHandoff& handoff);

  // Wired to the ring's INFOFROMPRED event: the predecessor (and therefore
  // the lower end of our range) changed.
  void OnPredChanged();

  // --- Data Store API (Figure 1) ------------------------------------------

  bool active() const { return active_; }
  const RingRange& range() const { return range_; }
  RangeLock& lock() { return lock_; }
  ring::RingNode* ring() { return ring_; }
  const DataStoreOptions& options() const { return options_; }

  // --- Item access (the ItemStore surface) ---------------------------------

  size_t ItemCount() const { return store_->size(); }
  bool HasItem(Key skv) const { return store_->Contains(skv); }
  // Copies the item out; false when absent.
  bool FindItem(Key skv, Item* out) const {
    return store_->Get(skv, out, nullptr);
  }
  // Visits every stored (item, epoch) in ascending key order.
  void ForEachItem(
      const std::function<void(const Item&, uint64_t)>& fn) const;
  // Materialized copies, for callers that need a container (test
  // assertions).  O(n); prefer ForEachItem on hot paths.
  std::map<Key, Item> ItemsSnapshot() const;
  std::map<Key, uint64_t> ItemEpochsSnapshot() const;

  // Backend observability: cumulative engine counters (buffer hits/faults,
  // evictions, write-backs, page/tree activity) and the backend name.
  const store::StoreStats& store_stats() const { return store_->stats(); }
  const char* store_backend() const { return store_->name(); }

  // getLocalItems(): the items currently in this peer's Data Store.
  std::vector<Item> GetLocalItems() const;

  // --- Mutation epochs (versioned delta replication) -----------------------
  // Every item mutation through the facade core stamps the item with a
  // fresh, strictly increasing epoch; the counter is monotonic for the
  // peer's whole lifetime (never reset on activation), so replica-group
  // versions from one owner are always comparable.  The Replication
  // Manager's delta pushes and manifests are built from these.

  // The epoch of the most recent mutation (0 before the first one).
  uint64_t mutation_epoch() const { return mutation_epoch_; }
  // Bumped by every change to the stored item set: each StoreItem and
  // DropItem, and the clears of activation and deactivation.  Unlike the
  // mutation epoch it carries no replication meaning; it only tells a
  // cached answer about the store's contents that it may be stale.
  uint64_t content_version() const { return content_version_; }
  // True if `skv` was deleted here after `since_epoch` (bounded memory of
  // recent deletions).  Asynchronous revival paths snapshot the epoch when
  // they start and refuse to resurrect anything deleted since — a revive
  // answer must not undo an acked delete that raced its collection window.
  bool DeletedSince(Key skv, uint64_t since_epoch) const;

  // Owner-side insert/delete; fails if this peer does not own the key or a
  // reorganization is in flight (callers retry through the router).
  Status InsertLocal(const Item& item);
  Status DeleteLocal(Key skv);

  void RegisterScanHandler(const std::string& handler_id, ScanHandler fn);

  // scanRange (Algorithm 3); see ScanEngine::ScanRange.
  void ScanRange(Key lb, Key ub, const std::string& handler_id,
                 sim::PayloadPtr param, DoneFn accepted);

  // Triggers the overflow/underflow check now (also runs periodically).
  void MaybeRebalance();

  void set_replication(ReplicationHooks* hooks) { replication_ = hooks; }

  // Runs after every change of the owned arc (activation, deactivation and
  // each set_range).  Multi-subscriber; the content router wakes lookups
  // it holds for a key this peer should own but does not yet.  Subscribers
  // must outlive the store's last activity, as for the ring's hooks.
  void add_on_range_change(std::function<void()> fn) {
    on_range_change_.push_back(std::move(fn));
  }

  // Re-homes an item this peer no longer owns (range shrink discovered with
  // items still on board).  Wired by the stack to the index's routed insert,
  // which retries through reorganizations; without it items fall back to a
  // best-effort predecessor walk.
  using RehomeFn = std::function<void(const Item&)>;
  void set_rehome(RehomeFn fn) { rehome_ = std::move(fn); }

  // Test/bench observability.
  bool rebalancing() const;
  Rebalancer& rebalancer() { return *rebalancer_; }
  ScanEngine& scan_engine() { return *scan_; }

  // --- Engine-facing core --------------------------------------------------
  // The narrow surface ScanEngine / Rebalancer / TakeoverEngine build on;
  // every item or range mutation funnels through here so the observer hooks
  // fire exactly once per placement change.

  FreePeerPool* pool() { return pool_; }
  ReplicationHooks* replication() { return replication_; }
  const RehomeFn& rehome() const { return rehome_; }
  MetricsHub* metrics() const { return options_.metrics; }

  void StoreItem(const Item& item);
  void DropItem(Key skv);
  // Every arc move (split, merge absorb, takeover extension, redistribute
  // jump) funnels through here, so the observer sees each ownership change
  // exactly once — the telemetry arc-attribution contract depends on it.
  void set_range(const RingRange& range);
  void Deactivate();

  // --- Simulated store I/O (deterministic latency charging) ----------------
  // A paged backend accrues `page_io_latency` per fault instead of ever
  // blocking.  Protocol operations bracket their store accesses:
  // BeginStoreOp() at entry discards whatever control-context reads
  // (probes, snapshots) accrued since the last op, then ChargeStoreIo(fn)
  // at the ack point drains the op's own accrual — running `fn` inline
  // when it is zero (the default page_io_latency = 0 therefore replays the
  // in-memory schedule bit-identically; an After(0) would not) and through
  // the node's timer otherwise.  Also flushes per-op store counter deltas
  // into MetricsHub and the windowed telemetry.
  void BeginStoreOp();
  void ChargeStoreIo(std::function<void()> fn);

  // Ordered, copy-free view of our items starting just past the range's
  // low end; split/redistribute decisions iterate only the prefix they
  // hand off.
  CircularItemView OrderedItems() const {
    return CircularItemView(store_.get(), range_);
  }

  // Materialized form of OrderedItems() — O(n) copies; prefer the view on
  // maintenance paths.
  std::vector<Item> ItemsInCircularOrder() const;

  // Lock helpers: cb(false) on timeout (the grant, if it later fires, is
  // released automatically).
  void AcquireReadTimed(std::function<void(bool)> cb);
  void AcquireWriteTimed(std::function<void(bool)> cb);

  // Replicates moved items: immediately under the PEPPER availability
  // protocol, debounced under the naive CFS baseline.
  void ReplicateMovedItems();

  // Pull-based revive over an arc this peer just came to own without
  // holding (all of) its items: a takeover extension past arcs we have no
  // replica group for, or a redistribute whose value jump bridged a dead
  // peer's territory.  Broadcasts the replica query (ReplicationHooks::
  // StartPullRevive) and promotes answers through the guarded path below.
  void PullReviveArc(const RingRange& arc);

 private:
  void Activate(RingRange range, std::vector<Item> items);
  // Tells the observer and the range-change subscribers about range_.
  void NoteRangeChange();
  void HandleInsert(const sim::Message& msg, const DsInsertRequest& req);
  void HandleDelete(const sim::Message& msg, const DsDeleteRequest& req);
  // Acks a mutation once it is replicated (PEPPER) or immediately (naive).
  void ReplyWhenDurable(const sim::Message& msg, const Status& s);
  // Pushes, and on a dead first hop waits out a ring-repair window and
  // retries before acking.
  void AttemptDurableAck(const sim::Message& msg, std::shared_ptr<DsAck> ack,
                         int retries_left);
  // Guarded promotion of a pull-revive answer: ownership, presence, and
  // deletions since `revive_epoch` are re-checked at arrival time; items
  // whose sub-arc moved on mid-revive are re-homed via the routed insert.
  void PromotePulled(const Item& item, uint64_t revive_epoch);
  // Tombstones a client deletion (DeleteLocal only — never handoff drops).
  void RecordRecentDelete(Key skv);
  // Flushes store-counter deltas since the last flush into the interned
  // MetricsHub handles and the per-window telemetry (store hits/faults).
  void NoteStoreActivity();

  ring::RingNode* ring_;
  FreePeerPool* pool_;
  DataStoreOptions options_;
  ReplicationHooks* replication_ = nullptr;
  RehomeFn rehome_;
  std::vector<std::function<void()>> on_range_change_;

  // Interned metric handles (valid only when options_.metrics != nullptr):
  // these fire on activation and per revived item, where the string-keyed
  // map lookup was measurable under churn.
  Counters::Id m_activations_ = 0;
  Counters::Id m_pull_revived_items_ = 0;
  Counters::Id m_pull_revived_rehomed_ = 0;
  // Interned store.* handles, flushed by NoteStoreActivity.
  Counters::Id m_store_hits_ = 0;
  Counters::Id m_store_faults_ = 0;
  Counters::Id m_store_evictions_ = 0;
  Counters::Id m_store_writebacks_ = 0;
  Counters::Id m_store_pages_alloc_ = 0;
  Counters::Id m_store_btree_splits_ = 0;

  bool active_ = false;
  RingRange range_;
  // The storage plane.  Mutable because reads fault buffer-pool state on a
  // paged backend; the facade's const accessors stay const.
  mutable std::unique_ptr<store::ItemStore> store_;
  // Stats already flushed to MetricsHub/telemetry (NoteStoreActivity).
  store::StoreStats flushed_;
  uint64_t mutation_epoch_ = 0;
  uint64_t content_version_ = 0;
  // Epochs of recent deletions, FIFO-bounded (see DeletedSince).
  std::map<Key, uint64_t> recent_delete_epochs_;
  std::deque<std::pair<Key, uint64_t>> recent_delete_order_;
  // Coalesces the replica pushes of one promoted revive batch.
  bool pull_push_pending_ = false;
  RangeLock lock_;

  std::unique_ptr<ScanEngine> scan_;
  std::unique_ptr<Rebalancer> rebalancer_;
  std::unique_ptr<TakeoverEngine> takeover_;
};

}  // namespace pepper::datastore

#endif  // PEPPER_DATASTORE_DATA_STORE_NODE_H_
