#include "datastore/data_store_node.h"

#include <iterator>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "datastore/rebalancer.h"
#include "datastore/takeover_engine.h"
#include "telemetry/load_monitor.h"

namespace pepper::datastore {

DataStoreNode::DataStoreNode(ring::RingNode* ring, FreePeerPool* pool,
                             DataStoreOptions options)
    : sim::ProtocolComponent(ring->node()),
      ring_(ring),
      pool_(pool),
      options_(std::move(options)),
      store_(store::MakeItemStore(options_.store)) {
  if (options_.metrics != nullptr) {
    Counters& ctr = options_.metrics->counters();
    m_activations_ = ctr.Intern("ds.activations");
    m_pull_revived_items_ = ctr.Intern("ds.pull_revived_items");
    m_pull_revived_rehomed_ = ctr.Intern("ds.pull_revived_rehomed");
    m_store_hits_ = ctr.Intern("store.hits");
    m_store_faults_ = ctr.Intern("store.faults");
    m_store_evictions_ = ctr.Intern("store.evictions");
    m_store_writebacks_ = ctr.Intern("store.writebacks");
    m_store_pages_alloc_ = ctr.Intern("store.pages_alloc");
    m_store_btree_splits_ = ctr.Intern("store.btree_splits");
  }
  On<DsInsertRequest>(
      [this](const sim::Message& m, const DsInsertRequest& req) {
        HandleInsert(m, req);
      });
  On<DsDeleteRequest>(
      [this](const sim::Message& m, const DsDeleteRequest& req) {
        HandleDelete(m, req);
      });
  scan_ = std::make_unique<ScanEngine>(this);
  rebalancer_ = std::make_unique<Rebalancer>(this);
  takeover_ = std::make_unique<TakeoverEngine>(this);
}

DataStoreNode::~DataStoreNode() = default;

// --- Lifecycle --------------------------------------------------------------

void DataStoreNode::Activate(RingRange range, std::vector<Item> items) {
  active_ = true;
  range_ = range;
  // Arc born before its items land, so attribution never sees an item on an
  // unknown arc.
  if (options_.observer != nullptr) {
    options_.observer->OnRangeChange(id(), range_, /*active=*/true);
  }
  store_->Clear();
  ++content_version_;
  // Deletion memory is per incarnation: answering "recently deleted" for a
  // key this store only deleted in a previous life would wrongly ack a
  // fresh delete as idempotent.
  recent_delete_epochs_.clear();
  recent_delete_order_.clear();
  for (const Item& it : items) {
    StoreItem(it);
  }
  for (const auto& fn : on_range_change_) fn();
}

void DataStoreNode::ActivateAsFirst() {
  Activate(RingRange::Full(ring_->val()), {});
}

void DataStoreNode::ActivateFromHandoff(const SplitHandoff& handoff) {
  Activate(handoff.range, handoff.items);
  if (options_.metrics != nullptr) {
    options_.metrics->counters().Inc(m_activations_);
  }
  if (replication_ != nullptr) replication_->OnLocalItemsChanged();
}

void DataStoreNode::Deactivate() {
  if (options_.observer != nullptr) {
    // Collect first: the observer must not run against a live cursor.
    std::vector<Key> keys;
    keys.reserve(store_->size());
    for (auto cur = store_->SeekFirst(); cur->valid(); cur->Next()) {
      keys.push_back(cur->item().skv);
    }
    for (Key skv : keys) options_.observer->OnDrop(id(), skv);
  }
  store_->Clear();
  ++content_version_;
  active_ = false;
  range_ = RingRange::Empty();
  NoteRangeChange();
}

void DataStoreNode::set_range(const RingRange& range) {
  range_ = range;
  NoteRangeChange();
}

void DataStoreNode::NoteRangeChange() {
  if (options_.observer != nullptr) {
    options_.observer->OnRangeChange(id(), range_, active_);
  }
  for (const auto& fn : on_range_change_) fn();
}

void DataStoreNode::OnPredChanged() { takeover_->OnPredChanged(); }

// --- Basic item plumbing ----------------------------------------------------

void DataStoreNode::StoreItem(const Item& item) {
  store_->Put(item, ++mutation_epoch_);
  ++content_version_;
  if (options_.observer != nullptr) {
    options_.observer->OnStore(id(), item.skv);
  }
}

void DataStoreNode::DropItem(Key skv) {
  ++content_version_;
  if (store_->Erase(skv)) {
    // A drop advances the group version too: replica manifests must
    // diverge from any copy still holding the item.
    ++mutation_epoch_;
  }
  if (options_.observer != nullptr) {
    options_.observer->OnDrop(id(), skv);
  }
}

// Records a CLIENT deletion (and only that): DropItem is also the handoff
// path for splits/redistributes/orphans, and an item that merely moved must
// neither satisfy a later delete as "already deleted" nor block its own
// revival through DeletedSince.
void DataStoreNode::RecordRecentDelete(Key skv) {
  constexpr size_t kRecentDeleteCap = 1024;
  recent_delete_epochs_[skv] = mutation_epoch_;
  recent_delete_order_.emplace_back(skv, mutation_epoch_);
  while (recent_delete_order_.size() > kRecentDeleteCap) {
    const auto& oldest = recent_delete_order_.front();
    auto it = recent_delete_epochs_.find(oldest.first);
    if (it != recent_delete_epochs_.end() && it->second == oldest.second) {
      recent_delete_epochs_.erase(it);
    }
    recent_delete_order_.pop_front();
  }
}

bool DataStoreNode::DeletedSince(Key skv, uint64_t since_epoch) const {
  auto it = recent_delete_epochs_.find(skv);
  return it != recent_delete_epochs_.end() && it->second > since_epoch;
}

std::vector<Item> DataStoreNode::GetLocalItems() const {
  std::vector<Item> out;
  out.reserve(store_->size());
  for (auto cur = store_->SeekFirst(); cur->valid(); cur->Next()) {
    out.push_back(cur->item());
  }
  return out;
}

void DataStoreNode::ForEachItem(
    const std::function<void(const Item&, uint64_t)>& fn) const {
  for (auto cur = store_->SeekFirst(); cur->valid(); cur->Next()) {
    fn(cur->item(), cur->epoch());
  }
}

std::map<Key, Item> DataStoreNode::ItemsSnapshot() const {
  std::map<Key, Item> out;
  for (auto cur = store_->SeekFirst(); cur->valid(); cur->Next()) {
    out.emplace_hint(out.end(), cur->item().skv, cur->item());
  }
  return out;
}

std::map<Key, uint64_t> DataStoreNode::ItemEpochsSnapshot() const {
  std::map<Key, uint64_t> out;
  for (auto cur = store_->SeekFirst(); cur->valid(); cur->Next()) {
    out.emplace_hint(out.end(), cur->item().skv, cur->epoch());
  }
  return out;
}

Status DataStoreNode::InsertLocal(const Item& item) {
  if (!active_) return Status::Unavailable("data store inactive");
  if (!range_.Contains(item.skv)) {
    return Status::FailedPrecondition("key not in this peer's range");
  }
  if (rebalancer_->rebalancing()) {
    // A split or departure this peer initiated is moving its items; an
    // insert accepted now could be silently left behind.  (A merge takeover
    // we merely *offered* — merge_busy — is safe for item traffic: our
    // range only grows, atomically, when the transfer arrives.)
    return Status::Unavailable("range reorganization in progress");
  }
  StoreItem(item);
  if (options_.monitor != nullptr) options_.monitor->OnMutation(id(), now());
  if (replication_ != nullptr) replication_->OnLocalItemsChanged();
  return Status::OK();
}

Status DataStoreNode::DeleteLocal(Key skv) {
  if (!active_) return Status::Unavailable("data store inactive");
  if (!range_.Contains(skv)) {
    return Status::FailedPrecondition("key not in this peer's range");
  }
  if (rebalancer_->rebalancing()) {
    return Status::Unavailable("range reorganization in progress");
  }
  if (!store_->Contains(skv)) {
    // Idempotent retry: a delete that already applied here — its ack lost
    // to a failure, or delayed past the caller's timeout by the durable-ack
    // replication wait — must succeed, not NotFound.  The caller's oracle
    // bookkeeping follows the acknowledgement; answering NotFound for a
    // delete we performed ourselves desynchronizes it permanently.
    if (recent_delete_epochs_.count(skv) > 0) return Status::OK();
    return Status::NotFound();
  }
  DropItem(skv);
  RecordRecentDelete(skv);
  if (options_.monitor != nullptr) options_.monitor->OnMutation(id(), now());
  if (replication_ != nullptr) replication_->OnLocalItemsChanged();
  return Status::OK();
}

// --- Simulated store I/O ----------------------------------------------------

void DataStoreNode::BeginStoreOp() {
  // Latency accrued since the last op belongs to control-context reads
  // (probes, snapshots, test assertions) — they must never shift the event
  // schedule, so their accrual is discarded, not charged.
  store_->DrainAccruedLatency();
}

void DataStoreNode::ChargeStoreIo(std::function<void()> fn) {
  NoteStoreActivity();
  const uint64_t accrued = store_->DrainAccruedLatency();
  if (accrued == 0) {
    // Inline, not After(0): a zero-delay timer is a schedule event, and the
    // zero-latency paged backend must replay the in-memory schedule
    // bit-identically.
    fn();
    return;
  }
  After(static_cast<sim::SimTime>(accrued), std::move(fn));
}

void DataStoreNode::NoteStoreActivity() {
  const store::StoreStats& s = store_->stats();
  if (options_.monitor != nullptr) {
    const uint64_t dh = s.hits - flushed_.hits;
    const uint64_t df = s.faults - flushed_.faults;
    if (dh != 0 || df != 0) {
      options_.monitor->OnStoreAccess(id(), dh, df, now());
    }
  }
  if (options_.metrics != nullptr) {
    Counters& ctr = options_.metrics->counters();
    if (s.hits != flushed_.hits) {
      ctr.Inc(m_store_hits_, s.hits - flushed_.hits);
    }
    if (s.faults != flushed_.faults) {
      ctr.Inc(m_store_faults_, s.faults - flushed_.faults);
    }
    if (s.evictions != flushed_.evictions) {
      ctr.Inc(m_store_evictions_, s.evictions - flushed_.evictions);
    }
    if (s.writebacks != flushed_.writebacks) {
      ctr.Inc(m_store_writebacks_, s.writebacks - flushed_.writebacks);
    }
    if (s.pages_alloc != flushed_.pages_alloc) {
      ctr.Inc(m_store_pages_alloc_, s.pages_alloc - flushed_.pages_alloc);
    }
    if (s.btree_splits != flushed_.btree_splits) {
      ctr.Inc(m_store_btree_splits_, s.btree_splits - flushed_.btree_splits);
    }
  }
  flushed_ = s;
}

// --- CircularItemView --------------------------------------------------------

bool CircularItemView::wraps() const {
  return range_.full() || range_.lo() >= range_.hi();
}

Key CircularItemView::lo_bound() const {
  return range_.full() ? range_.hi() : range_.lo();
}

// Turns a raw (cursor, wrapped) position into either a valid element or the
// canonical end state.
void CircularItemView::Settle(Iterator& it) const {
  if (wraps()) {
    if (!it.wrapped_ && !it.cursor_->valid()) {
      // Keys above lo exhausted: continue with the wrapped tail, which runs
      // up to hi (== the anchor for a full range, so the tail then covers
      // every remaining key).  Items in the uncovered gap (hi, lo] are not
      // ours and stay out of the view, same as the plain-range branch.
      it.cursor_ = store_->SeekFirst();
      it.wrapped_ = true;
    }
    it.done_ = !it.cursor_->valid() ||
               (it.wrapped_ && it.cursor_->item().skv > range_.hi());
  } else {
    it.done_ = !it.cursor_->valid() || it.cursor_->item().skv > range_.hi();
  }
}

CircularItemView::Iterator CircularItemView::begin() const {
  if (range_.IsEmpty()) return end();
  Iterator it;
  it.view_ = this;
  it.cursor_ = store_->SeekAfter(lo_bound());
  it.wrapped_ = false;
  Settle(it);
  return it;
}

CircularItemView::Iterator CircularItemView::end() const {
  Iterator it;
  it.view_ = this;
  it.done_ = true;
  return it;
}

CircularItemView::Iterator& CircularItemView::Iterator::operator++() {
  cursor_->Next();
  view_->Settle(*this);
  return *this;
}

size_t CircularItemView::size() const {
  size_t n = 0;
  for (Iterator it = begin(); it != end(); ++it) ++n;
  return n;
}

std::vector<Item> CircularItemView::TakePrefix(size_t n) const {
  std::vector<Item> out;
  out.reserve(n);
  for (Iterator it = begin(); out.size() < n && it != end(); ++it) {
    out.push_back(*it);
  }
  return out;
}

std::vector<Item> DataStoreNode::ItemsInCircularOrder() const {
  const CircularItemView view = OrderedItems();
  std::vector<Item> out;
  for (const Item& it : view) out.push_back(it);
  return out;
}

// --- Lock helpers -----------------------------------------------------------

void DataStoreNode::AcquireReadTimed(std::function<void(bool)> cb) {
  auto state = std::make_shared<int>(0);  // 0 pending, 1 granted, 2 timed out
  lock_.AcquireRead([this, state, cb]() {
    if (*state == 2) {
      lock_.ReleaseRead();  // grant arrived after the caller gave up
      return;
    }
    *state = 1;
    cb(true);
  });
  if (*state == 1) return;
  After(options_.lock_timeout, [state, cb]() {
    if (*state == 0) {
      *state = 2;
      cb(false);
    }
  });
}

void DataStoreNode::AcquireWriteTimed(std::function<void(bool)> cb) {
  auto state = std::make_shared<int>(0);
  lock_.AcquireWrite([this, state, cb]() {
    if (*state == 2) {
      lock_.ReleaseWrite();
      return;
    }
    *state = 1;
    cb(true);
  });
  if (*state == 1) return;
  After(options_.lock_timeout, [state, cb]() {
    if (*state == 0) {
      *state = 2;
      cb(false);
    }
  });
}

// --- Delegation to the engines ----------------------------------------------

void DataStoreNode::RegisterScanHandler(const std::string& handler_id,
                                        ScanHandler fn) {
  scan_->RegisterHandler(handler_id, std::move(fn));
}

void DataStoreNode::ScanRange(Key lb, Key ub, const std::string& handler_id,
                              sim::PayloadPtr param, DoneFn accepted) {
  scan_->ScanRange(lb, ub, handler_id, std::move(param), std::move(accepted));
}

void DataStoreNode::MaybeRebalance() { rebalancer_->MaybeRebalance(); }

bool DataStoreNode::rebalancing() const { return rebalancer_->rebalancing(); }

// --- Item traffic -----------------------------------------------------------

void DataStoreNode::HandleInsert(const sim::Message& msg,
                                 const DsInsertRequest& req) {
  BeginStoreOp();
  const Status s = InsertLocal(req.item);
  // The mutation's own page faults (tree descent, leaf write, splits) delay
  // the acknowledgement path, never the mutation itself.
  ChargeStoreIo([this, msg, s]() { ReplyWhenDurable(msg, s); });
}

void DataStoreNode::HandleDelete(const sim::Message& msg,
                                 const DsDeleteRequest& req) {
  BeginStoreOp();
  const Status s = DeleteLocal(req.skv);
  ChargeStoreIo([this, msg, s]() { ReplyWhenDurable(msg, s); });
}

// Acknowledges an item mutation.  Under the PEPPER availability protocol a
// successful mutation is acked only after the first replica hop holds it
// (PushDurable): without this, an owner crashing inside the replica-push
// debounce window takes a freshly *acknowledged* item with it — a
// Definition 7 violation no revival can undo, because no copy ever
// existed.  The naive CFS baseline acks immediately and keeps that window.
void DataStoreNode::ReplyWhenDurable(const sim::Message& msg,
                                     const Status& s) {
  auto ack = std::make_shared<DsAck>();
  ack->ok = s.ok();
  ack->error = s.message();
  if (s.ok() && options_.pepper_availability && replication_ != nullptr) {
    AttemptDurableAck(msg, ack, /*retries_left=*/2);
    return;
  }
  Reply(msg, ack);
  if (s.ok()) {
    After(0, [this]() { MaybeRebalance(); });
  }
}

void DataStoreNode::AttemptDurableAck(const sim::Message& msg,
                                      std::shared_ptr<DsAck> ack,
                                      int retries_left) {
  TraceMark("ds.durable_push");
  replication_->PushDurable([this, msg, ack, retries_left](bool replicated) {
    if (!replicated && retries_left > 0) {
      TraceMark("ds.durable_retry");
      // The first replica hop never acked — most likely it just died.
      // Wait one ping period for the ring to repair the chain, then push
      // again to the repaired successor; acking now would reopen the
      // acked-item-dies-with-owner window.
      After(ring_->options().ping_period, [this, msg, ack, retries_left]() {
        AttemptDurableAck(msg, ack, retries_left - 1);
      });
      return;
    }
    Reply(msg, ack);
    After(0, [this]() { MaybeRebalance(); });
  });
}

void DataStoreNode::PullReviveArc(const RingRange& arc) {
  if (replication_ == nullptr || arc.IsEmpty()) return;
  // Snapshot the epoch: answers arriving later must not resurrect anything
  // deleted here after the query went out.
  const uint64_t revive_epoch = mutation_epoch_;
  replication_->StartPullRevive(arc, [this, revive_epoch](const Item& item) {
    PromotePulled(item, revive_epoch);
  });
}

void DataStoreNode::PromotePulled(const Item& item, uint64_t revive_epoch) {
  // An acked delete that raced the revive's collection window must win:
  // the answering holder's copy predates it.
  if (DeletedSince(item.skv, revive_epoch)) return;
  if (active_ && range_.Contains(item.skv) && !lock_.write_held()) {
    if (store_->Contains(item.skv)) return;
    StoreItem(item);
    TraceMark("ds.pull_promote", item.skv);
    if (options_.metrics != nullptr) {
      options_.metrics->counters().Inc(m_pull_revived_items_);
    }
    // One push per promoted batch, not per item: a whole group's answers
    // arrive in the same event, so the zero-delay timer coalesces them.
    if (!pull_push_pending_) {
      pull_push_pending_ = true;
      After(0, [this]() {
        pull_push_pending_ = false;
        ReplicateMovedItems();
      });
    }
    return;
  }
  // The answers raced a reorganization: between the query and this answer
  // the arc (or part of it) moved on — a split handed the lower half to a
  // recruit, or this peer deactivated (merge departure).  The item is
  // still dead without us; route it to whoever owns the key now
  // (idempotent routed insert with retries), the same path stale-range
  // orphans take.
  if (rehome_) {
    TraceMark("ds.pull_rehome", item.skv);
    rehome_(item);
    if (options_.metrics != nullptr) {
      options_.metrics->counters().Inc(m_pull_revived_rehomed_);
    }
  }
}

void DataStoreNode::ReplicateMovedItems() {
  if (replication_ == nullptr) return;
  if (options_.pepper_availability) {
    // Items that changed hands must not sit in a debounce window; a failure
    // there would orphan them.
    replication_->PushImmediate();
  } else {
    // Naive baseline: the original CFS manager only refreshes periodically.
    replication_->OnLocalItemsChanged();
  }
}

}  // namespace pepper::datastore
