#ifndef PEPPER_STORE_ITEM_STORE_H_
#define PEPPER_STORE_ITEM_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/key_space.h"
#include "datastore/item.h"

namespace pepper::store {

using datastore::Item;

// Which engine backs a peer's local item set.
enum class StoreBackend : uint8_t {
  kInMemory = 0,  // std::map — the historical default, zero overhead
  kPaged = 1,     // page arena + buffer pool + per-arc B+-tree
};

enum class ReplacementPolicy : uint8_t {
  kFifo = 0,  // evict the frame loaded longest ago
  kLru = 1,   // evict the frame touched longest ago
};

struct StoreOptions {
  StoreBackend backend = StoreBackend::kInMemory;
  // Paged backend only: buffer-pool frame count (pages resident at once).
  size_t buffer_pool_pages = 64;
  ReplacementPolicy replacement = ReplacementPolicy::kLru;
  // Simulated latency (sim microseconds) per page read or write-back.  The
  // store never sleeps; it *accrues* this figure on every fault, and the
  // Data Store facade charges the accrued total through the node's timer
  // path (DataStoreNode::ChargeStoreIo).  0 — the default — charges
  // nothing, so the paged backend replays the in-memory event schedule
  // bit-identically.
  uint64_t page_io_latency = 0;
};

// Cumulative engine counters.  Plain integers written only by the owning
// node's events (each peer has its own store), read from the control
// context.
struct StoreStats {
  uint64_t reads = 0;       // point lookups served (Get/Contains)
  uint64_t cursors = 0;     // cursors opened (SeekFirst/SeekAfter): walks
  uint64_t hits = 0;        // buffer-pool hits (in-memory: every access)
  uint64_t faults = 0;      // page faults (page not resident)
  uint64_t evictions = 0;   // frames reclaimed for another page
  uint64_t writebacks = 0;  // dirty pages written back (evict or flush)
  uint64_t pages_alloc = 0;  // pages ever allocated from the arena
  uint64_t pages_freed = 0;
  uint64_t btree_splits = 0;  // leaf + interior splits
  uint64_t btree_merges = 0;  // leaf + interior merges
  uint64_t pool_grows = 0;  // emergency frame grows (every frame was pinned)

  double hit_rate() const {
    const uint64_t total = hits + faults;
    return total == 0 ? 1.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

// The storage plane behind DataStoreNode: one store per peer, holding the
// (item, epoch) pairs of its assigned arc.  Keys are unique; iteration is
// in ascending key order (the order every split/redistribute decision and
// replica manifest works in).  Reads are non-const because a paged backend
// mutates buffer-pool state (residency, recency, counters) on every access.
//
// Epochs are owned by the caller (DataStoreNode stamps each mutation from
// its monotone counter); the store just keeps them alongside the items.
class ItemStore {
 public:
  // Forward-only position over the items in ascending key order.  A cursor
  // is invalidated by any store mutation — consume it first.  A paged
  // backend keeps the current leaf pinned, so destroy cursors promptly.
  class Cursor {
   public:
    virtual ~Cursor() = default;
    virtual bool valid() const = 0;
    // Valid only while valid(); the reference lives until Next() or the
    // cursor's destruction.
    virtual const Item& item() const = 0;
    virtual uint64_t epoch() const = 0;
    virtual void Next() = 0;
  };

  virtual ~ItemStore() = default;

  virtual const char* name() const = 0;
  virtual size_t size() const = 0;

  virtual bool Contains(Key skv) = 0;
  // Copies the item (and its epoch) out; either out-pointer may be null.
  virtual bool Get(Key skv, Item* item, uint64_t* epoch) = 0;
  // Insert or overwrite (keys are unique).
  virtual void Put(const Item& item, uint64_t epoch) = 0;
  // True if the key was present.
  virtual bool Erase(Key skv) = 0;
  virtual void Clear() = 0;

  // Cursor at the smallest key / at the first key strictly greater than
  // `skv` (upper-bound semantics).  Never null; !valid() when exhausted.
  virtual std::unique_ptr<Cursor> SeekFirst() = 0;
  virtual std::unique_ptr<Cursor> SeekAfter(Key skv) = 0;

  // Simulated I/O latency accrued since the last drain, and resets it to
  // zero.  The facade drains at operation start (discarding latency accrued
  // by control-context reads) and again at the ack point, where the total
  // is charged through the node's timer.
  virtual uint64_t DrainAccruedLatency() { return 0; }

  virtual const StoreStats& stats() const = 0;
};

std::unique_ptr<ItemStore> MakeItemStore(const StoreOptions& options);

}  // namespace pepper::store

#endif  // PEPPER_STORE_ITEM_STORE_H_
