#ifndef PEPPER_STORE_PAGED_STORE_H_
#define PEPPER_STORE_PAGED_STORE_H_

#include <memory>

#include "store/btree.h"

namespace pepper::store {

// The paged backend: per-peer page arena + bounded buffer pool + B+-tree.
// Reads and mutations fault pages through the pool; accrued simulated I/O
// latency is drained by the facade and charged through the node's timer.
class PagedStore : public ItemStore {
 public:
  explicit PagedStore(const StoreOptions& options)
      : storage_(&stats_),
        pool_(&storage_, options.buffer_pool_pages, options.replacement,
              options.page_io_latency, &stats_),
        tree_(&storage_, &pool_, &stats_) {}

  const char* name() const override { return "paged"; }
  size_t size() const override { return tree_.size(); }

  bool Contains(Key skv) override {
    ++stats_.reads;
    return tree_.Get(skv, nullptr, nullptr);
  }

  bool Get(Key skv, Item* item, uint64_t* epoch) override {
    ++stats_.reads;
    return tree_.Get(skv, item, epoch);
  }

  void Put(const Item& item, uint64_t epoch) override {
    tree_.Put(item, epoch);
  }

  bool Erase(Key skv) override { return tree_.Erase(skv); }

  void Clear() override { tree_.Clear(); }

  std::unique_ptr<Cursor> SeekFirst() override {
    ++stats_.cursors;
    return std::make_unique<PagedCursor>(&pool_, tree_.First());
  }

  std::unique_ptr<Cursor> SeekAfter(Key skv) override {
    ++stats_.cursors;
    return std::make_unique<PagedCursor>(&pool_, tree_.After(skv));
  }

  uint64_t DrainAccruedLatency() override {
    return pool_.DrainAccruedLatency();
  }

  const StoreStats& stats() const override { return stats_; }

  const BufferPool& pool() const { return pool_; }

 private:
  // Walks the leaf chain, keeping the current leaf pinned so the item
  // reference stays stable between Next() calls.
  class PagedCursor : public Cursor {
   public:
    PagedCursor(BufferPool* pool, BTree::Position pos)
        : pool_(pool), pos_(pos) {
      if (pos_.page != kNullPage) page_ = pool_->Pin(pos_.page);
    }
    ~PagedCursor() override {
      if (page_ != nullptr) pool_->Unpin(pos_.page, false);
    }
    bool valid() const override {
      return page_ != nullptr && pos_.slot < page_->count;
    }
    const Item& item() const override {
      return page_->entries[pos_.slot].item;
    }
    uint64_t epoch() const override {
      return page_->entries[pos_.slot].epoch;
    }
    void Next() override {
      if (page_ == nullptr) return;
      if (static_cast<uint16_t>(pos_.slot + 1) < page_->count) {
        ++pos_.slot;
        return;
      }
      const PageId next = page_->next;
      pool_->Unpin(pos_.page, false);
      page_ = nullptr;
      if (next == kNullPage) return;
      pos_ = BTree::Position{next, 0};
      page_ = pool_->Pin(next);
    }

   private:
    BufferPool* pool_;
    BTree::Position pos_;
    Page* page_ = nullptr;
  };

  StoreStats stats_;
  StorageManager storage_;
  BufferPool pool_;
  BTree tree_;
};

}  // namespace pepper::store

#endif  // PEPPER_STORE_PAGED_STORE_H_
