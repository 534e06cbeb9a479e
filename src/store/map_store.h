#ifndef PEPPER_STORE_MAP_STORE_H_
#define PEPPER_STORE_MAP_STORE_H_

#include <map>
#include <memory>
#include <utility>

#include "store/item_store.h"

namespace pepper::store {

// The historical backend: one std::map, everything resident.  Bit-identical
// to the pre-ItemStore DataStoreNode — every access is a buffer "hit" and
// no latency ever accrues.
class MapStore : public ItemStore {
 public:
  const char* name() const override { return "map"; }
  size_t size() const override { return items_.size(); }

  bool Contains(Key skv) override {
    ++stats_.reads;
    ++stats_.hits;
    return items_.count(skv) > 0;
  }

  bool Get(Key skv, Item* item, uint64_t* epoch) override {
    ++stats_.reads;
    ++stats_.hits;
    auto it = items_.find(skv);
    if (it == items_.end()) return false;
    if (item != nullptr) *item = it->second.first;
    if (epoch != nullptr) *epoch = it->second.second;
    return true;
  }

  void Put(const Item& item, uint64_t epoch) override {
    items_[item.skv] = {item, epoch};
  }

  bool Erase(Key skv) override { return items_.erase(skv) > 0; }

  void Clear() override { items_.clear(); }

  std::unique_ptr<Cursor> SeekFirst() override {
    ++stats_.cursors;
    return std::make_unique<MapCursor>(&items_, items_.begin());
  }

  std::unique_ptr<Cursor> SeekAfter(Key skv) override {
    ++stats_.cursors;
    return std::make_unique<MapCursor>(&items_, items_.upper_bound(skv));
  }

  const StoreStats& stats() const override { return stats_; }

 private:
  using Map = std::map<Key, std::pair<Item, uint64_t>>;

  class MapCursor : public Cursor {
   public:
    MapCursor(const Map* map, Map::const_iterator pos)
        : map_(map), pos_(pos) {}
    bool valid() const override { return pos_ != map_->end(); }
    const Item& item() const override { return pos_->second.first; }
    uint64_t epoch() const override { return pos_->second.second; }
    void Next() override { ++pos_; }

   private:
    const Map* map_;
    Map::const_iterator pos_;
  };

  Map items_;
  StoreStats stats_;
};

}  // namespace pepper::store

#endif  // PEPPER_STORE_MAP_STORE_H_
