#ifndef PEPPER_REPLICATION_REPLICA_MANIFEST_H_
#define PEPPER_REPLICATION_REPLICA_MANIFEST_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "common/key_space.h"
#include "datastore/item.h"

namespace pepper::replication {

// Compact identity of one replica group's contents: the owner's mutation
// epoch when it was built, the item count, and an additive hash — the sum,
// mod 2^64, of a 64-bit mix of every (skv, epoch) pair.  The sum does not
// depend on order, so a holder keeps it current as it applies each upsert
// and erase (ReplicaGroup) instead of rehashing the whole group.  The
// facade stamps a fresh epoch on every item mutation — including a
// re-insert of an existing key with new data — so two parties whose
// manifests match hold byte-identical item sets, and a manifest comparison
// replaces shipping the snapshot.
struct ReplicaManifest {
  uint64_t version = 0;  // owner mutation epoch at build time
  uint64_t count = 0;    // items in the group
  uint64_t hash = 0;     // sum of ManifestTerm(skv, epoch) over the items

  friend bool operator==(const ReplicaManifest& a, const ReplicaManifest& b) {
    return a.version == b.version && a.count == b.count && a.hash == b.hash;
  }
  friend bool operator!=(const ReplicaManifest& a, const ReplicaManifest& b) {
    return !(a == b);
  }

  std::string ToString() const;
};

// One item's contribution to ReplicaManifest::hash: the splitmix64
// finalizer applied to the key folded with the mixed epoch, so a single
// changed key or epoch moves the sum.
inline uint64_t ManifestTerm(Key skv, uint64_t epoch) {
  auto mix = [](uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  return mix(skv + 0x9e3779b97f4a7c15ull * (mix(epoch) | 1));
}

// Builds the manifest of an epoch-stamped item set as of owner mutation
// epoch `version`.
ReplicaManifest BuildManifest(const std::map<Key, uint64_t>& epochs,
                              uint64_t version);

// The byte cost model shared by the push-size accounting: what shipping an
// item (key + epoch + payload), a delete (key + epoch), or a manifest would
// cost on a real wire.  The simulator never serializes, but `repl.push_bytes`
// / `repl.bytes_saved` are computed with these so the delta-vs-snapshot
// comparison is meaningful.
inline size_t WireBytes(const datastore::Item& item) {
  return sizeof(Key) + sizeof(uint64_t) + item.data.size();
}
inline constexpr size_t kDeleteWireBytes = sizeof(Key) + sizeof(uint64_t);
inline constexpr size_t kManifestWireBytes = sizeof(ReplicaManifest);

}  // namespace pepper::replication

#endif  // PEPPER_REPLICATION_REPLICA_MANIFEST_H_
