#include "replication/replica_manifest.h"

#include <sstream>

namespace pepper::replication {

ReplicaManifest BuildManifest(const std::map<Key, uint64_t>& epochs,
                              uint64_t version) {
  ReplicaManifest m;
  m.version = version;
  m.count = epochs.size();
  for (const auto& kv : epochs) m.hash += ManifestTerm(kv.first, kv.second);
  return m;
}

std::string ReplicaManifest::ToString() const {
  std::ostringstream os;
  os << "manifest{v=" << version << " n=" << count << " h=" << std::hex << hash
     << "}";
  return os.str();
}

}  // namespace pepper::replication
