#ifndef PEPPER_COMMON_STATS_H_
#define PEPPER_COMMON_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pepper {

// Exact fixed-point accumulator for non-negative doubles (a ~2176-bit
// superaccumulator).  Addition is associative and commutative *exactly*, so
// a sum is a pure function of the multiset of samples — independent of add
// order.  The simulator's partition cores take their turns core by core
// inside each window, so the order samples arrive in depends on the shard
// count; the exact sum is what keeps CSV means bit-identical anyway.
class ExactSum {
 public:
  // Limb i carries weight 2^(64*i - 1088); the range covers every finite
  // positive double (subnormals included) with headroom for 2^64 carries.
  static constexpr int kLimbs = 34;

  void Add(double v);
  void AddSum(const ExactSum& other);
  // Deterministic double rendering of the exact value (within 1 ulp of the
  // correctly rounded sum; identical for identical exact values).
  double Total() const;
  void Clear() { limbs_.fill(0); }

 private:
  void AddLimb(int i, uint64_t v);
  std::array<uint64_t, kLimbs> limbs_{};
};

// Fixed-bucket log-scale histogram for non-negative samples (latencies in
// seconds, hop counts, batch sizes).  Memory is O(buckets) — a flat
// std::array, no heap — regardless of how many samples are added, which is
// what makes paper-scale long-churn runs measurable.  Histograms over the
// same (fixed) bucket layout are mergeable and subtractable; subtraction is
// how MetricsRegistry turns one cumulative series into per-phase series.
class Histogram {
 public:
  // Buckets span [kMinBound, kMaxBound) geometrically; values below
  // (including 0) land in the underflow bucket, values at or above in the
  // overflow bucket.  1 µs .. ~10^5 s at 8 buckets/decade keeps the
  // relative quantile error under ~15%.
  static constexpr double kMinBound = 1e-6;
  static constexpr size_t kDecades = 11;
  static constexpr size_t kBucketsPerDecade = 8;
  // underflow + kDecades*kBucketsPerDecade + overflow
  static constexpr size_t kBucketCount = kDecades * kBucketsPerDecade + 2;

  void Add(double sample);
  void Merge(const Histogram& other);
  // Bucket-wise difference *this - baseline (caller guarantees `baseline`
  // is an earlier snapshot of the same series).
  Histogram DeltaSince(const Histogram& baseline) const;
  void Clear();

  uint64_t count() const { return count_; }
  double sum() const { return sum_.Total(); }
  double mean() const;
  // Lower edge of the first / upper edge of the last non-empty bucket
  // (0 for the underflow bucket).
  double min() const;
  double max() const;
  // q in [0, 1]; log-interpolated within the bucket holding the rank.
  double Percentile(double q) const;

  // Resident size: O(buckets), never O(samples) — a unit test pins this.
  size_t MemoryBytes() const { return sizeof(*this); }

  std::string ToString() const;
  uint64_t bucket_count(size_t i) const { return counts_[i]; }

 private:
  static size_t BucketIndex(double v);
  static double BucketLowerEdge(size_t i);
  static double BucketUpperEdge(size_t i);

  std::array<uint64_t, kBucketCount> counts_{};
  uint64_t count_ = 0;
  ExactSum sum_;
};

// Monotonic named counters for protocol events (messages sent, splits,
// merges, lock waits, violations detected, ...).  Per-op hot paths should
// Intern() the name once at component construction and use the Id
// overload — no string compare per event.
class Counters {
 public:
  using Id = uint32_t;

  // Registers (or finds) the counter and returns its stable handle.
  Id Intern(const std::string& name);
  void Inc(Id id, uint64_t delta = 1) { entries_[id].value += delta; }
  void Inc(const std::string& name, uint64_t delta = 1);
  uint64_t Get(const std::string& name) const;
  // Read by handle: the by-name Get minus the name scan.
  uint64_t Get(Id id) const { return entries_[id].value; }
  std::vector<std::pair<std::string, uint64_t>> Snapshot() const;
  void Clear();

 private:
  struct Entry {
    std::string name;
    uint64_t value = 0;
  };

  // Index of `name` in entries_, or entries_.size() if absent.
  size_t Find(const std::string& name) const;

  std::vector<Entry> entries_;  // index == Id
};

// Named latency histograms + counters shared by all layers of a cluster;
// the figure benches and the scenario runner read their series out of one
// of these.  Series memory is bounded (Histogram), so a hub survives
// arbitrarily long churn runs.
class MetricsHub {
 public:
  MetricsHub() = default;
  MetricsHub(const MetricsHub&) = delete;
  MetricsHub& operator=(const MetricsHub&) = delete;

  // Returns the histogram for the named series, creating it on first use.
  // References remain valid for the hub's lifetime — per-op hot paths cache
  // the pointer at component construction (the interned handle) and call
  // Add() directly, skipping the by-name scan.
  Histogram& Latency(const std::string& name);
  Histogram* LatencyHandle(const std::string& name) { return &Latency(name); }
  const Histogram* FindLatency(const std::string& name) const;

  void RecordLatency(const std::string& name, double value) {
    Latency(name).Add(value);
  }

  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }

  // All series, in creation order (the scenario registry snapshots these).
  std::vector<std::pair<std::string, const Histogram*>> Series() const;

  void Clear();
  std::string Report() const;

 private:
  // Heap-allocated so the references Latency() hands out stay valid.
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> latencies_;
  Counters counters_;
};

// Per-phase view over one cumulative MetricsHub.  BeginPhase snapshots the
// hub; EndPhase stores the delta (histograms subtract bucket-wise, counters
// subtract) as that phase's series.  Everything between EndPhase and the
// next BeginPhase (probe traffic, settle windows) is excluded from both
// neighbours.  Snapshots are plain values — they outlive the hub.
class MetricsRegistry {
 public:
  struct PhaseSnapshot {
    std::string name;
    double sim_seconds = 0.0;  // phase duration, set by the caller
    std::vector<std::pair<std::string, Histogram>> series;
    std::vector<std::pair<std::string, uint64_t>> counters;

    const Histogram* FindSeries(const std::string& series_name) const;
    uint64_t Counter(const std::string& counter_name) const;
  };

  explicit MetricsRegistry(MetricsHub* hub) : hub_(hub) {}

  void BeginPhase(const std::string& name);
  // Closes the open phase (no-op without one).  `sim_seconds` is recorded
  // verbatim into the snapshot.
  void EndPhase(double sim_seconds = 0.0);

  const std::vector<PhaseSnapshot>& phases() const { return phases_; }
  const PhaseSnapshot* FindPhase(const std::string& name) const;

  std::string ReportText() const { return TextOf(phases_); }
  // One row per phase×metric:
  //   phase,metric,kind,count,mean,p50,p95,p99,max,value
  // (histogram rows leave `value` empty; counter rows leave the stats
  // columns empty).  Deterministic: ordered by phase, then series creation
  // order, then counter name.
  std::string DumpCsv() const { return CsvOf(phases_); }

  // Formatting over detached snapshots (reports that outlive the hub).
  static std::string TextOf(const std::vector<PhaseSnapshot>& phases);
  static std::string CsvOf(const std::vector<PhaseSnapshot>& phases);

 private:
  MetricsHub* hub_;
  bool open_ = false;
  PhaseSnapshot baseline_;  // cumulative values at BeginPhase
  std::vector<PhaseSnapshot> phases_;
};

}  // namespace pepper

#endif  // PEPPER_COMMON_STATS_H_
