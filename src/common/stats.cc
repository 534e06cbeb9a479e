#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace pepper {

// --- ExactSum ----------------------------------------------------------------

void ExactSum::Add(double v) {
  // Metrics samples are non-negative finite values (seconds, hops, sizes);
  // zero contributes nothing and negatives/NaN/inf are not representable in
  // the fixed-point frame, so they are dropped rather than poisoning it.
  if (!(v > 0.0)) return;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  uint64_t mant = bits & ((uint64_t{1} << 52) - 1);
  const int exp = static_cast<int>((bits >> 52) & 0x7ff);
  if (exp == 0x7ff) return;  // inf/NaN
  int shift;  // bit position of the mantissa's LSB above the 2^-1088 base
  if (exp == 0) {
    shift = 14;  // subnormal: mant * 2^-1074
  } else {
    mant |= uint64_t{1} << 52;
    shift = exp + 13;  // exp - 1075 + 1088
  }
  const int limb = shift >> 6;
  const int off = shift & 63;
  const unsigned __int128 wide = static_cast<unsigned __int128>(mant) << off;
  AddLimb(limb, static_cast<uint64_t>(wide));
  AddLimb(limb + 1, static_cast<uint64_t>(wide >> 64));
}

void ExactSum::AddSum(const ExactSum& other) {
  for (int i = 0; i < kLimbs; ++i) AddLimb(i, other.limbs_[i]);
}

void ExactSum::AddLimb(int i, uint64_t v) {
  while (v != 0 && i < kLimbs) {
    const uint64_t old = limbs_[i];
    limbs_[i] = old + v;
    v = limbs_[i] < old ? 1 : 0;  // carry
    ++i;
  }
}

double ExactSum::Total() const {
  // Fold limbs low to high in 32-bit halves (exact in a double), rounding
  // as we go: the result is a deterministic function of the limb state, so
  // equal exact sums always render equal doubles.
  double total = 0.0;
  for (int i = 0; i < kLimbs; ++i) {
    if (limbs_[i] == 0) continue;
    const int e = 64 * i - 1088;
    total += std::ldexp(static_cast<double>(limbs_[i] & 0xffffffffu), e);
    total += std::ldexp(static_cast<double>(limbs_[i] >> 32), e + 32);
  }
  return total;
}

// --- Histogram ---------------------------------------------------------------

size_t Histogram::BucketIndex(double v) {
  if (!(v >= kMinBound)) return 0;  // underflow (0, negatives, NaN)
  const double decades = std::log10(v / kMinBound);
  const auto idx = static_cast<size_t>(
      decades * static_cast<double>(kBucketsPerDecade));
  if (idx >= kDecades * kBucketsPerDecade) return kBucketCount - 1;
  return idx + 1;
}

double Histogram::BucketLowerEdge(size_t i) {
  if (i == 0) return 0.0;
  return kMinBound *
         std::pow(10.0, static_cast<double>(i - 1) /
                            static_cast<double>(kBucketsPerDecade));
}

double Histogram::BucketUpperEdge(size_t i) {
  if (i == 0) return kMinBound;
  if (i == kBucketCount - 1) {
    // Overflow: report its lower edge as the bound (no meaningful upper).
    return BucketLowerEdge(i);
  }
  return kMinBound * std::pow(10.0, static_cast<double>(i) /
                                        static_cast<double>(kBucketsPerDecade));
}

void Histogram::Add(double sample) {
  ++counts_[BucketIndex(sample)];
  ++count_;
  sum_.Add(sample);
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < kBucketCount; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_.AddSum(other.sum_);
}

Histogram Histogram::DeltaSince(const Histogram& baseline) const {
  Histogram d;
  for (size_t i = 0; i < kBucketCount; ++i) {
    const uint64_t cur = counts_[i];
    const uint64_t base = baseline.counts_[i];
    d.counts_[i] = cur >= base ? cur - base : 0;
    d.count_ += d.counts_[i];
  }
  d.sum_.Add(sum() - baseline.sum());
  return d;
}

void Histogram::Clear() {
  counts_.fill(0);
  count_ = 0;
  sum_.Clear();
}

double Histogram::mean() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::min() const {
  for (size_t i = 0; i < kBucketCount; ++i) {
    if (bucket_count(i) > 0) return BucketLowerEdge(i);
  }
  return 0.0;
}

double Histogram::max() const {
  for (size_t i = kBucketCount; i-- > 0;) {
    if (bucket_count(i) > 0) return BucketUpperEdge(i);
  }
  return 0.0;
}

double Histogram::Percentile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  uint64_t seen = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    const uint64_t c = bucket_count(i);
    if (c == 0) continue;
    const auto next = seen + c;
    if (static_cast<double>(next) >= target) {
      const double lo = BucketLowerEdge(i);
      const double hi = BucketUpperEdge(i);
      if (i == 0 || i == kBucketCount - 1 || lo <= 0.0) return lo;
      // Log-linear interpolation by rank within the bucket.
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(c);
      return lo * std::pow(hi / lo, frac);
    }
    seen = next;
  }
  return max();
}

std::string Histogram::ToString() const {
  std::ostringstream os;
  os << "n=" << count() << " mean=" << mean() << " p50=" << Percentile(0.5)
     << " p95=" << Percentile(0.95) << " min=" << min() << " max=" << max();
  return os.str();
}

// --- Counters ----------------------------------------------------------------

size_t Counters::Find(const std::string& name) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name == name) return i;
  }
  return entries_.size();
}

Counters::Id Counters::Intern(const std::string& name) {
  const size_t i = Find(name);
  if (i == entries_.size()) entries_.push_back(Entry{name, 0});
  return static_cast<Id>(i);
}

void Counters::Inc(const std::string& name, uint64_t delta) {
  Inc(Intern(name), delta);
}

uint64_t Counters::Get(const std::string& name) const {
  const size_t i = Find(name);
  return i == entries_.size() ? 0 : entries_[i].value;
}

std::vector<std::pair<std::string, uint64_t>> Counters::Snapshot() const {
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.emplace_back(e.name, e.value);
  std::sort(out.begin(), out.end());
  return out;
}

void Counters::Clear() {
  // Zero the values but keep the registrations: interned Ids held by
  // components stay valid across a Clear.
  for (Entry& e : entries_) e.value = 0;
}

// --- MetricsHub --------------------------------------------------------------

Histogram& MetricsHub::Latency(const std::string& name) {
  for (auto& kv : latencies_) {
    if (kv.first == name) return *kv.second;
  }
  latencies_.emplace_back(name, std::make_unique<Histogram>());
  return *latencies_.back().second;
}

const Histogram* MetricsHub::FindLatency(const std::string& name) const {
  for (const auto& kv : latencies_) {
    if (kv.first == name) return kv.second.get();
  }
  return nullptr;
}

std::vector<std::pair<std::string, const Histogram*>> MetricsHub::Series()
    const {
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(latencies_.size());
  for (const auto& kv : latencies_) {
    out.emplace_back(kv.first, kv.second.get());
  }
  return out;
}

void MetricsHub::Clear() {
  latencies_.clear();
  counters_.Clear();
}

std::string MetricsHub::Report() const {
  std::ostringstream os;
  for (const auto& kv : Series()) {
    os << kv.first << ": " << kv.second->ToString() << "\n";
  }
  for (const auto& kv : counters_.Snapshot()) {
    os << kv.first << " = " << kv.second << "\n";
  }
  return os.str();
}

// --- MetricsRegistry ---------------------------------------------------------

const Histogram* MetricsRegistry::PhaseSnapshot::FindSeries(
    const std::string& series_name) const {
  for (const auto& kv : series) {
    if (kv.first == series_name) return &kv.second;
  }
  return nullptr;
}

uint64_t MetricsRegistry::PhaseSnapshot::Counter(
    const std::string& counter_name) const {
  for (const auto& kv : counters) {
    if (kv.first == counter_name) return kv.second;
  }
  return 0;
}

void MetricsRegistry::BeginPhase(const std::string& name) {
  if (open_) EndPhase();
  open_ = true;
  baseline_ = PhaseSnapshot{};
  baseline_.name = name;
  for (const auto& kv : hub_->Series()) {
    baseline_.series.emplace_back(kv.first, *kv.second);
  }
  baseline_.counters = hub_->counters().Snapshot();
}

void MetricsRegistry::EndPhase(double sim_seconds) {
  if (!open_) return;
  open_ = false;
  PhaseSnapshot snap;
  snap.name = baseline_.name;
  snap.sim_seconds = sim_seconds;
  for (const auto& kv : hub_->Series()) {
    const Histogram* base = baseline_.FindSeries(kv.first);
    snap.series.emplace_back(
        kv.first, base != nullptr ? kv.second->DeltaSince(*base) : *kv.second);
  }
  for (const auto& kv : hub_->counters().Snapshot()) {
    const uint64_t before = baseline_.Counter(kv.first);
    snap.counters.emplace_back(kv.first, kv.second - before);
  }
  phases_.push_back(std::move(snap));
}

const MetricsRegistry::PhaseSnapshot* MetricsRegistry::FindPhase(
    const std::string& name) const {
  for (const auto& p : phases_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::string MetricsRegistry::TextOf(
    const std::vector<PhaseSnapshot>& phases) {
  std::ostringstream os;
  for (const auto& p : phases) {
    os << "== phase " << p.name << " (" << p.sim_seconds << " s)\n";
    for (const auto& kv : p.series) {
      if (kv.second.count() == 0) continue;
      os << "  " << kv.first << ": " << kv.second.ToString() << "\n";
    }
    for (const auto& kv : p.counters) {
      if (kv.second == 0) continue;
      os << "  " << kv.first << " = " << kv.second << "\n";
    }
  }
  return os.str();
}

std::string MetricsRegistry::CsvOf(
    const std::vector<PhaseSnapshot>& phases) {
  std::ostringstream os;
  os << "phase,metric,kind,count,mean,p50,p95,p99,max,value\n";
  for (const auto& p : phases) {
    for (const auto& kv : p.series) {
      const Histogram& h = kv.second;
      os << p.name << "," << kv.first << ",histogram," << h.count() << ","
         << h.mean() << "," << h.Percentile(0.5) << "," << h.Percentile(0.95)
         << "," << h.Percentile(0.99) << "," << h.max() << ",\n";
    }
    for (const auto& kv : p.counters) {
      os << p.name << "," << kv.first << ",counter,,,,,,," << kv.second
         << "\n";
    }
  }
  return os.str();
}

}  // namespace pepper
