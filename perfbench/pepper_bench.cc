// pepper_bench: one open-loop benchmark run of the PEPPER stack.
//
// The harness builds a cluster (fixed cluster seed), grows it to the
// workload's starting ring, then feeds an open-loop operation stream drawn
// from the workload seed through the public API only: Cluster,
// P2PIndex::InsertItem/DeleteItem/RangeQuery, Cluster::AddFreePeer/FailPeer
// and the LivenessOracle.  Every arrival is due at a fixed simulated instant;
// its latency runs from that instant to the ack (or complete result), so a
// stall is charged to every operation it delays.  After a fixed drain the
// run audits Definition 4 (every query), Definition 7 (availability), the
// ring and item conservation, and prints one JSON object on stdout.
//
// Usage:
//   pepper_bench --workload=churn [--seed=1] [--scale=1.0] [--shards=N]
//                [--traced] [--trace-out=DIR]
//
// Exit status: 0 when every audit passed, 1 when one failed, 2 on bad
// arguments.  Operations that failed despite client retries are counted in
// "failed", not treated as audit failures.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "workload/cluster.h"
#include "workload/workload.h"

namespace pepper::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using sim::SimTime;
using workload::Cluster;
using workload::PeerStack;

constexpr uint64_t kClusterSeed = 42;
constexpr Key kKeyMax = 999999;  // keys are drawn from [0, kKeyMax]
constexpr Key kQueryWidth = 50000;
constexpr SimTime kSettle = 40 * sim::kSecond;
constexpr SimTime kDrain = 60 * sim::kSecond;
constexpr SimTime kSlice = 10 * sim::kSecond;
// The client's patience: an operation not acked within kClientDeadline of
// its due time fails and enters the latency sample at kFailedOpMs.  Failed
// attempts are re-issued after kRetryBackoff; an attempt with no reply for
// kAttemptTimeout (longer than the index's own 30 s query timeout) is
// abandoned, which only happens when its gateway peer crashed.
constexpr SimTime kClientDeadline = 60 * sim::kSecond;
constexpr SimTime kAttemptTimeout = 35 * sim::kSecond;
constexpr SimTime kRetryBackoff = 1 * sim::kSecond;
constexpr double kFailedOpMs = 60000.0;
constexpr size_t kMinLive = 4;

// One workload.  Rates are per simulated second; `length` is the open-loop
// phase before the drain.  Why each exists, and why these rates, is in
// README.md: the tails of every latency series must sit on a flat step of
// their distribution, or p99 would jump between protocol timeout steps from
// one workload seed to the next.
struct Spec {
  const char* name;
  uint32_t shards;
  bool paged;
  size_t start_peers;
  SimTime length;
  double insert_rate;
  double delete_rate;
  double join_rate;
  double crash_rate;
  double query_rate;
  double zipf_theta;  // 0: query start keys uniform
};

const Spec kSpecs[] = {
    {"churn", 0, false, 300, 450 * sim::kSecond, 2.0, 0.25, 1.0 / 3.0, 0.06,
     2.0, 0.0},
    {"scan", 0, false, 300, 150 * sim::kSecond, 4.0, 0.0, 4.0, 0.0, 40.0,
     0.95},
    {"ingest", 0, true, 40, 150 * sim::kSecond, 40.0, 4.0, 2.0, 0.0, 8.0,
     0.0},
    {"churn_sharded", 3, false, 60, 80 * sim::kSecond, 6.0, 0.0, 1.5, 0.0,
     4.0, 0.0},
};

enum class OpKind : uint8_t { kInsert, kDelete, kQuery };
const char* OpName(OpKind k) {
  switch (k) {
    case OpKind::kInsert:
      return "index.insert";
    case OpKind::kDelete:
      return "index.delete";
    case OpKind::kQuery:
      return "index.range_query";
  }
  return "?";
}

struct Op {
  OpKind kind = OpKind::kInsert;
  Key key = 0;  // item key, or the query's lower bound
  SimTime due = 0;
  SimTime done = 0;
  uint32_t attempts = 0;
  bool maybe_applied = false;  // an earlier attempt's outcome is unknown
  bool finished = false;
  bool ok = false;
};

// A host-time span for the harness's Chrome trace.
struct HostSpan {
  const char* name;
  double start_us;
  double end_us;
};

// FNV-1a over 64-bit words: the replay digest.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(const std::string& s) {
    for (unsigned char ch : s) {
      h_ ^= ch;
      h_ *= 0x100000001b3ULL;
    }
    Add(s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Peak resident set of this process's own address space.  Linux carries
// ru_maxrss across fork and exec, so it would report the parent's size when
// the parent is larger; VmHWM is reset at exec.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// Arrival instants of a Poisson stream over [0, length) conditioned on its
// expected count: the count is fixed by the rate, so two seeds differ in
// where operations land, not in how many there are.
std::vector<SimTime> Arrivals(double rate, SimTime length, sim::Rng& rng) {
  const auto n = static_cast<size_t>(
      std::llround(rate * static_cast<double>(length) / sim::kSecond));
  std::vector<SimTime> t(n);
  for (auto& x : t) x = rng.Uniform(0, length - 1);
  std::sort(t.begin(), t.end());
  return t;
}

class Bench {
 public:
  Bench(const Spec& spec, uint64_t seed, double scale, uint32_t shards,
        bool traced)
      : spec_(spec), seed_(seed), scale_(scale), traced_(traced) {
    options_ = workload::ClusterOptions::PaperDefaults();
    options_.seed = kClusterSeed;
    options_.shards = shards;
    if (spec.paged) {
      options_.ds.storage_factor = 50;
      options_.ds.store.backend = store::StoreBackend::kPaged;
      options_.ds.store.buffer_pool_pages = 4;
      options_.ds.store.replacement = store::ReplacementPolicy::kLru;
      options_.ds.store.page_io_latency = 100 * sim::kMicrosecond;
    }
    if (traced) {
      options_.trace = true;
      options_.trace_sample_every = 64;
    }
  }

  void Setup();
  void Run();
  void Audit();
  void Report(const std::string& trace_out);
  bool correct() const { return violations_.empty(); }

 private:
  double HostUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  std::vector<PeerStack*> Members();
  PeerStack* PickMember(sim::Rng& rng);
  void Schedule(const std::vector<SimTime>& times, size_t i,
                void (Bench::*fire)());
  void FireInsert();
  void FireDelete();
  void FireQuery();
  void FireJoin();
  void FireCrash();
  void Issue(OpKind kind, Key key);
  void Attempt(uint32_t id);
  void AuditQuery(const Span& span, SimTime started,
                  const std::vector<datastore::Item>& items);
  void Settle(uint32_t id, uint32_t attempt, const Status& st);
  void Retry(uint32_t id);
  void Finish(uint32_t id, bool ok);
  std::map<std::string, uint64_t> CounterDelta() const;
  void WriteTraces(const std::string& dir) const;

  const Spec& spec_;
  uint64_t seed_;
  double scale_;
  bool traced_;
  workload::ClusterOptions options_;
  std::unique_ptr<Cluster> cluster_;
  Clock::time_point t0_ = Clock::now();

  // Workload streams (each its own seed-derived generator).
  sim::Rng key_rng_{0};
  sim::Rng delete_rng_{0};
  sim::Rng via_rng_{0};
  sim::Rng crash_rng_{0};
  std::unique_ptr<workload::ZipfGenerator> zipf_;
  SimTime phase_start_ = 0;
  std::vector<SimTime> inserts_, deletes_, queries_, joins_, crashes_;

  std::vector<Op> ops_;
  Digest op_log_;  // completions, in completion order
  std::unordered_set<Key> used_keys_;
  std::vector<Key> live_keys_;  // acked inserts not yet targeted by a delete
  std::set<Key> expected_;      // acked inserts not acked-deleted
  std::set<Key> deleted_;       // acked deletes
  std::set<Key> uncertain_;     // keys of failed or unfinished operations
  size_t query_violations_ = 0;
  size_t client_retries_ = 0;
  size_t resurrected_ = 0;
  std::vector<std::string> violations_;
  size_t failed_ = 0;

  // Host-time accounting.
  double setup_s_ = 0;
  double grow_s_ = 0;
  double wall_s_ = 0;
  double cpu_s_ = 0;
  double select_s_ = 0;
  double audit_s_ = 0;
  double final_audit_s_ = 0;
  std::vector<double> slice_ms_;
  std::vector<HostSpan> spans_;
  // (host us at the slice's end, counters since the measured phase began)
  std::vector<std::pair<double, std::map<std::string, uint64_t>>>
      slice_counters_;

  // Baselines at the start of the measured phase.
  std::map<std::string, uint64_t> counters0_;
  std::map<std::string, Histogram> series0_;
  uint64_t events0_ = 0;
  uint64_t messages0_ = 0;
  uint64_t events_ = 0;
  uint64_t messages_ = 0;
  size_t peers_end_ = 0;
  size_t items_end_ = 0;
};

std::vector<PeerStack*> Bench::Members() {
  const double t = HostUs();
  std::vector<PeerStack*> m = cluster_->LiveMembers();
  select_s_ += (HostUs() - t) * 1e-6;
  return m;
}

// Uniform over live members, by rejection sampling over every peer ever
// created: O(1) expected per pick, where a LiveMembers() scan per operation
// grows with the ring and its churned-out peers.  The test is the one
// Cluster::LiveMembers() applies.
PeerStack* Bench::PickMember(sim::Rng& rng) {
  const double t = HostUs();
  const auto& peers = cluster_->peers();
  PeerStack* pick = nullptr;
  for (int i = 0; i < 64 && pick == nullptr; ++i) {
    PeerStack* p = peers[rng.Uniform(0, peers.size() - 1)].get();
    const ring::PeerState s = p->ring->state();
    if (p->ring->alive() && p->ds->active() &&
        (s == ring::PeerState::kJoined || s == ring::PeerState::kInserting)) {
      pick = p;
    }
  }
  select_s_ += (HostUs() - t) * 1e-6;
  if (pick != nullptr) return pick;
  const std::vector<PeerStack*> m = Members();
  return m.empty() ? nullptr : m[rng.Uniform(0, m.size() - 1)];
}

// Grows the ring to exactly `start_peers` members.  The free-peer pool holds
// one peer per missing member, so splits cannot overshoot the target, and
// simulated time advances between inserts so splits keep pace with the load
// instead of all landing after the last insert.
void Bench::Setup() {
  const double t_setup = HostUs();
  cluster_ = std::make_unique<Cluster>(options_);
  Cluster& c = *cluster_;
  c.Bootstrap(kKeyMax + 1);
  for (size_t i = 1; i < spec_.start_peers; ++i) c.AddFreePeer();
  c.RunFor(sim::kSecond);

  const double t_grow = HostUs();
  sim::Rng rng(kClusterSeed ^ 0x9e0ULL);
  const SimTime gap = 20 * sim::kMillisecond;
  // Far more items than the target ring can hold means it stopped growing.
  const size_t max_items = 20 * options_.ds.storage_factor * spec_.start_peers;
  while (c.LiveMembers().size() < spec_.start_peers) {
    if (used_keys_.size() > max_items) {
      violations_.push_back("setup: the ring stopped growing at " +
                            std::to_string(c.LiveMembers().size()) +
                            " peers");
      return;
    }
    Key k;
    do {
      k = rng.Uniform(0, kKeyMax);
    } while (!used_keys_.insert(k).second);
    if (c.InsertItem(k, "g").ok()) {
      live_keys_.push_back(k);
      expected_.insert(k);
    } else {
      violations_.push_back("setup insert of key " + std::to_string(k) +
                            " failed");
      return;
    }
    c.RunFor(gap);
  }
  grow_s_ = (HostUs() - t_grow) * 1e-6;
  spans_.push_back({"grow", t_grow, HostUs()});
  c.RunFor(kSettle);
  setup_s_ = (HostUs() - t_setup) * 1e-6;
  spans_.push_back({"setup", t_setup, HostUs()});
}

void Bench::Schedule(const std::vector<SimTime>& times, size_t i,
                     void (Bench::*fire)()) {
  if (i >= times.size()) return;
  cluster_->sim().At(phase_start_ + times[i], [this, &times, i, fire]() {
    (this->*fire)();
    Schedule(times, i + 1, fire);
  });
}

void Bench::Issue(OpKind kind, Key key) {
  Op op;
  op.kind = kind;
  op.key = key;
  op.due = cluster_->sim().now();
  ops_.push_back(op);
  Attempt(static_cast<uint32_t>(ops_.size() - 1));
}

// One attempt of operation `id` through a uniformly chosen live member.
// Completions are Defer()ed to the control context, so all bookkeeping runs
// there without synchronisation and in the simulator's deterministic
// (time, origin-seq) order at any shard count.
void Bench::Attempt(uint32_t id) {
  Op& op = ops_[id];
  const uint32_t attempt = ++op.attempts;
  sim::Simulator* s = &cluster_->sim();
  const SimTime started = s->now();
  PeerStack* via = PickMember(via_rng_);
  if (via == nullptr) {
    Retry(id);
    return;
  }
  // A crashed gateway never replies; the client gives up on the attempt.
  s->At(started + kAttemptTimeout, [this, id, attempt]() {
    Op& o = ops_[id];
    if (o.finished || o.attempts != attempt) return;
    o.maybe_applied = true;
    Retry(id);
  });
  auto done = [this, s, id, attempt](const Status& st) {
    s->Defer([this, id, attempt, st]() { Settle(id, attempt, st); });
  };
  switch (op.kind) {
    case OpKind::kInsert: {
      datastore::Item item;
      item.skv = op.key;
      item.data = "w";
      via->index->InsertItem(item, done);
      break;
    }
    case OpKind::kDelete:
      via->index->DeleteItem(op.key, done);
      break;
    case OpKind::kQuery: {
      const Span span{op.key, std::min(op.key + kQueryWidth, kKeyMax)};
      via->index->RangeQuery(span, [this, s, id, attempt, span, started](
                                       const Status& st,
                                       std::vector<datastore::Item> items) {
        s->Defer([this, id, attempt, span, started, st,
                  items = std::move(items)]() {
          if (st.ok()) AuditQuery(span, started, items);
          Settle(id, attempt, st);
        });
      });
      break;
    }
  }
}

void Bench::AuditQuery(const Span& span, SimTime started,
                       const std::vector<datastore::Item>& items) {
  std::vector<Key> keys;
  keys.reserve(items.size());
  for (const auto& it : items) {
    keys.push_back(it.skv);
    op_log_.Add(it.skv);
  }
  const double t = HostUs();
  const auto audit = cluster_->oracle().CheckQuery(
      span, started, cluster_->sim().now(), keys);
  const double t_end = HostUs();
  audit_s_ += (t_end - t) * 1e-6;
  if (traced_) spans_.push_back({"history.check_query", t, t_end});
  if (!audit.correct && ++query_violations_ == 1) {
    violations_.push_back("Definition 4: query " + span.ToString() +
                          " missing " + std::to_string(audit.missing.size()) +
                          ", unexpected " +
                          std::to_string(audit.unexpected.size()));
  }
}

void Bench::Settle(uint32_t id, uint32_t attempt, const Status& st) {
  Op& op = ops_[id];
  if (op.finished) return;  // a late reply to a superseded attempt
  // A delete re-issued after an attempt with an unknown outcome may find
  // the key already gone; a NotFound with no such attempt is a failure.
  if (st.ok() || (st.IsNotFound() && op.maybe_applied)) {
    Finish(id, true);
    return;
  }
  if (!st.IsNotFound()) op.maybe_applied = true;
  if (attempt == op.attempts) Retry(id);
}

// The client re-issues a failed attempt after a backoff, through another
// member, until the operation's deadline.
void Bench::Retry(uint32_t id) {
  const SimTime now = cluster_->sim().now();
  if (now + kRetryBackoff >= ops_[id].due + kClientDeadline) {
    Finish(id, false);
    return;
  }
  ++client_retries_;
  cluster_->sim().At(now + kRetryBackoff, [this, id]() {
    if (!ops_[id].finished) Attempt(id);
  });
}

void Bench::Finish(uint32_t id, bool ok) {
  Op& op = ops_[id];
  op.finished = true;
  op.ok = ok;
  op.done = cluster_->sim().now();
  op_log_.Add(id);
  op_log_.Add(op.done);
  op_log_.Add(op.attempts);
  op_log_.Add(ok ? 1 : 0);
  if (!ok) {
    ++failed_;
    if (op.kind != OpKind::kQuery) uncertain_.insert(op.key);
  } else if (op.kind == OpKind::kInsert) {
    cluster_->oracle().RegisterInsert(op.key);
    live_keys_.push_back(op.key);
    expected_.insert(op.key);
  } else if (op.kind == OpKind::kDelete) {
    cluster_->oracle().RegisterDelete(op.key);
    expected_.erase(op.key);
    deleted_.insert(op.key);
  }
}

void Bench::FireInsert() {
  Key k;
  do {
    k = key_rng_.Uniform(0, kKeyMax);
  } while (!used_keys_.insert(k).second);
  Issue(OpKind::kInsert, k);
}

void Bench::FireDelete() {
  if (live_keys_.empty()) return;
  const size_t idx = delete_rng_.Uniform(0, live_keys_.size() - 1);
  const Key k = live_keys_[idx];
  live_keys_[idx] = live_keys_.back();
  live_keys_.pop_back();
  Issue(OpKind::kDelete, k);
}

void Bench::FireQuery() {
  const Key lo =
      zipf_ != nullptr
          ? (static_cast<Key>(zipf_->Next()) * 2654435761u) % (kKeyMax + 1)
          : key_rng_.Uniform(0, kKeyMax);
  Issue(OpKind::kQuery, lo);
}

void Bench::FireJoin() { cluster_->AddFreePeer(); }

void Bench::FireCrash() {
  const std::vector<PeerStack*> m = Members();
  if (m.size() <= kMinLive) return;
  cluster_->FailPeer(m[crash_rng_.Uniform(0, m.size() - 1)]);
}

std::map<std::string, uint64_t> Bench::CounterDelta() const {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, v] : cluster_->metrics().counters().Snapshot()) {
    auto it = counters0_.find(name);
    out[name] = v - (it == counters0_.end() ? 0 : it->second);
  }
  return out;
}

void Bench::Run() {
  Cluster& c = *cluster_;
  const auto length = static_cast<SimTime>(
      std::llround(static_cast<double>(spec_.length) * scale_));
  sim::Rng master(seed_ * 0x9e3779b97f4a7c15ULL + 0x51ed);
  sim::Rng insert_t(master.Next()), delete_t(master.Next()),
      query_t(master.Next()), join_t(master.Next()), crash_t(master.Next());
  key_rng_ = sim::Rng(master.Next());
  delete_rng_ = sim::Rng(master.Next());
  via_rng_ = sim::Rng(master.Next());
  crash_rng_ = sim::Rng(master.Next());
  if (spec_.zipf_theta > 0) {
    zipf_ = std::make_unique<workload::ZipfGenerator>(100000, spec_.zipf_theta,
                                                      master.Next());
  }
  inserts_ = Arrivals(spec_.insert_rate, length, insert_t);
  deletes_ = Arrivals(spec_.delete_rate, length, delete_t);
  queries_ = Arrivals(spec_.query_rate, length, query_t);
  joins_ = Arrivals(spec_.join_rate, length, join_t);
  crashes_ = Arrivals(spec_.crash_rate, length, crash_t);

  for (const auto& [name, v] : c.metrics().counters().Snapshot()) {
    counters0_[name] = v;
  }
  for (const auto& [name, h] : c.metrics().Series()) series0_[name] = *h;
  events0_ = c.sim().events_executed();
  messages0_ = c.sim().network().messages_sent();
  select_s_ = 0;

  phase_start_ = c.sim().now() + 1;
  Schedule(inserts_, 0, &Bench::FireInsert);
  Schedule(deletes_, 0, &Bench::FireDelete);
  Schedule(queries_, 0, &Bench::FireQuery);
  Schedule(joins_, 0, &Bench::FireJoin);
  Schedule(crashes_, 0, &Bench::FireCrash);

  const double cpu0 = CpuSeconds();
  const double t_run = HostUs();
  const SimTime end = phase_start_ + length + kDrain;
  while (c.sim().now() < end) {
    const double t = HostUs();
    c.RunFor(std::min(kSlice, end - c.sim().now()));
    const double t_end = HostUs();
    slice_ms_.push_back((t_end - t) * 1e-3);
    if (traced_) {
      spans_.push_back({"run.slice", t, t_end});
      slice_counters_.emplace_back(t_end, CounterDelta());
    }
  }
  wall_s_ = (HostUs() - t_run) * 1e-6;
  cpu_s_ = CpuSeconds() - cpu0;
  events_ = c.sim().events_executed() - events0_;
  messages_ = c.sim().network().messages_sent() - messages0_;
}

void Bench::Audit() {
  Cluster& c = *cluster_;
  const double t = HostUs();
  for (Op& op : ops_) {
    if (op.finished) continue;
    ++failed_;
    if (op.kind != OpKind::kQuery) uncertain_.insert(op.key);
  }
  const ring::RingAudit ring = c.AuditRing();
  if (!ring.consistent || !ring.connected) {
    violations_.push_back(std::string("ring audit: consistent=") +
                          (ring.consistent ? "yes" : "no") + " connected=" +
                          (ring.connected ? "yes" : "no"));
  }
  const auto avail = c.AuditAvailability();
  if (!avail.ok) {
    violations_.push_back("Definition 7: " + std::to_string(avail.lost.size()) +
                          " item(s) lost, first key " +
                          std::to_string(avail.lost.front()));
  }
  if (query_violations_ > 0) {
    violations_.push_back(std::to_string(query_violations_) +
                          " query result(s) failed the Definition 4 audit");
  }
  // Conservation: every stored item lies in its holder's arc, no key is
  // stored twice, and the stored set is exactly the acked inserts minus the
  // acked deletes (keys of failed operations may go either way).
  std::set<Key> stored;
  size_t out_of_range = 0, duplicates = 0, unexpected = 0, missing = 0;
  for (const auto& p : c.peers()) {
    if (!p->ring->alive() || !p->ds->active()) continue;
    p->ds->ForEachItem([&](const datastore::Item& item, uint64_t) {
      if (!p->ds->range().Contains(item.skv)) ++out_of_range;
      if (!stored.insert(item.skv).second) ++duplicates;
    });
  }
  for (Key k : stored) {
    if (expected_.count(k) > 0 || uncertain_.count(k) > 0) continue;
    // An acked delete undone by a later revive is reported, not failed:
    // Definitions 4 and 7 do not cover it.
    if (deleted_.count(k) > 0) {
      ++resurrected_;
    } else {
      ++unexpected;
    }
  }
  for (Key k : expected_) {
    if (stored.count(k) == 0 && uncertain_.count(k) == 0) ++missing;
  }
  if (out_of_range + duplicates + unexpected + missing > 0) {
    violations_.push_back(
        "conservation: " + std::to_string(out_of_range) + " out of range, " +
        std::to_string(duplicates) + " duplicated, " +
        std::to_string(unexpected) + " stored but never inserted, " +
        std::to_string(missing) + " expected but not stored");
  }
  peers_end_ = c.LiveMembers().size();
  items_end_ = stored.size();
  final_audit_s_ = (HostUs() - t) * 1e-6;
  spans_.push_back({"history.final_audit", t, HostUs()});
}

void Bench::Report(const std::string& trace_out) {
  Cluster& c = *cluster_;
  const std::map<std::string, uint64_t> d = CounterDelta();
  auto ctr = [&d](const char* name) -> double {
    auto it = d.find(name);
    return it == d.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto series = [&](const char* name) {
    Histogram h;
    const Histogram* cur = c.metrics().FindLatency(name);
    if (cur == nullptr) return h;
    auto it = series0_.find(name);
    return it == series0_.end() ? Histogram(*cur) : cur->DeltaSince(it->second);
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  std::vector<double> ins_ms, qry_ms;
  size_t inserts_done = 0, queries_done = 0;
  for (const Op& op : ops_) {
    const double ms =
        op.finished && op.ok ? static_cast<double>(op.done - op.due) / 1e3
                             : kFailedOpMs;
    if (op.kind == OpKind::kInsert) {
      ins_ms.push_back(ms);
      if (op.ok) ++inserts_done;
    } else if (op.kind == OpKind::kQuery) {
      qry_ms.push_back(ms);
      if (op.ok) ++queries_done;
    }
  }

  Digest digest;
  digest.Add(op_log_.value());
  for (const auto& [name, v] : c.metrics().counters().Snapshot()) {
    digest.Add(name);
    digest.Add(v);
  }
  digest.Add(c.sim().events_executed());
  digest.Add(c.sim().network().messages_sent());

  const Histogram hops = series("router.hops");
  const double messages = static_cast<double>(messages_);
  const double refresh =
      ctr("router.refresh_rpcs") + ctr("router.refresh_replies");
  const double pushes = ctr("repl.push_msgs") + ctr("repl.push_acked");
  const double hits = ctr("store.hits"), faults = ctr("store.faults");

  const std::vector<std::pair<const char*, double>> sim_metrics = {
      {"insert_p50_ms", Percentile(ins_ms, 0.5)},
      {"insert_p99_ms", Percentile(ins_ms, 0.99)},
      {"query_p50_ms", Percentile(qry_ms, 0.5)},
      {"query_p99_ms", Percentile(qry_ms, 0.99)},
      {"msgs_per_op", ratio(messages, static_cast<double>(ops_.size()))},
  };
  const std::vector<std::pair<const char*, double>> layers = {
      {"sim.events", static_cast<double>(events_)},
      {"sim.messages", messages},
      {"ring.stab_rounds", ctr("ring.stab_rounds")},
      {"ring.stab_timeouts", ctr("ring.stab_timeouts")},
      {"ring.inserts_completed", ctr("ring.inserts_completed")},
      {"ring.inserts_aborted", ctr("ring.inserts_aborted")},
      {"ring.succ_removed", ctr("ring.succ_removed")},
      {"ring.insert_succ_p50_ms",
       series("ring.insert_succ").Percentile(0.5) * 1e3},
      {"router.lookups", ctr("router.lookups")},
      {"router.attempts", ctr("router.attempts")},
      {"router.retries", ctr("router.retries")},
      {"router.fwd_dead_end", ctr("router.fwd_dead_end")},
      {"router.hops_mean", hops.count() > 0 ? hops.mean() : 0.0},
      {"router.hops_p99", hops.Percentile(0.99)},
      {"router.refresh_msgs", refresh},
      {"router.refresh_share", ratio(refresh, messages)},
      {"replication.push_msgs", ctr("repl.push_msgs")},
      {"replication.push_bytes", ctr("repl.push_bytes")},
      {"replication.bytes_saved", ctr("repl.bytes_saved")},
      {"replication.delta_pushes", ctr("repl.delta_pushes")},
      {"replication.snapshot_pushes", ctr("repl.snapshot_pushes")},
      {"replication.push_timeouts", ctr("repl.push_timeouts")},
      {"replication.anti_entropy_repairs", ctr("repl.anti_entropy_repairs")},
      {"replication.revives_completed", ctr("repl.revives_completed")},
      {"replication.push_share", ratio(pushes, messages)},
      {"datastore.splits", ctr("ds.splits")},
      {"datastore.merges", ctr("ds.merges")},
      {"datastore.redistributes", ctr("ds.redistributes")},
      {"datastore.split_ms_p50", series("ds.split_time").Percentile(0.5) * 1e3},
      {"datastore.revived_items", ctr("ds.revived_items")},
      {"datastore.scan_stalls", ctr("ds.scan_stalls")},
      {"datastore.scan_forward_timeouts", ctr("ds.scan_forward_timeouts")},
      {"store.hits", hits},
      {"store.faults", faults},
      {"store.hit_ratio", hits + faults > 0 ? hits / (hits + faults) : 1.0},
      {"store.evictions", ctr("store.evictions")},
      {"store.writebacks", ctr("store.writebacks")},
      {"store.btree_splits", ctr("store.btree_splits")},
      {"index.queries", ctr("index.queries")},
      {"index.queries_completed", ctr("index.queries_completed")},
      {"index.queries_failed", ctr("index.queries_failed")},
      {"index.query_resumes", ctr("index.query_resumes")},
      {"index.scan_overlaps", ctr("index.scan_overlaps")},
      {"workload.peers_end", static_cast<double>(peers_end_)},
      {"workload.items_end", static_cast<double>(items_end_)},
      {"workload.inserts_done", static_cast<double>(inserts_done)},
      {"workload.queries_done", static_cast<double>(queries_done)},
      {"workload.client_retries", static_cast<double>(client_retries_)},
      {"history.resurrected", static_cast<double>(resurrected_)},
      {"workload.op_fail_pct",
       100.0 * ratio(static_cast<double>(failed_),
                     static_cast<double>(ops_.size()))},
  };
  const std::vector<std::pair<const char*, double>> host = {
      {"setup_s", setup_s_},
      {"wall_s", wall_s_},
      {"peak_rss_mb", PeakRssMb()},
      {"sim.host_ns_per_event",
       ratio(wall_s_ * 1e9, static_cast<double>(events_))},
      {"sim.slice_ms_p50", Percentile(slice_ms_, 0.5)},
      {"sim.slice_ms_p99", Percentile(slice_ms_, 0.99)},
      {"sim.self_s", wall_s_ - audit_s_},
      {"sim.cpu_s", cpu_s_},
      {"sim.cpu_util", ratio(cpu_s_, wall_s_)},
      {"history.audit_s", audit_s_},
      {"history.audit_share", ratio(audit_s_, wall_s_)},
      {"history.final_audit_s", final_audit_s_},
      {"workload.grow_s", grow_s_},
      {"workload.select_s", select_s_},
  };

  auto emit = [](const std::vector<std::pair<const char*, double>>& kv) {
    std::string s = "{";
    for (size_t i = 0; i < kv.size(); ++i) {
      s += (i ? ", \"" : "\"") + std::string(kv[i].first) + "\": " +
           Num(kv[i].second);
    }
    return s + "}";
  };
  std::string viol = "[";
  for (size_t i = 0; i < violations_.size(); ++i) {
    viol += (i ? ", \"" : "\"") + JsonEscape(violations_[i]) + "\"";
  }
  viol += "]";
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016" PRIx64,
                digest.value());

  auto list = [](const std::vector<double>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + Num(v[i]);
    return s + "]";
  };
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"scale\": %s, "
      "\"shards\": %u, \"traced\": %s, \"correct\": %s, \"attempted\": %zu, "
      "\"failed\": %zu, \"digest\": \"%s\", \"violations\": %s, "
      "\"sim\": %s, \"layers\": %s, \"host\": %s, "
      "\"latency_ms\": {\"insert\": %s, \"query\": %s}}\n",
      spec_.name, seed_, Num(scale_).c_str(), options_.shards,
      traced_ ? "true" : "false", correct() ? "true" : "false", ops_.size(),
      failed_, digest_hex, viol.c_str(), emit(sim_metrics).c_str(),
      emit(layers).c_str(), emit(host).c_str(), list(ins_ms).c_str(),
      list(qry_ms).c_str());
  std::fflush(stdout);
  if (!trace_out.empty()) WriteTraces(trace_out);
}

// Chrome-trace JSON of the harness's own spans (pid 1, host microseconds),
// one simulated-time span per operation (pid 2, simulated microseconds,
// `op` arg = operation id) and per-slice counter deltas; plus the program's
// causal tracer export.
void Bench::WriteTraces(const std::string& dir) const {
  std::ofstream out(dir + "/harness_trace.json");
  std::ofstream sim_out(dir + "/sim_trace.json");
  if (!out || !sim_out) {
    std::fprintf(stderr, "pepper_bench: cannot write traces to %s\n",
                 dir.c_str());
    return;
  }
  out << "{\"traceEvents\":[\n"
      << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{"
         "\"name\":\"host time\"}},\n"
      << "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{"
         "\"name\":\"simulated time\"}}";
  for (const HostSpan& s : spans_) {
    out << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"" << s.name
        << "\",\"ts\":" << Num(s.start_us)
        << ",\"dur\":" << Num(s.end_us - s.start_us) << "}";
  }
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    const SimTime end = op.finished ? op.done : op.due;
    out << ",\n{\"ph\":\"X\",\"pid\":2,\"tid\":"
        << static_cast<int>(op.kind) + 1 << ",\"name\":\"" << OpName(op.kind)
        << "\",\"ts\":" << op.due << ",\"dur\":" << end - op.due
        << ",\"args\":{\"op\":" << i << ",\"key\":" << op.key
        << ",\"ok\":" << (op.ok ? "true" : "false") << "}}";
  }
  // Snapshots are cumulative over the measured phase; each counter event
  // carries the slice's own increment.
  const std::map<std::string, uint64_t>* prev = nullptr;
  for (const auto& [ts, counters] : slice_counters_) {
    out << ",\n{\"ph\":\"C\",\"pid\":1,\"name\":\"counters\",\"ts\":"
        << Num(ts) << ",\"args\":{";
    bool first = true;
    for (const auto& [name, v] : counters) {
      uint64_t before = 0;
      if (prev != nullptr) {
        auto it = prev->find(name);
        if (it != prev->end()) before = it->second;
      }
      out << (first ? "" : ",") << "\"" << name << "\":" << v - before;
      first = false;
    }
    out << "}}";
    prev = &counters;
  }
  out << "\n]}\n";
  sim_out << cluster_->sim().tracer().ChromeTraceJson();
}

int Main(int argc, char** argv) {
  std::string workload_name, trace_out;
  uint64_t seed = 1;
  double scale = 1.0;
  int shards = -1;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&a](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return a.compare(0, n, flag) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      workload_name = v;
    } else if (const char* v = value("--seed=")) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--scale=")) {
      scale = std::strtod(v, nullptr);
    } else if (const char* v = value("--shards=")) {
      shards = std::atoi(v);
    } else if (const char* v = value("--trace-out=")) {
      trace_out = v;
      traced = true;
    } else if (a == "--traced") {
      traced = true;
    } else {
      std::fprintf(stderr, "pepper_bench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (workload_name == s.name) spec = &s;
  }
  if (spec == nullptr || !(scale > 0.0 && scale <= 10.0) || shards > 32) {
    std::fprintf(stderr,
                 "usage: pepper_bench --workload={churn|scan|ingest|"
                 "churn_sharded} [--seed=N] [--scale=F] [--shards=N] "
                 "[--traced] [--trace-out=DIR]\n");
    return 2;
  }
  Bench bench(*spec, seed, scale,
              shards >= 0 ? static_cast<uint32_t>(shards) : spec->shards,
              traced);
  bench.Setup();
  bench.Run();
  bench.Audit();
  bench.Report(trace_out);
  return bench.correct() ? 0 : 1;
}

}  // namespace
}  // namespace pepper::perfbench

int main(int argc, char** argv) { return pepper::perfbench::Main(argc, argv); }
