#include "workload/workload.h"

#include <algorithm>
#include <cmath>

namespace pepper::workload {

ZipfGenerator::ZipfGenerator(size_t n, double theta, uint64_t seed)
    : n_(n == 0 ? 1 : n), theta_(theta), zetan_(0.0), rng_(seed) {
  for (size_t i = 1; i <= n_; ++i) {
    zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
  }
}

size_t ZipfGenerator::Next() {
  // YCSB-style zipfian inversion.
  const double u = rng_.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const double zeta2 = 1.0 + std::pow(0.5, theta_);
  const double alpha = 1.0 / (1.0 - theta_);
  const double eta =
      (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
      (1.0 - zeta2 / zetan_);
  auto rank = static_cast<size_t>(static_cast<double>(n_) *
                                  std::pow(eta * u - eta + 1.0, alpha));
  return rank >= n_ ? n_ - 1 : rank;
}

WorkloadDriver::WorkloadDriver(Cluster* cluster, WorkloadOptions options,
                               uint64_t seed)
    : cluster_(cluster), options_(options), rng_(seed) {
  Counters& c = metrics().counters();
  m_inserts_issued_ = c.Intern("wl.inserts_issued");
  m_insert_failures_ = c.Intern("wl.insert_failures");
  m_deletes_issued_ = c.Intern("wl.deletes_issued");
  m_peers_added_ = c.Intern("wl.peers_added");
  m_failures_injected_ = c.Intern("wl.failures_injected");
  m_failures_skipped_ = c.Intern("wl.failures_skipped_min_live");
  m_queries_issued_ = c.Intern("wl.queries_issued");
  m_query_failures_ = c.Intern("wl.query_failures");
  m_queries_ok_ = c.Intern("wl.queries_ok");
  m_query_violations_ = c.Intern("wl.query_violations");
  m_insert_time_ = metrics().LatencyHandle("wl.insert_time");
  m_query_time_ = metrics().LatencyHandle("wl.query_time");
  if (options_.zipf_keys) {
    zipf_ = std::make_unique<ZipfGenerator>(100000, options_.zipf_theta,
                                            rng_.Next());
  }
}

void WorkloadDriver::set_options(WorkloadOptions options) {
  const bool rebuild_zipf =
      options.zipf_keys &&
      (!options_.zipf_keys || options.zipf_theta != options_.zipf_theta ||
       zipf_ == nullptr);
  options_ = options;
  if (rebuild_zipf) {
    zipf_ = std::make_unique<ZipfGenerator>(100000, options_.zipf_theta,
                                            rng_.Next());
  }
  if (!options_.zipf_keys) zipf_.reset();
}

void WorkloadDriver::Start() {
  running_ = true;
  // New epoch: pending arrival timers from an earlier Start() see a stale
  // epoch and die, so a phase re-arm never doubles a stream.
  const uint64_t epoch = ++epoch_;
  if (options_.insert_rate_per_sec > 0) ArmInsert(epoch);
  if (options_.delete_rate_per_sec > 0) ArmDelete(epoch);
  if (options_.peer_add_rate_per_sec > 0) ArmPeerAdd(epoch);
  if (options_.fail_rate_per_sec > 0) ArmFail(epoch);
  if (options_.query_rate_per_sec > 0) ArmQuery(epoch);
}

sim::SimTime WorkloadDriver::Arrival(double rate_per_sec) {
  const double mean_us = 1e6 / rate_per_sec;
  auto d = static_cast<sim::SimTime>(rng_.Exponential(mean_us));
  return d == 0 ? 1 : d;
}

Key WorkloadDriver::NextKey() {
  const Key span = options_.key_max - options_.key_min;
  if (zipf_ != nullptr) {
    // Map zipf ranks onto scattered key-space buckets so popular ranks
    // cluster (skew) without colliding; the hotspot offset rotates which
    // arc of the ring carries the popular mass.
    const size_t rank = zipf_->Next();
    const Key bucket =
        options_.key_min +
        (static_cast<Key>(rank) * 2654435761u + options_.zipf_hotspot_offset) %
            span;
    return bucket;
  }
  return options_.key_min + rng_.Uniform(0, span);
}

void WorkloadDriver::ArmInsert(uint64_t epoch) {
  cluster_->sim().After(Arrival(options_.insert_rate_per_sec),
                        [this, epoch]() {
    if (!running_ || epoch != epoch_) return;
    PeerStack* via = cluster_->SomeMember();
    if (via != nullptr) {
      datastore::Item item;
      item.skv = NextKey();
      item.data = "w";
      auto* oracle = &cluster_->oracle();
      // Client operations run on the gateway's own execution, one lookahead
      // out.  This timer runs in the control context, at the barrier after
      // the window's node events, where a store read is already as of the
      // window edge while now() still reports the control instant: a query
      // the gateway answered locally would be audited against the wrong
      // interval.  The driver's own state and the cluster-global oracle are
      // control-context state, so the issue count (an operation whose
      // gateway crashed before it started was never issued) and the
      // completion route back through Defer (at the window barrier, with
      // now() still reporting the issue or completion instant).
      cluster_->sim().PostToNode(via->id(), [this, via, item, oracle]() {
        const Key key = item.skv;
        const sim::SimTime issued = cluster_->sim().now();
        cluster_->sim().Defer([this, key]() {
          ++inserts_issued_;
          inserted_keys_.push_back(key);
          metrics().counters().Inc(m_inserts_issued_);
        });
        via->index->InsertItem(item, [this, oracle, key,
                                      issued](const Status& s) {
          cluster_->sim().Defer([this, oracle, key, issued, s]() {
            if (s.ok()) {
              oracle->RegisterInsert(key);
              m_insert_time_->Add(
                  sim::ToSeconds(cluster_->sim().now() - issued));
            } else {
              metrics().counters().Inc(m_insert_failures_);
            }
          });
        });
      });
    }
    ArmInsert(epoch);
  });
}

void WorkloadDriver::ArmDelete(uint64_t epoch) {
  cluster_->sim().After(Arrival(options_.delete_rate_per_sec),
                        [this, epoch]() {
    if (!running_ || epoch != epoch_) return;
    PeerStack* via = cluster_->SomeMember();
    if (via != nullptr && !inserted_keys_.empty()) {
      const size_t idx = rng_.Uniform(0, inserted_keys_.size() - 1);
      const Key key = inserted_keys_[idx];
      inserted_keys_.erase(inserted_keys_.begin() + static_cast<long>(idx));
      auto* oracle = &cluster_->oracle();
      cluster_->sim().PostToNode(via->id(), [this, via, oracle, key]() {
        const sim::SimTime issued = cluster_->sim().now();
        cluster_->sim().Defer([this]() {
          ++deletes_issued_;
          metrics().counters().Inc(m_deletes_issued_);
        });
        via->index->DeleteItem(key, [this, oracle, key,
                                     issued](const Status& s) {
          cluster_->sim().Defer([oracle, key, issued, s]() {
            if (s.ok()) {
              oracle->RegisterDelete(key);
            } else {
              oracle->RegisterUnconfirmedDelete(key, issued);
            }
          });
        });
      });
    }
    ArmDelete(epoch);
  });
}

void WorkloadDriver::ArmPeerAdd(uint64_t epoch) {
  cluster_->sim().After(Arrival(options_.peer_add_rate_per_sec),
                        [this, epoch]() {
    if (!running_ || epoch != epoch_) return;
    cluster_->AddFreePeer();
    metrics().counters().Inc(m_peers_added_);
    ArmPeerAdd(epoch);
  });
}

void WorkloadDriver::ArmFail(uint64_t epoch) {
  cluster_->sim().After(Arrival(options_.fail_rate_per_sec),
                        [this, epoch]() {
    if (!running_ || epoch != epoch_) return;
    auto members = cluster_->LiveMembers();
    if (members.size() > options_.min_live_members) {
      const size_t idx = rng_.Uniform(0, members.size() - 1);
      cluster_->FailPeer(members[idx]);
      ++failures_injected_;
      metrics().counters().Inc(m_failures_injected_);
    } else {
      metrics().counters().Inc(m_failures_skipped_);
    }
    ArmFail(epoch);
  });
}

void WorkloadDriver::ArmQuery(uint64_t epoch) {
  cluster_->sim().After(Arrival(options_.query_rate_per_sec),
                        [this, epoch]() {
    if (!running_ || epoch != epoch_) return;
    PeerStack* via = cluster_->SomeMember();
    if (via != nullptr) {
      const Key lo = NextKey();
      const Key hi = std::min(lo + options_.query_span_width,
                              options_.key_max);
      const Span span{lo, hi};
      auto* oracle = &cluster_->oracle();
      cluster_->sim().PostToNode(via->id(), [this, via, oracle, span]() {
        const sim::SimTime started = cluster_->sim().now();
        cluster_->sim().Defer([this]() {
          ++queries_issued_;
          metrics().counters().Inc(m_queries_issued_);
        });
        via->index->RangeQuery(
            span, [this, oracle, span, started](
                      const Status& s, std::vector<datastore::Item> items) {
              // The audit reads the oracle's global timeline: control context
              // only (now() inside still reports the completion instant).
              cluster_->sim().Defer([this, oracle, span, started, s,
                                     items = std::move(items)]() {
                m_query_time_->Add(
                    sim::ToSeconds(cluster_->sim().now() - started));
                if (!s.ok()) {
                  metrics().counters().Inc(m_query_failures_);
                  return;  // incomplete results carry no correctness claim
                }
                std::vector<Key> keys;
                keys.reserve(items.size());
                for (const auto& it : items) keys.push_back(it.skv);
                const auto audit = oracle->CheckQuery(
                    span, started, cluster_->sim().now(), keys);
                if (audit.correct) {
                  metrics().counters().Inc(m_queries_ok_);
                } else {
                  ++query_violations_;
                  metrics().counters().Inc(m_query_violations_);
                }
              });
            });
      });
    }
    ArmQuery(epoch);
  });
}

}  // namespace pepper::workload
