#include "index/p2p_index.h"

#include <memory>
#include <utility>

#include "common/logging.h"

namespace pepper::index {

namespace {
constexpr char kRangeQueryHandler[] = "index.rangeQuery";
// Hops a naive ring-walk scan may take before it is dropped.
constexpr int kNaiveScanHopBudget = 512;
}  // namespace

P2PIndex::P2PIndex(ring::RingNode* ring, datastore::DataStoreNode* ds,
                   router::ContentRouter* router, IndexOptions options)
    : sim::ProtocolComponent(ring->node()),
      ring_(ring),
      ds_(ds),
      router_(router),
      options_(std::move(options)),
      next_query_id_(static_cast<uint64_t>(ring->id()) << 40) {
  if (options_.metrics != nullptr) {
    Counters& ctr = options_.metrics->counters();
    m_inserts_ = ctr.Intern("index.inserts");
    m_deletes_ = ctr.Intern("index.deletes");
    m_queries_ = ctr.Intern("index.queries");
    m_queries_completed_ = ctr.Intern("index.queries_completed");
    m_queries_failed_ = ctr.Intern("index.queries_failed");
    m_scan_overlaps_ = ctr.Intern("index.scan_overlaps");
    m_query_resumes_ = ctr.Intern("index.query_resumes");
    m_query_time_ = options_.metrics->LatencyHandle("index.query_time");
  }
  On<StartScanRequest>(
      [this](const sim::Message& m, const StartScanRequest& req) {
        HandleStartScan(m, req);
      });
  On<QueryPartial>(
      [this](const sim::Message& m, const QueryPartial& part) {
        HandleQueryPartial(m, part);
      });
  On<NaiveScanMsg>(
      [this](const sim::Message& m, const NaiveScanMsg& scan) {
        HandleNaiveScan(m, scan);
      });
  On<QueryDoneMsg>(
      [this](const sim::Message& m, const QueryDoneMsg& done) {
        HandleQueryDone(m, done);
      });

  // Algorithm 7: the rangeQuery handler sends the matching local items and
  // the covered sub-range to the initiating peer.
  ds_->RegisterScanHandler(
      kRangeQueryHandler,
      [this](const Span& r, const sim::PayloadPtr& param) {
        const auto* p = dynamic_cast<const RangeScanParam*>(param.get());
        if (p == nullptr) return;
        auto partial = std::make_shared<QueryPartial>();
        partial->query_id = p->query_id;
        partial->r = r;
        ds_->ForEachItem([&r, &partial](const datastore::Item& it, uint64_t) {
          if (r.Contains(it.skv)) partial->items.push_back(it);
        });
        if (p->initiator == id()) {
          HandleQueryPartial(sim::Message{}, *partial);
        } else {
          Send(p->initiator, partial);
        }
      });

  // The watchdog only has work while a query is in flight here, so it is
  // armed by the first RangeQuery and cancelled when the last one finishes.
  watchdog_grid_ = now() + options_.watchdog_period;
}

// --- insert / delete ---------------------------------------------------------

void P2PIndex::InsertItem(const datastore::Item& item, DoneFn done) {
  if (options_.metrics != nullptr) {
    options_.metrics->counters().Inc(m_inserts_);
  }
  // Root span of the whole insert (lookup, store RPC, retries); the wrapped
  // completion closes it.  The wrapper only exists on the sampled path.
  const trace::OpToken op = TraceOp("index.insert", item.skv);
  if (op.active()) {
    AttemptInsert(item, options_.insert_retries,
                  [this, op, done = std::move(done)](const Status& s) {
                    TraceFinish(op);
                    done(s);
                  });
    return;
  }
  AttemptInsert(item, options_.insert_retries, std::move(done));
}

void P2PIndex::AttemptInsert(const datastore::Item& item, int retries_left,
                             DoneFn done) {
  router_->Lookup(
      item.skv,
      [this, item, retries_left, done](const Status& s, sim::NodeId owner,
                                       int /*hops*/) {
        auto retry = [this, item, retries_left, done](const Status& why) {
          if (retries_left <= 0) {
            done(why);
            return;
          }
          TraceMark("index.insert_retry", item.skv);
          // Exponential backoff: reorganizations (especially merge
          // takeovers waiting on leave propagation) can hold a range for
          // several stabilization rounds.
          const int attempt = options_.insert_retries - retries_left + 1;
          After(options_.retry_delay * attempt,
                       [this, item, retries_left, done]() {
                         AttemptInsert(item, retries_left - 1, done);
                       });
        };
        if (!s.ok()) {
          retry(s);
          return;
        }
        if (owner == id()) {
          Status local = ds_->InsertLocal(item);
          if (local.ok()) {
            done(local);
          } else {
            retry(local);
          }
          return;
        }
        auto req = std::make_shared<datastore::DsInsertRequest>();
        req->item = item;
        Call(
            owner, req,
            [done, retry](const sim::Message& m) {
              const auto& ack =
                  static_cast<const datastore::DsAck&>(*m.payload);
              if (ack.ok) {
                done(Status::OK());
              } else {
                retry(Status::Unavailable(ack.error));
              }
            },
            options_.rpc_timeout,
            [retry]() { retry(Status::TimedOut("owner unreachable")); });
      });
}

void P2PIndex::DeleteItem(Key skv, DoneFn done) {
  if (options_.metrics != nullptr) {
    options_.metrics->counters().Inc(m_deletes_);
  }
  const trace::OpToken op = TraceOp("index.delete", skv);
  if (op.active()) {
    AttemptDelete(skv, options_.insert_retries,
                  [this, op, done = std::move(done)](const Status& s) {
                    TraceFinish(op);
                    done(s);
                  });
    return;
  }
  AttemptDelete(skv, options_.insert_retries, std::move(done));
}

void P2PIndex::AttemptDelete(Key skv, int retries_left, DoneFn done) {
  router_->Lookup(
      skv, [this, skv, retries_left, done](const Status& s, sim::NodeId owner,
                                           int /*hops*/) {
        auto retry = [this, skv, retries_left, done](const Status& why) {
          if (retries_left <= 0) {
            done(why);
            return;
          }
          TraceMark("index.delete_retry", skv);
          const int attempt = options_.insert_retries - retries_left + 1;
          After(options_.retry_delay * attempt,
                       [this, skv, retries_left, done]() {
                         AttemptDelete(skv, retries_left - 1, done);
                       });
        };
        if (!s.ok()) {
          retry(s);
          return;
        }
        if (owner == id()) {
          Status local = ds_->DeleteLocal(skv);
          // NotFound is final: the item is not in the system.
          if (local.ok() || local.IsNotFound()) {
            done(local);
          } else {
            retry(local);
          }
          return;
        }
        auto req = std::make_shared<datastore::DsDeleteRequest>();
        req->skv = skv;
        Call(
            owner, req,
            [done, retry](const sim::Message& m) {
              const auto& ack =
                  static_cast<const datastore::DsAck&>(*m.payload);
              if (ack.ok || ack.error == "") {
                done(ack.ok ? Status::OK() : Status::NotFound());
              } else {
                retry(Status::Unavailable(ack.error));
              }
            },
            options_.rpc_timeout,
            [retry]() { retry(Status::TimedOut("owner unreachable")); });
      });
}

// --- range queries -----------------------------------------------------------

void P2PIndex::RangeQuery(const Span& span, QueryFn done) {
  const uint64_t query_id = ++next_query_id_;
  ActiveQuery q;
  q.span = span;
  q.coverage = SpanCoverage(span);
  q.done = std::move(done);
  q.started = now();
  q.last_progress = q.started;
  q.naive = !options_.pepper_scan;
  q.op = TraceOp("index.query", span.lo);
  if (queries_.empty()) ArmWatchdog();
  queries_.emplace(query_id, std::move(q));
  if (options_.metrics != nullptr) {
    options_.metrics->counters().Inc(m_queries_);
  }
  if (options_.pepper_scan) {
    Kick(query_id);
  } else {
    KickNaive(query_id);
  }
}

void P2PIndex::Kick(uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end() || it->second.kicking) return;
  ActiveQuery& q = it->second;
  // Watchdog re-kicks run outside the query's causal chain; rejoin it so
  // the lookup and scan fan-out stay under the query span.
  if (q.op.active()) trace::Tracer::SetCurrent(q.op.ctx);
  auto next = q.coverage.FirstUncovered();
  if (!next.has_value()) {
    Finish(query_id, Status::OK());
    return;
  }
  q.kicking = true;
  const Key lb = *next;
  const Key ub = q.span.hi;
  router_->Lookup(lb, [this, query_id, lb, ub](const Status& s,
                                               sim::NodeId owner,
                                               int /*hops*/) {
    auto it = queries_.find(query_id);
    if (it == queries_.end()) return;
    it->second.kicking = false;
    if (!s.ok()) return;  // watchdog re-kicks
    if (owner == id()) {
      auto param = std::make_shared<RangeScanParam>();
      param->query_id = query_id;
      param->initiator = id();
      ds_->ScanRange(lb, ub, kRangeQueryHandler, param,
                     [](const Status&) {});
      return;
    }
    auto req = std::make_shared<StartScanRequest>();
    req->query_id = query_id;
    req->lb = lb;
    req->ub = ub;
    req->initiator = id();
    Call(
        owner, req, [](const sim::Message&) {},
        ds_->options().lock_timeout + options_.rpc_timeout,
        []() { /* watchdog re-kicks */ });
  });
}

void P2PIndex::HandleStartScan(const sim::Message& msg,
                               const StartScanRequest& req) {
  auto param = std::make_shared<RangeScanParam>();
  param->query_id = req.query_id;
  param->initiator = req.initiator;
  const sim::Message request = msg;
  ds_->ScanRange(req.lb, req.ub, kRangeQueryHandler, param,
                 [this, request](const Status& s) {
                   auto ack = std::make_shared<StartScanAck>();
                   ack->ok = s.ok();
                   Reply(request, ack);
                 });
}

void P2PIndex::HandleQueryPartial(const sim::Message&,
                                  const QueryPartial& part) {
  auto it = queries_.find(part.query_id);
  if (it == queries_.end()) return;  // finished already
  ActiveQuery& q = it->second;
  if (!q.naive && q.coverage.saw_overlap()) {
    // already flagged; keep collecting anyway
  }
  q.coverage.Add(part.r);
  if (!q.naive && q.coverage.saw_overlap() && options_.metrics != nullptr) {
    options_.metrics->counters().Inc(m_scan_overlaps_);
  }
  for (const datastore::Item& item : part.items) {
    q.items[item.skv] = item;
  }
  q.last_progress = now();
  if (!q.naive && q.coverage.Complete()) {
    Finish(part.query_id, Status::OK());
  }
}

void P2PIndex::KickNaive(uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  const Span span = it->second.span;
  router_->Lookup(span.lo, [this, query_id, span](const Status& s,
                                                  sim::NodeId owner,
                                                  int /*hops*/) {
    if (!s.ok()) return;  // times out with partial (empty) results
    auto scan = std::make_shared<NaiveScanMsg>();
    scan->query_id = query_id;
    scan->lb = span.lo;
    scan->ub = span.hi;
    scan->initiator = id();
    scan->hops_left = kNaiveScanHopBudget;
    if (owner == id()) {
      HandleNaiveScan(sim::Message{}, *scan);
    } else {
      Send(owner, scan);
    }
  });
}

void P2PIndex::HandleNaiveScan(const sim::Message&, const NaiveScanMsg& scan) {
  if (!ds_->active()) return;  // scan chain dies; initiator times out
  // No locks, no abort checks: read whatever the Data Store holds right now
  // (this is exactly how results are missed in Figures 9 and 10).
  auto partial = std::make_shared<QueryPartial>();
  partial->query_id = scan.query_id;
  const Span query_span{scan.lb, scan.ub};
  auto pieces = ds_->range().IntersectClosed(query_span);
  partial->r = pieces.empty() ? Span{1, 0} : pieces.front();
  ds_->ForEachItem(
      [&query_span, &partial](const datastore::Item& it, uint64_t) {
    if (query_span.Contains(it.skv)) partial->items.push_back(it);
  });
  auto deliver_local = scan.initiator == id();
  if (deliver_local) {
    HandleQueryPartial(sim::Message{}, *partial);
  } else {
    Send(scan.initiator, partial);
  }

  if (ds_->range().Contains(scan.ub) || scan.hops_left <= 0) {
    auto done = std::make_shared<QueryDoneMsg>();
    done->query_id = scan.query_id;
    if (deliver_local) {
      HandleQueryDone(sim::Message{}, *done);
    } else {
      Send(scan.initiator, done);
    }
    return;
  }
  auto succ = ring_->GetSuccRelaxed();
  if (!succ.has_value() || succ->id == id()) return;
  auto fwd = std::make_shared<NaiveScanMsg>();
  *fwd = scan;
  fwd->hops_left = scan.hops_left - 1;
  Send(succ->id, fwd);
}

void P2PIndex::HandleQueryDone(const sim::Message&, const QueryDoneMsg& done) {
  auto it = queries_.find(done.query_id);
  if (it == queries_.end()) return;
  Finish(done.query_id, Status::OK());
}

void P2PIndex::Finish(uint64_t query_id, const Status& status) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  ActiveQuery q = std::move(it->second);
  queries_.erase(it);
  if (queries_.empty()) {
    CancelTimer(watchdog_timer_);
    watchdog_timer_ = 0;
  }
  TraceFinish(q.op);
  std::vector<datastore::Item> items;
  items.reserve(q.items.size());
  for (auto& kv : q.items) items.push_back(std::move(kv.second));
  if (options_.metrics != nullptr) {
    m_query_time_->Add(sim::ToSeconds(now() - q.started));
    options_.metrics->counters().Inc(
        status.ok() ? m_queries_completed_ : m_queries_failed_);
  }
  q.done(status, std::move(items));
}

void P2PIndex::ArmWatchdog() {
  const sim::SimTime period = options_.watchdog_period;
  const sim::SimTime earliest = now() + sim()->lookahead();
  sim::SimTime first = watchdog_grid_;
  if (earliest > first) {
    first += (earliest - first + period - 1) / period * period;
  }
  watchdog_timer_ = Every("index.watchdog", period, [this]() { Watchdog(); },
                          first - now());
}

void P2PIndex::Watchdog() {
  std::vector<uint64_t> to_fail;
  std::vector<uint64_t> to_kick;
  const sim::SimTime now_us = now();
  for (auto& kv : queries_) {
    ActiveQuery& q = kv.second;
    if (now_us - q.started > options_.query_timeout) {
      to_fail.push_back(kv.first);
    } else if (!q.naive && !q.kicking &&
               now_us - q.last_progress > options_.progress_timeout) {
      to_kick.push_back(kv.first);
    }
  }
  for (uint64_t id : to_fail) {
    Finish(id, Status::TimedOut("query deadline"));
  }
  for (uint64_t id : to_kick) {
    if (options_.metrics != nullptr) {
      options_.metrics->counters().Inc(m_query_resumes_);
    }
    Kick(id);
  }
}

}  // namespace pepper::index
