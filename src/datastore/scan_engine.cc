#include "datastore/scan_engine.h"

#include <memory>
#include <utility>

#include "common/logging.h"
#include "datastore/data_store_node.h"
#include "ring/ring_node.h"
#include "telemetry/load_monitor.h"

namespace pepper::datastore {

namespace {

// Retries of a scan held at the successor STAB gate before it is dropped
// (2 s at the default retry delay).
constexpr int kScanSuccRetries = 40;

}  // namespace

ScanEngine::ScanEngine(DataStoreNode* ds)
    : sim::ProtocolComponent(ds->node()), ds_(ds) {
  if (ds_->metrics() != nullptr) {
    Counters& ctr = ds_->metrics()->counters();
    m_scan_aborts_ = ctr.Intern("ds.scan_aborts");
    m_scan_hops_exhausted_ = ctr.Intern("ds.scan_hops_exhausted");
    m_scan_stalls_ = ctr.Intern("ds.scan_stalls");
    m_scan_forward_timeouts_ = ctr.Intern("ds.scan_forward_timeouts");
  }
  On<ProcessScanRequest>(
      [this](const sim::Message& m, const ProcessScanRequest& req) {
        HandleProcessScan(m, req);
      });
}

void ScanEngine::RegisterHandler(const std::string& handler_id,
                                 ScanHandler fn) {
  handlers_[handler_id] = std::move(fn);
}

void ScanEngine::ScanRange(Key lb, Key ub, const std::string& handler_id,
                           sim::PayloadPtr param, DoneFn accepted) {
  ds_->AcquireReadTimed([this, lb, ub, handler_id, param = std::move(param),
                         accepted = std::move(accepted)](bool ok) {
    if (!ok) {
      accepted(Status::TimedOut("range lock"));
      return;
    }
    if (!ds_->active() || !ds_->range().Contains(lb)) {
      // Algorithm 3 lines 1-4: not the first peer of the scan range; abort
      // and let the caller re-route.
      ds_->lock().ReleaseRead();
      TraceMark("ds.scan_abort", lb);
      if (ds_->metrics() != nullptr) {
        ds_->metrics()->counters().Inc(m_scan_aborts_);
      }
      accepted(Status::Aborted("lb not in this peer's range"));
      return;
    }
    accepted(Status::OK());
    ProcessHandler(lb, ub, handler_id, param, ds_->options().scan_hop_budget);
  });
}

void ScanEngine::ProcessHandler(Key lb, Key ub, const std::string& handler_id,
                                sim::PayloadPtr param, int hops_left) {
  // Lock is held (read).  Invoke the handler with our slice of [lb, ub]
  // (Algorithm 4 lines 1-3).
  if (ds_->options().monitor != nullptr) {
    // One scan-hop served by this arc, charged at the instant the slice is
    // processed — accept aborts and stalls never count.
    ds_->options().monitor->OnScanServed(id(), now());
  }
  ds_->BeginStoreOp();
  auto it = handlers_.find(handler_id);
  if (it != handlers_.end()) {
    for (const Span& r : ds_->range().IntersectClosed(Span{lb, ub})) {
      it->second(r, param);
    }
  } else {
    PEPPER_LOG(Warn) << "no scan handler '" << handler_id << "'";
  }
  // The handler iterated our slice through the store; charge any page
  // faults before the scan proceeds (release or forward).
  ds_->ChargeStoreIo([this, lb, ub, handler_id, param = std::move(param),
                      hops_left]() {
    if (ds_->range().Contains(ub)) {
      ds_->lock().ReleaseRead();  // scan complete at this peer
      return;
    }
    if (hops_left <= 0) {
      ds_->lock().ReleaseRead();
      TraceMark("ds.scan_hops_exhausted", lb);
      if (ds_->metrics() != nullptr) {
        ds_->metrics()->counters().Inc(m_scan_hops_exhausted_);
      }
      return;
    }
    ForwardScan(lb, ub, handler_id, param, hops_left - 1, kScanSuccRetries);
  });
}

void ScanEngine::ForwardScan(Key lb, Key ub, const std::string& handler_id,
                             sim::PayloadPtr param, int hops_left,
                             int retries_left) {
  auto succ = ds_->ring()->GetSucc();
  if (!succ.has_value() || succ->id == id()) {
    if (succ.has_value() || retries_left <= 0) {
      // Successor is ourselves (lone peer, but ub not in range — stale), or
      // the STAB gate never opened: give up; the initiator's coverage
      // tracker will resume the query.
      ds_->lock().ReleaseRead();
      TraceMark("ds.scan_stall", lb);
      if (ds_->metrics() != nullptr) {
        ds_->metrics()->counters().Inc(m_scan_stalls_);
      }
      return;
    }
    // getSucc is gated until we stabilize with a fresh successor
    // (Algorithm 21); hold our lock and retry shortly, exactly the paper's
    // "block until the successor is usable" semantics.
    After(ds_->options().scan_succ_retry_delay,
          [this, lb, ub, handler_id, param = std::move(param), hops_left,
           retries_left]() {
            ForwardScan(lb, ub, handler_id, param, hops_left,
                        retries_left - 1);
          });
    return;
  }

  auto req = std::make_shared<ProcessScanRequest>();
  req->scan_id = next_scan_id_++;
  req->lb = lb;
  req->ub = ub;
  req->handler_id = handler_id;
  req->param = std::move(param);
  req->hops_left = hops_left;
  Call(
      succ->id, req,
      [this](const sim::Message&) {
        // Successor holds its lock (Algorithm 5); release ours.
        ds_->lock().ReleaseRead();
      },
      ds_->options().lock_timeout + ds_->options().rpc_timeout,
      [this, lb]() {
        // Successor died or stalled; initiator resumes.
        ds_->lock().ReleaseRead();
        TraceMark("ds.scan_forward_timeout", lb);
        if (ds_->metrics() != nullptr) {
          ds_->metrics()->counters().Inc(m_scan_forward_timeouts_);
        }
      });
}

void ScanEngine::HandleProcessScan(const sim::Message& msg,
                                   const ProcessScanRequest& req) {
  if (!ds_->active()) {
    auto resp = std::make_shared<ProcessScanAccepted>();
    resp->ok = false;
    Reply(msg, resp);
    return;
  }
  // Copy what we need; the payload may outlive this handler anyway (shared).
  const Key lb = req.lb;
  const Key ub = req.ub;
  const std::string handler_id = req.handler_id;
  sim::PayloadPtr param = req.param;
  const int hops_left = req.hops_left;
  ds_->AcquireReadTimed([this, msg, lb, ub, handler_id, param,
                         hops_left](bool ok) {
    if (!ok) return;  // predecessor times out and releases
    Reply(msg, sim::MakePayload<ProcessScanAccepted>());
    ProcessHandler(lb, ub, handler_id, param, hops_left);
  });
}

}  // namespace pepper::datastore
