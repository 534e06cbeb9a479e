#include "workload/cluster.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "datastore/ds_messages.h"
#include "datastore/rebalancer.h"

namespace pepper::workload {

namespace {

struct OpState {
  bool done = false;
  Status status = Status::Internal("not finished");
};

}  // namespace

ClusterOptions ClusterOptions::PaperDefaults() {
  ClusterOptions o;
  // Section 6.1: successor list 4, stabilization 4 s, sf = 5, k = 6.
  o.ring.succ_list_length = 4;
  o.ring.stabilization_period = 4 * sim::kSecond;
  o.ring.ping_period = 2 * sim::kSecond;
  o.ds.storage_factor = 5;
  o.repl.replication_factor = 6;
  // The predecessor-liveness verification makes an aggressive takeover TTL
  // safe; two stabilization periods bounds revival latency.
  o.ring.pred_ttl = 8 * sim::kSecond;
  // Bound worst-case insert/leave completion (concurrent adjacent leaves
  // can stall acknowledgement propagation; the operations proceed safely
  // after the bound).
  o.ring.insert_ack_timeout = 20 * sim::kSecond;
  o.ring.leave_ack_timeout = 8 * sim::kSecond;
  return o;
}

ClusterOptions ClusterOptions::FastDefaults() {
  ClusterOptions o;
  o.ring.succ_list_length = 4;
  o.ring.stabilization_period = 200 * sim::kMillisecond;
  o.ring.ping_period = 100 * sim::kMillisecond;
  o.ring.rpc_timeout = 20 * sim::kMillisecond;
  o.ring.ping_timeout = 20 * sim::kMillisecond;
  o.ring.insert_ack_timeout = 5 * sim::kSecond;
  o.ring.leave_ack_timeout = 5 * sim::kSecond;
  o.ring.pred_ttl = 400 * sim::kMillisecond;
  o.ds.storage_factor = 5;
  o.ds.maintenance_period = 100 * sim::kMillisecond;
  o.ds.rpc_timeout = 100 * sim::kMillisecond;
  o.ds.lock_timeout = 2 * sim::kSecond;
  o.ds.takeover_timeout = 5 * sim::kSecond;
  o.ds.scan_succ_retry_delay = 20 * sim::kMillisecond;
  o.repl.replication_factor = 6;
  o.repl.refresh_period = 200 * sim::kMillisecond;
  o.repl.push_delay = 10 * sim::kMillisecond;
  o.repl.group_ttl = 20 * sim::kSecond;
  o.index.query_timeout = 20 * sim::kSecond;
  o.index.progress_timeout = 500 * sim::kMillisecond;
  o.index.watchdog_period = 100 * sim::kMillisecond;
  o.index.rpc_timeout = 200 * sim::kMillisecond;
  o.index.retry_delay = 100 * sim::kMillisecond;
  o.index.insert_retries = 10;
  o.router.lookup_timeout = 500 * sim::kMillisecond;
  o.hrf_refresh_period = 200 * sim::kMillisecond;
  o.hrf_max_refresh_period = 1600 * sim::kMillisecond;  // same 8x cap as paper
  return o;
}

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)),
      sim_(std::make_unique<sim::Simulator>(options_.seed, options_.net,
                                            options_.shards)),
      monitor_(options_.telemetry
                   ? std::make_unique<telemetry::LoadMonitor>(
                         telemetry::LoadMonitor::Options{
                             options_.telemetry_window,
                             options_.telemetry_ring_capacity})
                   : nullptr),
      oracle_(std::make_unique<history::LivenessOracle>(sim_.get())),
      observer_proxy_(std::make_unique<DeferredObserver>(
          sim_.get(), oracle_.get(), monitor_.get())),
      pool_(sim_.get()) {
  if (monitor_ != nullptr) {
    sim_->set_telemetry_sink(monitor_.get());
  }
  if (options_.trace) {
    sim_->EnableTracing(options_.trace_ring_capacity,
                        options_.trace_sample_every);
  }
  // Ring identities are single-use; a merged-away peer "rejoins" as a brand
  // new free peer.
  pool_.set_replenish([this]() { AddFreePeer(); });
}

Cluster::~Cluster() = default;

PeerStack* Cluster::MakeStack() {
  auto stack = std::make_unique<PeerStack>();

  ring::RingOptions ropts = options_.ring;
  ropts.metrics = &metrics_;
  stack->ring = std::make_unique<ring::RingNode>(sim_.get(), /*val=*/0, ropts);
  if (monitor_ != nullptr) {
    // Control context; every peer node gets its telemetry slot before it
    // can receive a message.
    monitor_->OnRegister(stack->ring->id());
  }

  datastore::DataStoreOptions dopts = options_.ds;
  dopts.metrics = &metrics_;
  dopts.observer = observer_proxy_.get();
  dopts.monitor = monitor_.get();
  stack->ds = std::make_unique<datastore::DataStoreNode>(stack->ring.get(),
                                                         &pool_, dopts);

  replication::ReplicationOptions replopts = options_.repl;
  replopts.metrics = &metrics_;
  stack->repl = std::make_unique<replication::ReplicationManager>(
      stack->ring.get(), stack->ds.get(), replopts);
  stack->ds->set_replication(stack->repl.get());

  router::RouterOptions routopts = options_.router;
  routopts.metrics = &metrics_;
  routopts.monitor = monitor_.get();
  if (options_.use_hrf_router) {
    router::HrfOptions hopts;
    hopts.base = routopts;
    hopts.refresh_period = options_.hrf_refresh_period;
    hopts.max_refresh_period =
        std::max(options_.hrf_max_refresh_period, options_.hrf_refresh_period);
    stack->router = std::make_unique<router::HrfRouter>(
        stack->ring.get(), stack->ds.get(), hopts);
  } else {
    stack->router = std::make_unique<router::LinearRouter>(
        stack->ring.get(), stack->ds.get(), routopts);
  }

  index::IndexOptions iopts = options_.index;
  iopts.metrics = &metrics_;
  stack->index = std::make_unique<index::P2PIndex>(
      stack->ring.get(), stack->ds.get(), stack->router.get(), iopts);

  // Wire the framework events between the layers.
  ring::RingNode* rn = stack->ring.get();
  datastore::DataStoreNode* dsp = stack->ds.get();
  replication::ReplicationManager* rp = stack->repl.get();

  rn->set_on_joined([dsp, rp](sim::NodeId pred, Key /*pred_val*/,
                              sim::PayloadPtr data,
                              sim::PayloadPtr inserter_data) {
    const auto* handoff =
        dynamic_cast<const datastore::SplitHandoff*>(data.get());
    if (handoff != nullptr) {
      dsp->ActivateFromHandoff(*handoff);
    }
    rp->OnInfoFromPred(pred, inserter_data);
  });
  rn->set_info_for_succ([rp](sim::NodeId /*succ*/, Key /*succ_val*/) {
    return rp->MakeSeedForSuccessor();
  });
  rn->add_on_pred_changed(
      [dsp, rp](sim::NodeId pred, Key /*pred_val*/, sim::PayloadPtr info) {
        rp->OnInfoFromPred(pred, info);
        dsp->OnPredChanged();
      });
  rn->add_on_new_successor(
      [rp](sim::NodeId /*succ*/, Key /*val*/) { rp->PushNow(); });
  rn->add_on_successor_failed(
      [rp](sim::NodeId succ, Key /*val*/) { rp->OnSuccessorFailed(succ); });
  rn->set_collect_join_data([rp](sim::NodeId /*peer*/, Key /*val*/) {
    return rp->MakeSeedForSuccessor();
  });
  // Re-homing must not lose items: the routed insert is retried until it
  // lands (it is idempotent), re-issued through whichever member is live at
  // retry time — the original shrinker may itself depart mid-retry.  While
  // in transit the item is not live; queries may legitimately miss it
  // (Definition 4 only protects items live throughout the query).
  index::P2PIndex* idx = stack->index.get();
  // The retry closure captures itself weakly (a strong capture would be a
  // shared_ptr cycle); the facade's rehome_ hook and any pending retries
  // hold the strong references.
  auto rehome = std::make_shared<std::function<void(datastore::Item)>>();
  *rehome =
      [idx, weak = std::weak_ptr<std::function<void(datastore::Item)>>(rehome),
       this](datastore::Item item) {
        auto self = weak.lock();
        if (self == nullptr) return;
        // SomeMember() walks cluster-global driver state (the round-robin
        // cursor), so the re-issue runs in the control context; the hook
        // fires from a shrinking peer's own execution.
        sim_->Defer([self, idx, item, this]() {
          PeerStack* via = SomeMember();
          index::P2PIndex* target = via != nullptr ? via->index.get() : idx;
          target->InsertItem(item, [self, item, this](const Status& s) {
            if (s.ok()) return;
            metrics_.counters().Inc("cluster.rehome_retries");
            sim_->After(sim::kSecond, [self, item]() { (*self)(item); });
          });
        });
      };
  dsp->set_rehome([rehome](const datastore::Item& item) { (*rehome)(item); });

  peers_.push_back(std::move(stack));
  return peers_.back().get();
}

PeerStack* Cluster::Bootstrap(Key val) {
  PeerStack* stack = MakeStack();
  stack->ring->set_val(val);
  stack->ring->InitRing();
  stack->ds->ActivateAsFirst();
  return stack;
}

PeerStack* Cluster::AddFreePeer() {
  PeerStack* stack = MakeStack();
  pool_.Add(stack->id());
  return stack;
}

std::vector<PeerStack*> Cluster::LiveMembers() const {
  std::vector<PeerStack*> out;
  for (const auto& p : peers_) {
    if (!p->ring->alive()) continue;
    const ring::PeerState s = p->ring->state();
    if ((s == ring::PeerState::kJoined || s == ring::PeerState::kInserting) &&
        p->ds->active()) {
      out.push_back(p.get());
    }
  }
  return out;
}

PeerStack* Cluster::FindPeer(sim::NodeId id) const {
  for (const auto& p : peers_) {
    if (p->id() == id) return p.get();
  }
  return nullptr;
}

PeerStack* Cluster::SomeMember() {
  auto members = LiveMembers();
  if (members.empty()) return nullptr;
  rr_cursor_ = (rr_cursor_ + 1) % members.size();
  return members[rr_cursor_];
}

ring::RingAudit Cluster::AuditRing() const {
  std::vector<const ring::RingNode*> nodes;
  for (const auto& p : peers_) nodes.push_back(p->ring.get());
  return ring::AuditRing(nodes);
}

size_t Cluster::TotalStoredItems() const {
  size_t n = 0;
  for (const auto& p : peers_) {
    if (p->ring->alive() && p->ds->active()) n += p->ds->ItemCount();
  }
  return n;
}

void Cluster::FailPeer(PeerStack* peer) {
  if (peer == nullptr || !peer->ring->alive()) return;
  peer->ring->Fail();
  oracle_->OnPeerFailed(peer->id());
}

void Cluster::DepartPeer(PeerStack* peer) {
  if (peer == nullptr || !peer->ring->alive() || !peer->ds->active()) return;
  metrics_.counters().Inc("cluster.departures_requested");
  peer->ds->rebalancer().RequestLeave();
}

namespace {

bool StackUsable(const PeerStack* via) {
  if (via == nullptr || !via->ring->alive()) return false;
  const ring::PeerState s = via->ring->state();
  return s == ring::PeerState::kJoined || s == ring::PeerState::kInserting ||
         s == ring::PeerState::kLeaving;
}

}  // namespace

Status Cluster::InsertItem(Key skv, const std::string& data, PeerStack* via,
                           sim::SimTime deadline) {
  const sim::SimTime give_up = sim_->now() + deadline;
  datastore::Item item;
  item.skv = skv;
  item.data = data;
  while (sim_->now() < give_up) {
    if (!StackUsable(via)) via = SomeMember();
    if (via == nullptr) return Status::Unavailable("no live member");
    auto st = std::make_shared<OpState>();
    via->index->InsertItem(item, [st](const Status& s) {
      st->done = true;
      st->status = s;
    });
    // Re-issue from another member if the chosen peer leaves the ring
    // mid-operation (its router can no longer make progress).
    while (!st->done && sim_->now() < give_up && StackUsable(via)) {
      if (!sim_->Step()) break;
    }
    if (st->done) {
      if (st->status.ok()) oracle_->RegisterInsert(skv);
      return st->status;
    }
    if (StackUsable(via)) break;  // deadline, not departure
    via = nullptr;  // departed: insert is idempotent, re-issue
  }
  return Status::TimedOut("insert deadline");
}

Status Cluster::DeleteItem(Key skv, PeerStack* via, sim::SimTime deadline) {
  const sim::SimTime give_up = sim_->now() + deadline;
  bool reissued = false;
  while (sim_->now() < give_up) {
    if (!StackUsable(via)) via = SomeMember();
    if (via == nullptr) return Status::Unavailable("no live member");
    auto st = std::make_shared<OpState>();
    via->index->DeleteItem(skv, [st](const Status& s) {
      st->done = true;
      st->status = s;
    });
    while (!st->done && sim_->now() < give_up && StackUsable(via)) {
      if (!sim_->Step()) break;
    }
    if (st->done) {
      // NotFound after a re-issue most likely means the first attempt
      // applied before its initiator departed.
      Status result = st->status;
      if (reissued && result.IsNotFound()) result = Status::OK();
      if (result.ok()) oracle_->RegisterDelete(skv);
      return result;
    }
    if (StackUsable(via)) break;
    via = nullptr;
    reissued = true;
  }
  return Status::TimedOut("delete deadline");
}

Cluster::QueryOutcome Cluster::RangeQuery(const Span& span, PeerStack* via,
                                          sim::SimTime deadline) {
  QueryOutcome outcome;
  if (via == nullptr) via = SomeMember();
  if (via == nullptr) {
    outcome.status = Status::Unavailable("no live member");
    return outcome;
  }
  outcome.started = sim_->now();
  struct QueryState {
    bool done = false;
    Status status = Status::Internal("not finished");
    std::vector<datastore::Item> items;
  };
  auto st = std::make_shared<QueryState>();
  via->index->RangeQuery(span,
                         [st](const Status& s,
                              std::vector<datastore::Item> items) {
                           st->done = true;
                           st->status = s;
                           st->items = std::move(items);
                         });
  const sim::SimTime give_up = sim_->now() + deadline;
  while (!st->done && sim_->now() < give_up) {
    if (!sim_->Step()) break;
  }
  outcome.finished = sim_->now();
  outcome.status = st->done ? st->status : Status::TimedOut("query deadline");
  outcome.items = std::move(st->items);
  std::vector<Key> keys;
  keys.reserve(outcome.items.size());
  for (const auto& it : outcome.items) keys.push_back(it.skv);
  outcome.audit =
      oracle_->CheckQuery(span, outcome.started, outcome.finished, keys);
  return outcome;
}

}  // namespace pepper::workload
