#include "replication/revive_protocol.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "replication/replication_manager.h"
#include "ring/ring_messages.h"

namespace pepper::replication {

namespace {

// Hop-delivery ack for the forwarded revive query.
struct ReviveQueryAck : sim::Payload {};

}  // namespace

ReviveProtocol::ReviveProtocol(ReplicationManager* repl)
    : sim::ProtocolComponent(repl->node()), repl_(repl) {
  if (repl_->options().metrics != nullptr) {
    Counters& c = repl_->options().metrics->counters();
    m_revives_triggered_ = c.Intern("repl.revives_triggered");
    m_revive_answers_ = c.Intern("repl.revive_answers");
    m_revives_completed_ = c.Intern("repl.revives_completed");
    m_revives_empty_ = c.Intern("repl.revives_empty");
    m_revive_groups_promoted_ = c.Intern("repl.revive_groups_promoted");
    m_revive_items_offered_ = c.Intern("repl.revive_items_offered");
  }
  On<ReviveQueryMsg>(
      [this](const sim::Message& m, const ReviveQueryMsg& query) {
        HandleQuery(m, query);
      });
  On<ReviveAnswerMsg>(
      [this](const sim::Message& m, const ReviveAnswerMsg& answer) {
        HandleAnswer(m, answer);
      });
}

void ReviveProtocol::StartRevive(const RingRange& arc, PromoteFn promote) {
  const ReplicationOptions& opts = repl_->options();
  if (opts.replication_factor == 0 || arc.IsEmpty()) return;
  const uint64_t token = next_token_++;
  Pending& pending = pending_[token];
  pending.arc = arc;
  pending.promote = std::move(promote);
  pending.op = TraceOp("repl.revive_round", arc.hi());
  repl_->Inc(m_revives_triggered_);

  ReviveQueryMsg query;
  query.origin = id();
  query.token = token;
  query.arc = arc;
  // Replica holders of the dead owner sit within k hops of it at push time;
  // churn can shift them a little farther along, hence the margin.
  query.hops_left = static_cast<int>(opts.replication_factor) + 2;
  ForwardQuery(query, {});

  // How long to collect answers before reconstructing from the freshest
  // responder.  The query travels hop by hop; answers come straight back.
  // Budget a round trip per hop PLUS a full successor-list's worth of
  // rpc_timeouts per hop: under the failure bursts this protocol exists
  // for, each forwarder can burn one timeout per dead, not-yet-pruned list
  // entry before the skip finds a live hop — answers arriving after
  // Finalize would be silently discarded.
  const sim::SimTime per_hop =
      sim()->network().RoundTripBound() +
      static_cast<sim::SimTime>(repl_->ring()->options().succ_list_length) *
          opts.rpc_timeout;
  const sim::SimTime wait =
      static_cast<sim::SimTime>(query.hops_left + 2) * per_hop;
  After(wait, [this, token]() { Finalize(token); });
}

void ReviveProtocol::ForwardQuery(const ReviveQueryMsg& query,
                                  std::vector<sim::NodeId> tried) {
  ring::RingNode* ring = repl_->ring();
  const auto& entries = ring->succ_list().entries();
  for (const auto& entry : entries) {
    if (entry.state != ring::PeerState::kJoined) continue;
    if (entry.id == id() || entry.id == query.origin) return;  // wrapped
    if (std::find(tried.begin(), tried.end(), entry.id) != tried.end()) {
      continue;
    }
    auto fwd = std::make_shared<ReviveQueryMsg>(query);
    const sim::NodeId hop = entry.id;
    Call(
        hop, fwd, [](const sim::Message&) {},
        repl_->options().rpc_timeout,
        // A dead hop must not sever the broadcast: mark it tried and pick
        // the next live successor from the (possibly repaired) list.
        [this, query, tried = std::move(tried), hop]() mutable {
          tried.push_back(hop);
          ForwardQuery(query, std::move(tried));
        });
    return;
  }
}

void ReviveProtocol::HandleQuery(const sim::Message& msg,
                                 const ReviveQueryMsg& query) {
  if (msg.rpc_id != 0) {
    Reply(msg, sim::MakePayload<ReviveQueryAck>());
  }
  if (query.origin == id()) return;  // wrapped around the ring
  auto answer = std::make_shared<ReviveAnswerMsg>();
  for (const auto& kv : repl_->groups()) {
    const ReplicaGroup& group = kv.second;
    ReviveGroupInfo info;
    ForEachInRange(group.items(), query.arc, [&info](const auto& item_kv) {
      info.items.push_back(item_kv.second);
    });
    if (info.items.empty()) continue;
    info.owner = kv.first;
    info.owner_val = group.owner_val;
    info.version = group.version;
    info.refreshed_at = group.refreshed_at;
    answer->groups.push_back(std::move(info));
  }
  if (!answer->groups.empty()) {
    answer->responder = id();
    answer->token = query.token;
    Send(query.origin, answer);
    repl_->Inc(m_revive_answers_);
  }
  if (query.hops_left > 0) {
    ReviveQueryMsg fwd = query;
    fwd.hops_left = query.hops_left - 1;
    ForwardQuery(fwd, {});
  }
}

void ReviveProtocol::HandleAnswer(const sim::Message&,
                                  const ReviveAnswerMsg& answer) {
  auto it = pending_.find(answer.token);
  if (it == pending_.end()) return;  // answer after the collection window
  for (const ReviveGroupInfo& info : answer.groups) {
    ReviveGroupInfo& best = it->second.best[info.owner];
    if (best.owner == sim::kNullNode || info.version > best.version ||
        (info.version == best.version &&
         info.refreshed_at > best.refreshed_at)) {
      best = info;
    }
  }
}

void ReviveProtocol::Finalize(uint64_t token) {
  auto it = pending_.find(token);
  if (it == pending_.end()) return;
  auto pending = std::make_shared<Pending>(std::move(it->second));
  pending_.erase(it);
  repl_->Inc(m_revives_completed_);
  // Rejoin the round's chain so the owner-death pings (and the promotions
  // their timeouts trigger) trace under the revive op.
  if (pending->op.active()) trace::Tracer::SetCurrent(pending->op.ctx);
  TraceFinish(pending->op);
  if (pending->best.empty()) {
    repl_->Inc(m_revives_empty_);
    return;
  }
  for (auto& kv : pending->best) {
    const sim::NodeId owner = kv.first;
    auto group = std::make_shared<ReviveGroupInfo>(std::move(kv.second));
    // Same contract as the revive sweep: only a *dead* owner's group is a
    // revival source.  A departed (FREE) owner answered the takeover
    // protocol at departure — promoting its frozen snapshot would
    // resurrect items its takeover recipient has since deleted; a live
    // JOINED owner means the arc claim was stale.
    Call(
        owner, sim::MakePayload<ring::PingRequest>(),
        [](const sim::Message&) {},  // owner answered: not a source
        repl_->ring()->options().ping_timeout,
        [this, group, pending]() { PromoteGroup(*group, *pending); });
  }
}

void ReviveProtocol::PromoteGroup(const ReviveGroupInfo& group,
                                  const Pending& pending) {
  repl_->Inc(m_revive_groups_promoted_);
  repl_->Inc(m_revive_items_offered_, group.items.size());
  for (const datastore::Item& item : group.items) {
    TraceMark("repl.revive_offer", item.skv);
    pending.promote(item);
  }
}

}  // namespace pepper::replication
