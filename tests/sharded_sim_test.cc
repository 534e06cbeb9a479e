// Sharded-engine tests: the conservative-lookahead simulator must be
// indistinguishable from itself at any shard count — same metrics, same
// event order at shard boundaries, FIFO across cross-shard channels — and
// must keep fail-stop semantics when a node dies or unregisters with
// cross-shard messages still in flight.  Every partition core runs on the
// calling thread.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/node.h"
#include "sim/simulator.h"
#include "trace/tracer.h"
#include "workload/cluster.h"
#include "workload/workload.h"

namespace pepper::sim {
namespace {

// --- Shard-boundary tie-break ------------------------------------------------

struct SeqMsg : Payload {
  int seq = 0;
};

// Same-instant events on DIFFERENT shards are causally independent, and
// their execution order depends on the order the cores take their turns in
// — the engine only defines order where streams converge: deliveries
// merging into one node's queue, and Defer()ed work merging into the
// control heap.  Both merges key on (time, composite seq),
// where the seq depends only on the origin node and its per-node counter —
// never on the shard layout — so the converged order is identical for every
// shard count.
TEST(ShardedSimTest, ShardBoundaryTieBreakIsShardCountInvariant) {
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    NetworkOptions net;
    // Fixed latency: all messages sent at the same instant collide at the
    // same delivery instant, forcing the (time, seq) tie-break.
    net.min_latency = kMillisecond;
    net.max_latency = kMillisecond;
    Simulator sim(7, net, shards);
    // The receiver's id sits between the senders' ids.
    std::vector<std::unique_ptr<Node>> senders;
    for (int i = 0; i < 4; ++i) senders.push_back(std::make_unique<Node>(&sim));
    Node receiver(&sim);
    for (int i = 4; i < 8; ++i) senders.push_back(std::make_unique<Node>(&sim));
    std::vector<std::pair<NodeId, int>> delivered;  // receiver's shard only
    receiver.On<SeqMsg>(
        [&delivered](const Message& m, const SeqMsg& p) {
          delivered.emplace_back(m.from, p.seq);
        });
    // A node-context After of >= 8 ms, due at the very instant the
    // messages land (posted at 1 ms, +10 ms = 11 ms): it takes its place
    // among them by (time, seq), i.e. by the receiver's own id.
    sim.PostToNode(receiver.id(), [&receiver, &delivered]() {
      receiver.After(10 * kMillisecond, [&receiver, &delivered]() {
        delivered.emplace_back(receiver.id(), -1);
      });
    });
    std::vector<NodeId> deferred;  // control context only
    // Interleave the arming across node ids so wall execution order and id
    // order disagree under any partition.
    const int ids[] = {5, 2, 7, 0, 3, 6, 1, 4};
    for (const int id : ids) {
      Node* n = senders[static_cast<size_t>(id)].get();
      n->After(10 * kMillisecond, [n, &receiver, &sim, &deferred]() {
        for (int k = 0; k < 2; ++k) {
          auto msg = std::make_shared<SeqMsg>();
          msg->seq = k;
          n->Send(receiver.id(), msg);
        }
        sim.Defer([n, &deferred]() { deferred.push_back(n->id()); });
      });
    }
    sim.RunFor(30 * kMillisecond);
    // Converged delivery order: ascending origin node id, per-origin send
    // order — regardless of which shard owned which sender.
    std::vector<std::pair<NodeId, int>> expect_msgs;
    for (const auto& s : senders) {
      if (s->id() == receiver.id() + 1) {
        expect_msgs.emplace_back(receiver.id(), -1);
      }
      expect_msgs.emplace_back(s->id(), 0);
      expect_msgs.emplace_back(s->id(), 1);
    }
    EXPECT_EQ(delivered, expect_msgs) << "shards=" << shards;
    std::vector<NodeId> expect_defers;
    for (const auto& s : senders) expect_defers.push_back(s->id());
    EXPECT_EQ(deferred, expect_defers) << "shards=" << shards;
  }
}

// --- No worker threads -------------------------------------------------------

// The partition cores take their turns on the thread that drives the
// simulator: node events, deliveries and timers all see the caller's id.
TEST(ShardedSimTest, PartitionCoresRunOnTheCallingThread) {
  Simulator sim(29, NetworkOptions{}, /*shards=*/4);
  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < 8; ++i) nodes.push_back(std::make_unique<Node>(&sim));
  const std::thread::id caller = std::this_thread::get_id();
  int events = 0;
  int foreign = 0;
  const auto check = [&]() {
    ++events;
    if (std::this_thread::get_id() != caller) ++foreign;
  };
  for (const auto& n : nodes) {
    n->On<SeqMsg>([&check](const Message&, const SeqMsg&) { check(); });
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    Node* n = nodes[i].get();
    Node* peer = nodes[(i + 1) % nodes.size()].get();
    n->After(kMillisecond, [n, peer, &check]() {
      check();
      n->Send(peer->id(), std::make_shared<SeqMsg>());
    });
    n->Every("test.tick", 5 * kMillisecond, check, kMillisecond);
  }
  sim.RunFor(50 * kMillisecond);
  EXPECT_GT(events, 8 * 3);
  EXPECT_EQ(foreign, 0);
}

// --- Cross-shard FIFO per channel -------------------------------------------

TEST(ShardedSimTest, CrossShardChannelStaysFifo) {
  // Nodes 0 and 1 land on different shards (dense id % 2).  A burst of
  // same-instant sends plus staggered follow-ups must arrive in send order
  // even though each message draws its own latency.
  Simulator sim(11, NetworkOptions{}, /*shards=*/2);
  Node a(&sim);
  Node b(&sim);
  ASSERT_NE(a.id() % 2, b.id() % 2);
  std::vector<int> received;  // touched only from b's shard
  b.On<SeqMsg>([&received](const Message&, const SeqMsg& m) {
    received.push_back(m.seq);
  });
  a.After(10 * kMillisecond, [&a, &b]() {
    for (int i = 0; i < 32; ++i) {
      auto msg = std::make_shared<SeqMsg>();
      msg->seq = i;
      a.Send(b.id(), msg);
    }
  });
  a.After(11 * kMillisecond, [&a, &b]() {
    for (int i = 32; i < 40; ++i) {
      auto msg = std::make_shared<SeqMsg>();
      msg->seq = i;
      a.Send(b.id(), msg);
    }
  });
  sim.RunFor(100 * kMillisecond);
  std::vector<int> expect;
  for (int i = 0; i < 40; ++i) expect.push_back(i);
  EXPECT_EQ(received, expect);
}

// --- Fail / unregister racing an in-flight cross-shard message ---------------

TEST(ShardedSimTest, FailedNodeDropsInFlightCrossShardMessages) {
  Simulator sim(13, NetworkOptions{}, /*shards=*/2);
  Node a(&sim);
  Node b(&sim);
  ASSERT_NE(a.id() % 2, b.id() % 2);
  int delivered = 0;
  b.On<SeqMsg>([&delivered](const Message&, const SeqMsg&) { ++delivered; });
  // The sends leave a's shard inside one window; b fails from the control
  // context (sim.After runs at the barrier) while they are still in the
  // network.  Fail-stop: none of them may be delivered.
  a.After(10 * kMillisecond, [&a, &b]() {
    for (int i = 0; i < 4; ++i) {
      a.Send(b.id(), std::make_shared<SeqMsg>());
    }
  });
  sim.After(10 * kMillisecond, [&b]() { b.Fail(); });
  sim.RunFor(100 * kMillisecond);
  EXPECT_EQ(delivered, 0);
  // The sender is untouched and the sim keeps running.
  bool later_ran = false;
  a.After(kMillisecond, [&later_ran]() { later_ran = true; });
  sim.RunFor(10 * kMillisecond);
  EXPECT_TRUE(later_ran);
}

TEST(ShardedSimTest, UnregisterRacesInFlightCrossShardMessage) {
  Simulator sim(17, NetworkOptions{}, /*shards=*/2);
  Node a(&sim);
  auto b = std::make_unique<Node>(&sim);
  ASSERT_NE(a.id() % 2, b->id() % 2);
  int delivered = 0;
  b->On<SeqMsg>([&delivered](const Message&, const SeqMsg&) { ++delivered; });
  const NodeId b_id = b->id();
  a.After(10 * kMillisecond, [&a, b_id]() {
    for (int i = 0; i < 4; ++i) {
      a.Send(b_id, std::make_shared<SeqMsg>());
    }
  });
  // Destroy (unregister) the receiver from the control context while the
  // messages are in flight; delivery to a dead id must fizzle, not crash.
  sim.After(10 * kMillisecond, [&b]() { b.reset(); });
  sim.RunFor(100 * kMillisecond);
  EXPECT_EQ(delivered, 0);
  // Ids are never reused: a fresh node gets a new id and a fresh channel.
  Node c(&sim);
  EXPECT_NE(c.id(), b_id);
}

// A traced op's context rides a cross-shard send exactly like a local one:
// the receiving shard's hop span parents on the sender's op span.
TEST(ShardedSimTest, TraceContextPropagatesAcrossShardBoundary) {
  Simulator sim(23, NetworkOptions{}, /*shards=*/2);
  Node a(&sim);
  Node b(&sim);
  ASSERT_NE(a.id() % 2, b.id() % 2);
  sim.EnableTracing(/*ring_capacity=*/1024, /*sample_every=*/1);
  TraceContext op_ctx;
  TraceContext deliver_ctx;  // written on b's shard, read after RunFor
  b.On<SeqMsg>([&deliver_ctx](const Message&, const SeqMsg&) {
    deliver_ctx = trace::Tracer::Current();
  });
  a.After(10 * kMillisecond, [&]() {
    const trace::OpToken op =
        sim.tracer().StartOp(a.id(), sim.now(), "xshard.op");
    op_ctx = op.ctx;
    a.Send(b.id(), std::make_shared<SeqMsg>());
    sim.tracer().FinishOp(op, sim.now());
  });
  sim.RunFor(kSecond);
  ASSERT_NE(op_ctx.trace_id, 0u);
  EXPECT_EQ(deliver_ctx.trace_id, op_ctx.trace_id);
  EXPECT_EQ(deliver_ctx.parent_span_id, op_ctx.span_id);
}

TEST(ShardedSimTest, CrossShardRpcTimesOutWhenReceiverFails) {
  Simulator sim(19, NetworkOptions{}, /*shards=*/2);
  Node a(&sim);
  Node b(&sim);
  bool replied = false;
  bool timed_out = false;
  sim.After(10 * kMillisecond, [&b]() { b.Fail(); });
  a.After(10 * kMillisecond, [&]() {
    a.Call(
        b.id(), std::make_shared<SeqMsg>(),
        [&replied](const Message&) { replied = true; },
        50 * kMillisecond, [&timed_out]() { timed_out = true; });
  });
  sim.RunFor(kSecond);
  EXPECT_FALSE(replied);
  EXPECT_TRUE(timed_out);
}

}  // namespace
}  // namespace pepper::sim

// --- Full-cluster replay identity across shard counts ------------------------

namespace pepper::workload {
namespace {

struct ReplayResult {
  std::string report;
  uint64_t messages = 0;
  uint64_t events = 0;
  uint64_t windows = 0;
  size_t live = 0;
  std::string trace;  // tracer DumpText, only with trace=true
  std::map<std::string, uint64_t> fires;  // sim.fires.<label> counts
  uint64_t timer_fires = 0;
  std::map<std::string, uint64_t> msgs;  // sim.msgs.<PayloadType> counts
  uint64_t timers_armed = 0;             // sim.timers.armed
};

// Puts a do-nothing 7 ms timer on every peer: on those alive now, and on
// each one that appears later (a control-context sweep every 500 ms).  The
// timers draw no randomness and touch no protocol state.
void ArmNoOpTimers(Cluster& cluster,
                   std::shared_ptr<std::vector<bool>> armed) {
  for (const auto& p : cluster.peers()) {
    const sim::NodeId id = p->id();
    if (armed->size() <= id) armed->resize(id + 1, false);
    if ((*armed)[id] || !p->ring->alive()) continue;
    (*armed)[id] = true;
    p->ring->node()->Every("test.noop", 7 * sim::kMillisecond, [] {},
                           7 * sim::kMillisecond);
  }
  cluster.sim().After(500 * sim::kMillisecond, [&cluster, armed] {
    ArmNoOpTimers(cluster, armed);
  });
}

ReplayResult RunClusterReplay(uint64_t seed, uint32_t shards,
                              bool trace = false, bool no_op_timers = false) {
  ClusterOptions copts = ClusterOptions::FastDefaults();
  copts.seed = seed;
  copts.shards = shards;
  copts.trace = trace;
  // Big enough that nothing is evicted: which records are oldest inside one
  // lookahead window depends on the order the cores took their turns in,
  // so the identity contract only covers the un-evicted record stream.
  copts.trace_ring_capacity = 1 << 18;
  Cluster cluster(copts);
  cluster.Bootstrap(500000);
  for (int i = 0; i < 8; ++i) cluster.AddFreePeer();
  cluster.RunFor(sim::kSecond);
  if (no_op_timers) {
    ArmNoOpTimers(cluster, std::make_shared<std::vector<bool>>());
  }

  WorkloadOptions w;
  w.insert_rate_per_sec = 200.0;
  w.delete_rate_per_sec = 40.0;
  w.query_rate_per_sec = 20.0;
  w.fail_rate_per_sec = 0.5;
  w.peer_add_rate_per_sec = 0.5;
  w.min_live_members = 3;
  WorkloadDriver driver(&cluster, w, /*seed=*/seed ^ 0xabcd);
  driver.Start();
  cluster.RunFor(15 * sim::kSecond);
  driver.Stop();
  cluster.RunFor(2 * sim::kSecond);

  ReplayResult r;
  // The hub report covers every counter and histogram (counts, sums,
  // bucket shapes): any divergence in execution order shows up here.
  r.report = cluster.metrics().Report();
  r.messages = cluster.sim().network().messages_sent();
  r.events = cluster.sim().events_executed();
  r.windows = cluster.sim().windows_executed();
  // The window base is the exact next pending time, so every window pops
  // at least the item it starts on.
  EXPECT_GT(r.windows, 0u);
  EXPECT_EQ(cluster.sim().empty_windows(), 0u)
      << "seed " << seed << " shards " << shards;
  r.live = cluster.LiveMembers().size();
  for (const auto& [name, v] : cluster.sim().counters().Snapshot()) {
    if (name.rfind("sim.fires.", 0) == 0) r.fires[name] = v;
    if (name.rfind("sim.msgs.", 0) == 0) r.msgs[name] = v;
  }
  r.timer_fires = cluster.sim().timer_fires_executed();
  r.timers_armed = cluster.sim().counters().Get("sim.timers.armed");
  if (trace) {
    EXPECT_EQ(cluster.sim().tracer().records_dropped(), 0u)
        << "ring too small for the identity comparison";
    r.trace = cluster.sim().tracer().DumpText();
  }
  EXPECT_EQ(driver.query_violations(), 0u)
      << "seed " << seed << " shards " << shards;
  // Routing never passes a key twice, so no lookup may circle the ring.
  EXPECT_EQ(cluster.metrics().counters().Get("router.hop_budget_exhausted"),
            0u)
      << "seed " << seed << " shards " << shards;
  return r;
}

TEST(ShardedSimTest, ClusterReplayIsIdenticalAcrossShardCounts) {
  for (uint64_t seed : {42ull, 7ull, 1234ull}) {
    const ReplayResult one = RunClusterReplay(seed, 1);
    for (uint32_t shards : {2u, 3u, 4u}) {
      const ReplayResult other = RunClusterReplay(seed, shards);
      EXPECT_EQ(other.report, one.report)
          << "metrics diverged: seed " << seed << " shards " << shards;
      EXPECT_EQ(other.messages, one.messages) << "seed " << seed;
      EXPECT_EQ(other.events, one.events)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(other.windows, one.windows)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(other.live, one.live) << "seed " << seed;
    }
  }
}

// Every periodic timer carries a label, so the per-label fire counts add
// up to the executed timer-fire total exactly; and like every other count
// they do not depend on the partition.
TEST(ShardedSimTest, TimerFireLabelsSumToTheTotalAtAnyShardCount) {
  const ReplayResult one = RunClusterReplay(42, 1);
  const ReplayResult four = RunClusterReplay(42, 4);
  uint64_t sum = 0;
  for (const auto& [name, v] : one.fires) sum += v;
  EXPECT_EQ(sum, one.timer_fires);
  EXPECT_GT(one.timer_fires, 0u);
  EXPECT_LT(one.timer_fires, one.events);
  for (const char* label :
       {"ring.stab", "ring.ping", "repl.refresh",
        "router.refresh", "ds.maintenance", "index.watchdog"}) {
    EXPECT_GT(one.fires.count(std::string("sim.fires.") + label), 0u)
        << label;
  }
  EXPECT_EQ(four.fires, one.fires);
  EXPECT_EQ(four.timer_fires, one.timer_fires);
}

// Every sent message is counted under its payload type's unqualified
// struct name, so the per-type counts add up to the network's total
// exactly; and they do not depend on the partition either, nor does the
// count of timer records armed.
TEST(ShardedSimTest, MessageTypeCountsSumToTheTotalAtAnyShardCount) {
  const ReplayResult one = RunClusterReplay(42, 1);
  const ReplayResult four = RunClusterReplay(42, 4);
  uint64_t sum = 0;
  for (const auto& [name, v] : one.msgs) {
    sum += v;
    EXPECT_EQ(name.find("::", 0), std::string::npos) << name;
  }
  EXPECT_EQ(sum, one.messages);
  for (const char* type :
       {"ReplicaDeltaMsg", "ReplicaPushAck", "ReplicaPushMsg",
        "PingRequest", "PingReply"}) {
    EXPECT_GT(one.msgs.count(std::string("sim.msgs.") + type), 0u) << type;
  }
  EXPECT_EQ(four.msgs, one.msgs);
  EXPECT_EQ(four.messages, one.messages);
  // Timer records taken are a property of the schedule too.
  EXPECT_GT(one.timers_armed, 0u);
  EXPECT_EQ(four.timers_armed, one.timers_armed);
}

// There is one engine: `shards` 0 (the ClusterOptions default) and 1 both
// run a single core, so their full-precision reports must not differ by a
// byte.
TEST(ShardedSimTest, ShardsZeroAndOneAreTheSameEngine) {
  for (uint64_t seed : {42ull, 7ull}) {
    const ReplayResult zero = RunClusterReplay(seed, 0);
    const ReplayResult one = RunClusterReplay(seed, 1);
    EXPECT_EQ(zero.report, one.report) << "seed " << seed;
    EXPECT_EQ(zero.messages, one.messages) << "seed " << seed;
    EXPECT_EQ(zero.events, one.events) << "seed " << seed;
    EXPECT_EQ(zero.live, one.live) << "seed " << seed;
  }
}

// Span/trace/record ids are pure functions of (origin node, per-node
// counter) and sampling hashes the trace id — nothing depends on the shard
// partition — so the merged trace dump is byte-identical at any shard
// count, and tracing-on replays the exact tracing-off schedule.
TEST(ShardedSimTest, TraceOutputIsIdenticalAcrossShardCounts) {
  const ReplayResult plain = RunClusterReplay(42, 1, /*trace=*/false);
  const ReplayResult one = RunClusterReplay(42, 1, /*trace=*/true);
  EXPECT_FALSE(one.trace.empty());
  EXPECT_EQ(one.report, plain.report) << "tracing perturbed the schedule";
  for (uint32_t shards : {2u, 4u}) {
    const ReplayResult other = RunClusterReplay(42, shards, /*trace=*/true);
    EXPECT_EQ(other.report, one.report) << "shards " << shards;
    EXPECT_TRUE(other.trace == one.trace)
        << "trace diverged at shards=" << shards << " (" << other.trace.size()
        << " vs " << one.trace.size() << " bytes)";
  }
}

// Window edges sit on the lookahead grid, so an event that changes nothing
// moves nothing else: with a do-nothing timer on every peer, the metrics
// report and the trace are byte-identical to the plain run.  (A window
// based on the exact next event would shift every later barrier, and with
// it the control work run there.)
TEST(ShardedSimTest, NoOpEventsReplayInvisibly) {
  for (uint64_t seed : {42ull, 7ull, 1234ull}) {
    const ReplayResult plain = RunClusterReplay(seed, 1, /*trace=*/true);
    const ReplayResult no_op =
        RunClusterReplay(seed, 1, /*trace=*/true, /*no_op_timers=*/true);
    EXPECT_GT(no_op.events, plain.events) << "seed " << seed;
    EXPECT_GT(no_op.fires.count("sim.fires.test.noop"), 0u) << "seed " << seed;
    EXPECT_EQ(no_op.report, plain.report) << "seed " << seed;
    EXPECT_EQ(no_op.messages, plain.messages) << "seed " << seed;
    EXPECT_TRUE(no_op.trace == plain.trace)
        << "trace diverged at seed " << seed << " (" << no_op.trace.size()
        << " vs " << plain.trace.size() << " bytes)";
  }
}

}  // namespace
}  // namespace pepper::workload
