// Tests for the pooled event core: the EventQueue arena + 4-ary index heap
// (tie-break determinism across slot recycling, move-out pops) and the
// per-core timer heap behind Node::Every and Node::Call (exact periodic
// semantics at any period, cancel that unlinks at once, cancel from inside
// a tick), plus the flat per-node channel tables and the fixed-latency RNG
// fast path.  The timer cases keep the suite name of the hierarchical
// timer wheel the heap replaced; they pin the same timer semantics.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "sim/event_queue.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace pepper::sim {
namespace {

TEST(EventPoolTest, TieBreakSurvivesPoolRecycling) {
  // Push/run/push so arena slots are recycled through the free list; the
  // (time, seq) order must still be global insertion order, not slot order.
  Simulator sim(1);
  std::vector<int> order;
  sim.After(100, [&] { order.push_back(1); });
  sim.After(100, [&] { order.push_back(2); });
  sim.After(100, [&] { order.push_back(3); });
  sim.RunFor(150);  // all three slots recycled (LIFO free list)
  // Recycled slots get reused in reverse order; same-time events must
  // still run in push order.
  sim.After(100, [&] { order.push_back(4); });
  sim.After(100, [&] { order.push_back(5); });
  sim.After(100, [&] { order.push_back(6); });
  // An event scheduled *from inside* an event at the same instant runs
  // after everything already queued for that instant.
  sim.After(100, [&] {
    order.push_back(7);
    sim.After(0, [&] { order.push_back(9); });
  });
  sim.After(100, [&] { order.push_back(8); });
  sim.RunFor(150);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventPoolTest, SteadyStateReusesArenaSlots) {
  // Node events live in the engine core's arena (control closures use the
  // barrier heap), so the chain reschedules itself from node context.
  Simulator sim(1);
  Node node(&sim);
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 10000) node.After(10, chain);
  };
  sim.PostToNode(node.id(), chain);
  sim.RunFor(kMillisecond);  // warm up: the post lands one lookahead out
  ASSERT_GT(count, 0);
  const size_t cap = sim.shard_queue(0).pool_capacity();
  sim.RunFor(kSecond);
  EXPECT_EQ(count, 10000);
  // One self-rescheduling closure: the arena must not have grown.
  EXPECT_EQ(sim.shard_queue(0).pool_capacity(), cap);
}

TEST(EventPoolTest, PopMovesEventOutOfThePool) {
  // Regression note: the old EventQueue::Pop() stole the closure from the
  // priority_queue's const top() via const_cast; a later regression to a
  // copy-out would leave a second owner of the closure's captures alive in
  // the queue.  The pooled PopEvent must MOVE the record out: after the
  // event runs, the arena slot holds no reference to the captured state.
  Simulator sim(1);
  auto tracker = std::make_shared<int>(42);
  std::weak_ptr<int> weak = tracker;
  sim.After(10, [t = std::move(tracker)] { (void)*t; });
  EXPECT_EQ(weak.use_count(), 1);  // queue owns the only copy
  sim.RunFor(20);
  // The closure ran and was destroyed; a copy left behind in the arena (or
  // a moved-from-but-not-cleared slot) would keep the capture alive.
  EXPECT_TRUE(weak.expired());
}

TEST(EventPoolTest, MessagePayloadReleasedAfterDelivery) {
  Simulator sim(1);
  struct P : Payload {};
  Node a(&sim), b(&sim);
  auto payload = std::make_shared<P>();
  std::weak_ptr<P> weak = payload;
  b.On<P>([](const Message&, const P&) {});
  a.Send(b.id(), std::move(payload));
  sim.RunFor(kSecond);
  // The Message rode the pooled event by value; after delivery the arena
  // slot must not pin the payload.
  EXPECT_TRUE(weak.expired());
}

class TickRecorder : public Node {
 public:
  explicit TickRecorder(Simulator* sim) : Node(sim) {}
  std::vector<SimTime> fires;
};

// Runs `fn` on `node`'s execution context and returns the instant it ran,
// leaving the control clock there.  Timers armed from the control context
// first fire at least one lookahead out, so the tests that pin exact timer
// instants arm from the node itself.
SimTime OnNode(Simulator& sim, Node& node, std::function<void()> fn) {
  SimTime at = 0;
  sim.PostToNode(node.id(), [&sim, &at, fn = std::move(fn)] {
    at = sim.now();
    fn();
  });
  sim.RunFor(sim.lookahead());
  return at;
}

TEST(TimerWheelTest, ExactPeriodsAcrossWheelLevels) {
  // Periods from tens of microseconds to seconds (they spanned every level
  // of the old timer wheel, including the 64^3 us boundary), armed with the
  // clock away from zero.  Every fire must land exactly at
  // initial + k * period — re-keying introduces no drift.
  Simulator sim(1);
  TickRecorder node(&sim);
  sim.RunFor(777777);
  struct Rec {
    SimTime period;
    SimTime initial;
    std::vector<SimTime> fires;
  };
  // 262144 = 64^3 exactly (level boundary), 262145 just past it.
  std::vector<Rec> recs;
  for (SimTime p : {SimTime{40}, SimTime{63}, SimTime{64}, SimTime{4097},
                    SimTime{100000}, SimTime{262144}, SimTime{262145},
                    SimTime{5 * 1000 * 1000}}) {
    recs.push_back(Rec{p, p / 3 + 1, {}});
  }
  const SimTime t0 = OnNode(sim, node, [&] {
    for (auto& r : recs) {
      node.Every(
          "test.tick", r.period,
          [&r, &sim] { r.fires.push_back(sim.now()); }, r.initial);
    }
  });
  const SimTime horizon = 20 * 1000 * 1000;
  sim.RunUntil(t0 + horizon);
  for (const auto& r : recs) {
    size_t k = 0;
    for (SimTime expect = t0 + r.initial; expect <= t0 + horizon;
         expect += r.period, ++k) {
      ASSERT_LT(k, r.fires.size()) << "period " << r.period;
      EXPECT_EQ(r.fires[k], expect) << "period " << r.period << " fire " << k;
    }
    EXPECT_EQ(r.fires.size(), k) << "period " << r.period;
  }
}

TEST(TimerWheelTest, BeyondHorizonDelaysFireExactly) {
  // Delays of ~19h and more (past the old timer wheel's horizon, where its
  // first version spun forever in Step()) fire exactly, for unguarded and
  // guarded one-shots and for a periodic timer.  Armed from node context.
  Simulator sim(1);
  TickRecorder node(&sim);
  const SimTime horizon = SimTime{1} << 36;
  std::vector<SimTime> fired;
  int ticks = 0;
  const SimTime t0 = OnNode(sim, node, [&] {
    sim.After(horizon + 5, [&] { fired.push_back(sim.now()); });  // unguarded
    node.After(horizon + 7, [&] { fired.push_back(sim.now()); });  // guarded
    node.Every("test.tick", horizon + 11, [&] { ++ticks; }, horizon + 11);
  });
  sim.RunFor(2 * horizon + 100);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], t0 + horizon + 5);
  EXPECT_EQ(fired[1], t0 + horizon + 7);
  EXPECT_EQ(ticks, 2);  // t0+horizon+11 and t0+2*horizon+22
}

TEST(TimerWheelTest, CancelFromInsideOwnTick) {
  Simulator sim(3);
  TickRecorder node(&sim);
  int ticks = 0;
  uint64_t id = 0;
  id = node.Every(
      "test.tick", 100,
      [&] {
        if (++ticks == 3) node.CancelTimer(id);
      },
      100);
  sim.RunFor(2000);
  EXPECT_EQ(ticks, 3);
}

TEST(TimerWheelTest, CancelOtherTimerDueAtSameInstant) {
  // Timer A (armed first => earlier seq) cancels timer B inside the very
  // tick where both are due: B's fire must fizzle, exactly like the old
  // queue-resident tick event that re-checked its id at pop time.
  Simulator sim(3);
  TickRecorder node(&sim);
  int a_ticks = 0;
  int b_ticks = 0;
  uint64_t b_id = 0;
  OnNode(sim, node, [&] {
    node.Every(
        "test.tick", 100,
        [&] {
          ++a_ticks;
          node.CancelTimer(b_id);
        },
        100);
    b_id = node.Every("test.tick", 100, [&] { ++b_ticks; }, 100);
  });
  sim.RunFor(250);
  EXPECT_EQ(a_ticks, 2);
  EXPECT_EQ(b_ticks, 0);
}

TEST(TimerWheelTest, CancelThenReArmIsAFreshTimer) {
  Simulator sim(3);
  TickRecorder node(&sim);
  int first = 0;
  int second = 0;
  uint64_t id = 0;
  uint64_t id2 = 0;
  OnNode(sim, node, [&] {
    id = node.Every("test.tick", 100, [&] { ++first; }, 100);
  });
  sim.RunFor(350);
  EXPECT_EQ(first, 3);
  node.CancelTimer(id);  // immediate, from the control context
  OnNode(sim, node, [&] {
    id2 = node.Every("test.tick", 100, [&] { ++second; }, 100);
  });
  EXPECT_NE(id, id2);
  sim.RunFor(300);
  EXPECT_EQ(first, 3);  // canceled stays canceled
  EXPECT_EQ(second, 3);
}

TEST(TimerWheelTest, TickSurvivesWheelPoolGrowth) {
  // Arming many timers from inside a tick grows the timer record pool; the
  // executing timer's callback and rearm state must survive the
  // reallocation (the simulator moves the closure out before running it).
  Simulator sim(3);
  TickRecorder node(&sim);
  int ticks = 0;
  bool grown = false;
  OnNode(sim, node, [&] {
    node.Every(
        "test.tick", 100,
        [&] {
          ++ticks;
          if (!grown) {
            grown = true;
            for (int i = 0; i < 4096; ++i) {
              node.Every("test.tick", 50000 + i, [] {}, 40000 + i);
            }
          }
        },
        100);
  });
  sim.RunFor(1000);
  EXPECT_EQ(ticks, 10);
}

TEST(TimerWheelTest, RpcTimeoutRecordsAreCanceledByReplies) {
  // Completed RPCs cancel their one-shot timeout record; the records
  // recycle instead of accumulating as pending timers.
  struct Req : Payload {};
  struct Rsp : Payload {};
  Simulator sim(7);
  Node a(&sim), b(&sim);
  b.On<Req>([&b](const Message& m, const Req&) {
    b.Reply(m, std::make_shared<Rsp>());
  });
  int replies = 0;
  int timeouts = 0;
  for (int round = 0; round < 200; ++round) {
    a.Call(
        b.id(), std::make_shared<Req>(),
        [&](const Message&) { ++replies; }, 30 * kSecond,
        [&] { ++timeouts; });
    sim.RunFor(10 * kMillisecond);
  }
  EXPECT_EQ(replies, 200);
  EXPECT_EQ(timeouts, 0);
  // All timeout records were canceled on reply; none is still pending.
  EXPECT_EQ(sim.pending_timers(), 0u);
}

TEST(TimerHeapTest, CanceledTimerLeavesTheHeapAtOnce) {
  // Cancel unlinks the record before time advances, from the control
  // context and from inside another timer's tick.
  Simulator sim(3);
  TickRecorder node(&sim);
  uint64_t far = 0;
  uint64_t other = 0;
  size_t pending_in_tick = 0;
  OnNode(sim, node, [&] {
    far = node.Every("test.tick", 10 * kSecond, [] {}, 10 * kSecond);
    other = node.Every("test.tick", 20 * kSecond, [] {}, 20 * kSecond);
    node.Every(
        "test.tick", 100,
        [&] {
          if (other == 0) return;
          node.CancelTimer(other);
          other = 0;
          pending_in_tick = sim.pending_timers();
        },
        100);
  });
  EXPECT_EQ(sim.pending_timers(), 3u);
  node.CancelTimer(far);
  EXPECT_EQ(sim.pending_timers(), 2u);
  sim.RunFor(150);
  EXPECT_EQ(pending_in_tick, 1u);
  EXPECT_EQ(sim.pending_timers(), 1u);
}

TEST(NetworkTablesTest, ChannelTablesTornDownOnUnregister) {
  Simulator sim(7);
  struct P : Payload {};
  Node a(&sim);
  a.On<P>([](const Message&, const P&) {});
  {
    Node b(&sim);
    b.On<P>([](const Message&, const P&) {});
    a.Send(b.id(), std::make_shared<P>());
    b.Send(a.id(), std::make_shared<P>());
    sim.RunFor(kSecond);
    EXPECT_EQ(sim.network().channel_count(), 2u);
  }  // b destroyed: both directions of its channels drop with the node
  EXPECT_EQ(sim.network().channel_count(), 0u);
  // The surviving node's table still works: a fresh peer re-creates a
  // channel and FIFO bookkeeping from a clean slate.
  Node c(&sim);
  c.On<P>([](const Message&, const P&) {});
  a.Send(c.id(), std::make_shared<P>());
  sim.RunFor(kSecond);
  EXPECT_EQ(sim.network().channel_count(), 1u);
}

TEST(NetworkTablesTest, ManyPeersKeepFifoPerChannel) {
  // One sender interleaving bursts to many receivers: the sorted channel
  // table must keep per-channel FIFO while lookups hop between peers.
  struct P : Payload {
    int v = 0;
  };
  Simulator sim(99);
  Node sender(&sim);
  std::vector<std::unique_ptr<Node>> peers;
  std::vector<std::vector<int>> got(32);
  for (int i = 0; i < 32; ++i) {
    peers.push_back(std::make_unique<Node>(&sim));
    peers[i]->On<P>([&got, i](const Message&, const P& p) {
      got[i].push_back(p.v);
    });
  }
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 32; ++i) {
      auto p = std::make_shared<P>();
      p->v = round;
      sender.Send(peers[i]->id(), std::move(p));
    }
  }
  sim.RunFor(kSecond);
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(got[i].size(), 20u);
    for (int round = 0; round < 20; ++round) EXPECT_EQ(got[i][round], round);
  }
}

TEST(NetworkTest, FixedLatencyModeSkipsRngDraws) {
  // min_latency == max_latency must not consume RNG state: the sender's
  // per-node stream position after N sends matches a run that sent
  // nothing.  (The RNG stream position is part of the determinism contract
  // — see Network::Send — so this fast path is pinned by a test.)
  struct P : Payload {};
  // Next draw of `a`'s per-node stream after `a` sent `sends` messages.
  auto next_draw = [](NetworkOptions net, int sends) {
    Simulator sim(123, net);
    Node a(&sim), b(&sim);
    b.On<P>([](const Message&, const P&) {});
    for (int i = 0; i < sends; ++i) a.Send(b.id(), std::make_shared<P>());
    sim.RunFor(kSecond);
    uint64_t draw = 0;
    sim.PostToNode(a.id(), [&] { draw = sim.rng().Next(); });
    sim.RunFor(kSecond);
    return draw;
  };
  NetworkOptions fixed;
  fixed.min_latency = kMillisecond;
  fixed.max_latency = kMillisecond;
  EXPECT_EQ(next_draw(fixed, 50), next_draw(fixed, 0));
  // The probe does see the stream: variable latency draws once per send.
  NetworkOptions variable;
  EXPECT_NE(next_draw(variable, 50), next_draw(variable, 0));
}

TEST(PayloadPoolTest, MakePayloadReusesFreedBlocksAtSteadyState) {
  struct P : Payload {};
  // The per-type free list is thread-local and keyed on the combined
  // control-block type allocate_shared creates, so the pin observes reuse
  // through block addresses instead of naming the list: once a block has
  // been freed, the very next MakePayload of that type must get it back.
  const void* first = nullptr;
  {
    PayloadPtr p = MakePayload<P>();
    first = p.get();
  }
  {
    PayloadPtr q = MakePayload<P>();
    EXPECT_EQ(q.get(), first);
  }
  // Steady state: a batch of simultaneously-live payloads, released and
  // re-allocated, lands on exactly the same blocks — the warm free list
  // serves every allocation and the footprint stops growing.  (The batch
  // is far below the list's retention cap, so nothing is given back to
  // the system allocator between rounds.)
  constexpr int kBatch = 64;
  std::set<const void*> round1, round2;
  {
    std::vector<PayloadPtr> live;
    for (int i = 0; i < kBatch; ++i) {
      live.push_back(MakePayload<P>());
      round1.insert(live.back().get());
    }
  }
  {
    std::vector<PayloadPtr> live;
    for (int i = 0; i < kBatch; ++i) {
      live.push_back(MakePayload<P>());
      round2.insert(live.back().get());
    }
  }
  ASSERT_EQ(round1.size(), static_cast<size_t>(kBatch));
  EXPECT_EQ(round1, round2);
}

TEST(PayloadPoolTest, SimulatedTrafficReachesAllocationSteadyState) {
  // End-to-end variant: drive message traffic through the simulator, then
  // show a second identical run allocates no payload blocks the first run
  // didn't already feed to the free list.
  struct P : Payload {};
  auto run = [](std::set<const void*>* blocks) {
    Simulator sim(3);
    Node a(&sim), b(&sim);
    b.On<P>([&](const Message& m, const P&) {
      if (blocks) blocks->insert(m.payload.get());
    });
    a.Every(
        "test.tick", kMillisecond, [&] { a.Send(b.id(), MakePayload<P>()); },
        kMillisecond);
    sim.RunFor(kSecond);
  };
  std::set<const void*> warmup, steady;
  run(&warmup);
  run(&steady);
  for (const void* p : steady) {
    EXPECT_TRUE(warmup.count(p))
        << "steady-state run allocated a block the warm free list "
           "should have supplied";
  }
}

TEST(SimulatorTest, EventsExecutedCounterIsDeterministic) {
  auto run = [](uint64_t seed) {
    struct P : Payload {};
    Simulator sim(seed);
    Node a(&sim), b(&sim);
    int bounces = 0;
    b.On<P>([&](const Message& m, const P&) {
      if (++bounces < 100) b.Send(m.from, std::make_shared<P>());
    });
    a.On<P>([&](const Message& m, const P&) {
      if (++bounces < 100) a.Send(m.from, std::make_shared<P>());
    });
    a.Every("test.tick", 10 * kMillisecond, [] {}, kMillisecond);
    a.Send(b.id(), std::make_shared<P>());
    sim.RunFor(kSecond);
    return sim.events_executed();
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_GT(run(5), 100u);
}

}  // namespace
}  // namespace pepper::sim
