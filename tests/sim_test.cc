#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/node.h"
#include "sim/simulator.h"

namespace pepper::sim {
namespace {

struct EchoRequest : Payload {
  int value = 0;
};
struct EchoReply : Payload {
  int value = 0;
};
struct OneWay : Payload {
  int value = 0;
};

class EchoNode : public Node {
 public:
  explicit EchoNode(Simulator* sim) : Node(sim) {
    On<EchoRequest>([this](const Message& m, const EchoRequest& req) {
      requests_seen.push_back(req.value);
      auto reply = std::make_shared<EchoReply>();
      reply->value = req.value * 2;
      Reply(m, reply);
    });
    On<OneWay>([this](const Message&, const OneWay& msg) {
      one_ways.push_back(msg.value);
    });
  }

  std::vector<int> requests_seen;
  std::vector<int> one_ways;
};

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.After(30, [&] { order.push_back(3); });
  sim.After(10, [&] { order.push_back(1); });
  sim.After(20, [&] { order.push_back(2); });
  sim.RunFor(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 100u);
}

TEST(SimulatorTest, TiesBreakByInsertionOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.After(10, [&] { order.push_back(1); });
  sim.After(10, [&] { order.push_back(2); });
  sim.After(10, [&] { order.push_back(3); });
  sim.RunFor(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RngIsDeterministicAcrossRuns) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(43);
  EXPECT_NE(Rng(42).Next(), c.Next());
}

TEST(NodeTest, OneWayMessageDelivered) {
  Simulator sim(7);
  EchoNode a(&sim), b(&sim);
  auto msg = std::make_shared<OneWay>();
  msg->value = 5;
  a.Send(b.id(), msg);
  sim.RunFor(10 * kMillisecond);
  ASSERT_EQ(b.one_ways.size(), 1u);
  EXPECT_EQ(b.one_ways[0], 5);
}

TEST(NodeTest, RpcRoundTrip) {
  Simulator sim(7);
  EchoNode a(&sim), b(&sim);
  int got = -1;
  bool timed_out = false;
  auto req = std::make_shared<EchoRequest>();
  req->value = 21;
  a.Call(
      b.id(), req,
      [&](const Message& m) {
        got = static_cast<const EchoReply&>(*m.payload).value;
      },
      kSecond, [&] { timed_out = true; });
  sim.RunFor(kSecond * 2);
  EXPECT_EQ(got, 42);
  EXPECT_FALSE(timed_out);
}

TEST(NodeTest, RpcTimesOutWhenTargetDead) {
  Simulator sim(7);
  EchoNode a(&sim), b(&sim);
  b.Fail();
  bool replied = false, timed_out = false;
  a.Call(
      b.id(), std::make_shared<EchoRequest>(),
      [&](const Message&) { replied = true; }, 50 * kMillisecond,
      [&] { timed_out = true; });
  sim.RunFor(kSecond);
  EXPECT_FALSE(replied);
  EXPECT_TRUE(timed_out);
}

TEST(NodeTest, FailedNodeStopsProcessing) {
  Simulator sim(7);
  EchoNode a(&sim), b(&sim);
  auto msg = std::make_shared<OneWay>();
  msg->value = 1;
  a.Send(b.id(), msg);
  b.Fail();  // fails before delivery
  sim.RunFor(kSecond);
  EXPECT_TRUE(b.one_ways.empty());
}

TEST(NodeTest, ChannelIsFifo) {
  Simulator sim(99);
  EchoNode a(&sim), b(&sim);
  for (int i = 0; i < 50; ++i) {
    auto msg = std::make_shared<OneWay>();
    msg->value = i;
    a.Send(b.id(), msg);
  }
  sim.RunFor(kSecond);
  ASSERT_EQ(b.one_ways.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(b.one_ways[i], i);
}

TEST(NodeTest, PeriodicTimerFiresAndCancels) {
  Simulator sim(3);
  EchoNode a(&sim);
  std::vector<SimTime> fires;
  // Armed from the control context: the first tick lands one lookahead out
  // (the node's core may already have run up to the window edge), every
  // later tick one period after the previous.
  uint64_t timer =
      a.Every("test.tick", 100, [&] { fires.push_back(sim.now()); }, 100);
  sim.RunFor(1000);
  const SimTime first = sim.lookahead();
  ASSERT_EQ(fires.size(), (1000 - first) / 100 + 1);
  for (size_t k = 0; k < fires.size(); ++k) {
    EXPECT_EQ(fires[k], first + k * 100) << "tick " << k;
  }
  const size_t ticks = fires.size();
  a.CancelTimer(timer);
  sim.RunFor(1000);
  EXPECT_EQ(fires.size(), ticks);
}

TEST(NodeTest, TimersStopOnFailure) {
  Simulator sim(3);
  EchoNode a(&sim);
  int ticks = 0;
  // First tick one lookahead out.
  a.Every("test.tick", 100, [&] { ++ticks; }, 100);
  sim.RunFor(sim.lookahead() + 250);
  EXPECT_EQ(ticks, 3);
  a.Fail();
  sim.RunFor(1000);
  EXPECT_EQ(ticks, 3);
}

TEST(NodeTest, AfterCallbackSkippedForDestroyedNode) {
  Simulator sim(3);
  int fired = 0;
  {
    EchoNode a(&sim);
    a.After(100, [&] { ++fired; });
  }  // node destroyed before the callback's due time
  sim.RunFor(1000);
  EXPECT_EQ(fired, 0);
}

TEST(NodeTest, LateReplyAfterTimeoutIsIgnored) {
  // Force a timeout shorter than the minimum latency: the reply arrives
  // after the timeout fired and must be dropped.
  NetworkOptions net;
  net.min_latency = 10 * kMillisecond;
  net.max_latency = 20 * kMillisecond;
  Simulator sim(7, net);
  EchoNode a(&sim), b(&sim);
  bool replied = false, timed_out = false;
  a.Call(
      b.id(), std::make_shared<EchoRequest>(),
      [&](const Message&) { replied = true; }, 5 * kMillisecond,
      [&] { timed_out = true; });
  sim.RunFor(kSecond);
  EXPECT_TRUE(timed_out);
  EXPECT_FALSE(replied);
  EXPECT_EQ(b.requests_seen.size(), 1u);  // request was processed
}

TEST(NetworkTest, EverySendCountsIncludingReplies) {
  Simulator sim(7);
  EchoNode a(&sim), b(&sim);
  const uint64_t before = sim.network().messages_sent();
  a.Call(
      b.id(), std::make_shared<EchoRequest>(), [](const Message&) {}, kSecond,
      [] {});
  sim.RunFor(kSecond);
  EXPECT_EQ(sim.network().messages_sent() - before, 2u);  // request + reply
}

template <typename T>
struct Wrapped : Payload {};

// Payload types are named by their unqualified struct name, whatever
// namespace (here an anonymous one) declares them.
TEST(NetworkTest, SendsAreCountedByPayloadTypeName) {
  EXPECT_EQ(PayloadTypeName(PayloadTypeId<EchoRequest>()), "EchoRequest");
  EXPECT_EQ(PayloadTypeName(PayloadTypeId<Wrapped<OneWay>>()).rfind(
                "Wrapped<", 0),
            0u);
  EXPECT_EQ(PayloadTypeName(0), "none");
  Simulator sim(7);
  EchoNode a(&sim), b(&sim);
  a.Call(
      b.id(), std::make_shared<EchoRequest>(), [](const Message&) {}, kSecond,
      [] {});
  a.Send(b.id(), std::make_shared<OneWay>());
  a.Send(b.id(), std::make_shared<OneWay>());
  sim.RunFor(kSecond);
  EXPECT_EQ(sim.counters().Get("sim.msgs.EchoRequest"), 1u);
  EXPECT_EQ(sim.counters().Get("sim.msgs.EchoReply"), 1u);
  EXPECT_EQ(sim.counters().Get("sim.msgs.OneWay"), 2u);
  EXPECT_EQ(sim.network().messages_sent(), 4u);
}

TEST(NetworkTest, ChannelBookkeepingPrunedOnUnregister) {
  Simulator sim(7);
  EchoNode a(&sim);
  {
    EchoNode b(&sim);
    auto msg = std::make_shared<OneWay>();
    msg->value = 1;
    a.Send(b.id(), msg);
    b.Send(a.id(), std::make_shared<OneWay>());
    sim.RunFor(kSecond);
    EXPECT_EQ(sim.network().channel_count(), 2u);
  }  // b destroyed: ids are never reused, so its channels are dropped
  EXPECT_EQ(sim.network().channel_count(), 0u);
}

TEST(NetworkTest, ChannelBookkeepingPrunedOnFailure) {
  Simulator sim(7);
  EchoNode a(&sim), b(&sim);
  a.Send(b.id(), std::make_shared<OneWay>());
  b.Send(a.id(), std::make_shared<OneWay>());
  sim.RunFor(kSecond);
  EXPECT_EQ(sim.network().channel_count(), 2u);
  // Churn runs fail peers without ever destroying the node objects; the
  // bookkeeping must not wait for destruction.
  b.Fail();
  EXPECT_EQ(sim.network().channel_count(), 0u);
}

TEST(SimulatorTest, IdenticalSeedsProduceIdenticalSchedules) {
  auto run = [](uint64_t seed) {
    Simulator sim(seed);
    EchoNode a(&sim), b(&sim);
    std::vector<int> seen;
    for (int i = 0; i < 10; ++i) {
      auto msg = std::make_shared<OneWay>();
      msg->value = i;
      a.Send(b.id(), msg);
    }
    sim.RunFor(kSecond);
    return sim.network().messages_sent();
  };
  EXPECT_EQ(run(5), run(5));
}

}  // namespace
}  // namespace pepper::sim
