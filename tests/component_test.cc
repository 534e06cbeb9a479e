// ProtocolComponent behaviours: shared-host handler registration, component
// ownership of the bottom-layer node, fail-stop across the whole stack, and
// timer cancellation when a component dies before its host.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/component.h"
#include "sim/simulator.h"

namespace pepper::sim {
namespace {

struct PingMsg : Payload {
  int value = 0;
};
struct PongMsg : Payload {
  int value = 0;
};

// The bottom layer of a test peer: owns the host node.
class HostLayer : public ProtocolComponent {
 public:
  explicit HostLayer(Simulator* sim) : ProtocolComponent(sim) {
    On<PingMsg>([this](const Message&, const PingMsg& p) {
      pings.push_back(p.value);
    });
  }

  using ProtocolComponent::Send;  // widened for the test driver

  std::vector<int> pings;
};

// An upper layer attached to an existing host: registers its own handler and
// timers on the shared node.
class AttachedLayer : public ProtocolComponent {
 public:
  explicit AttachedLayer(Node* host) : ProtocolComponent(host) {
    On<PongMsg>([this](const Message&, const PongMsg& p) {
      pongs.push_back(p.value);
    });
    Every("test.tick", 100, [this]() { ++ticks; }, 100);
  }

  std::vector<int> pongs;
  int ticks = 0;
};

TEST(ProtocolComponentTest, LayersShareOneHostNodeAndIdentity) {
  Simulator sim(5);
  HostLayer a(&sim);
  HostLayer b(&sim);
  AttachedLayer b_upper(b.node());

  EXPECT_EQ(b.id(), b_upper.id());  // one peer identity for the whole stack

  auto ping = std::make_shared<PingMsg>();
  ping->value = 1;
  a.Send(b.id(), ping);
  auto pong = std::make_shared<PongMsg>();
  pong->value = 2;
  a.Send(b.id(), pong);
  sim.RunFor(kSecond);

  // Each payload type is dispatched to the layer that registered it.
  ASSERT_EQ(b.pings.size(), 1u);
  EXPECT_EQ(b.pings[0], 1);
  ASSERT_EQ(b_upper.pongs.size(), 1u);
  EXPECT_EQ(b_upper.pongs[0], 2);
}

TEST(ProtocolComponentTest, HostFailureStopsEveryLayer) {
  Simulator sim(5);
  HostLayer a(&sim);
  HostLayer b(&sim);
  AttachedLayer b_upper(b.node());

  b.node()->Fail();
  auto pong = std::make_shared<PongMsg>();
  pong->value = 7;
  a.Send(b.id(), pong);
  sim.RunFor(kSecond);

  EXPECT_FALSE(b_upper.alive());
  EXPECT_TRUE(b_upper.pongs.empty());
  EXPECT_EQ(b_upper.ticks, 0);  // timers die with the peer
}

TEST(ProtocolComponentTest, ComponentTimersCancelledOnDestruction) {
  Simulator sim(5);
  HostLayer host(&sim);
  int observed = 0;
  {
    AttachedLayer upper(host.node());
    // Armed from the control context, so the first tick lands one
    // lookahead out; then one tick per 100 us.
    sim.RunFor(sim.lookahead() + 450);
    observed = upper.ticks;
    EXPECT_EQ(observed, 5);
  }  // upper destroyed; its periodic timer must stop, host stays alive
  sim.RunFor(kSecond);
  EXPECT_TRUE(host.alive());
}

}  // namespace
}  // namespace pepper::sim
