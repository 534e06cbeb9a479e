#include "sim/component.h"

#include <algorithm>

namespace pepper::sim {

ProtocolComponent::ProtocolComponent(Node* host) : node_(host) {}

ProtocolComponent::ProtocolComponent(Simulator* sim)
    : owned_node_(std::make_unique<Node>(sim)), node_(owned_node_.get()) {}

ProtocolComponent::~ProtocolComponent() {
  for (uint64_t timer_id : timers_) {
    node_->CancelTimer(timer_id);
  }
}

uint64_t ProtocolComponent::Every(const char* label, SimTime period,
                                  std::function<void()> fn,
                                  SimTime initial_delay) {
  const uint64_t timer_id =
      node_->Every(label, period, std::move(fn), initial_delay);
  timers_.push_back(timer_id);
  return timer_id;
}

void ProtocolComponent::CancelTimer(uint64_t timer_id) {
  node_->CancelTimer(timer_id);
  timers_.erase(std::remove(timers_.begin(), timers_.end(), timer_id),
                timers_.end());
}

SimTime ProtocolComponent::RandomPhase(SimTime period) {
  return sim()->rng().Uniform(0, period);
}

}  // namespace pepper::sim
