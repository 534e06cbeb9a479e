#include "telemetry/time_series.h"

#include <algorithm>

#include "common/logging.h"

namespace pepper::telemetry {

TimeSeries::TimeSeries(SimTime window_length, size_t capacity)
    : window_length_(window_length == 0 ? 1 : window_length),
      capacity_(std::max<size_t>(capacity, 2)) {}

void TimeSeries::OnRegister(NodeId id) {
  if (nodes_.size() <= id) nodes_.resize(id + 1);
}

WindowCounters& TimeSeries::Slot(NodeId node, SimTime now) {
  PEPPER_CHECK(node < nodes_.size());
  NodeRing& ring = nodes_[node];
  if (ring.slots.empty()) ring.slots.resize(capacity_);
  const uint64_t w = WindowOf(now);
  NodeSlot& slot = ring.slots[w % capacity_];
  if (slot.window != w) {
    if (slot.window != kNoWindow && slot.c.any()) ++ring.recycled;
    slot.window = w;
    slot.c = WindowCounters{};
  }
  return slot.c;
}

WindowCounters TimeSeries::CollectTotals(uint64_t window) const {
  WindowCounters total;
  for (const NodeRing& ring : nodes_) {
    if (ring.slots.empty()) continue;
    const NodeSlot& slot = ring.slots[window % capacity_];
    if (slot.window == window) total.Add(slot.c);
  }
  return total;
}

std::vector<std::pair<NodeId, WindowCounters>> TimeSeries::CollectWindow(
    uint64_t window) const {
  std::vector<std::pair<NodeId, WindowCounters>> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const NodeRing& ring = nodes_[id];
    if (ring.slots.empty()) continue;
    const NodeSlot& slot = ring.slots[window % capacity_];
    if (slot.window == window && slot.c.any()) out.emplace_back(id, slot.c);
  }
  return out;
}

uint64_t TimeSeries::TimeoutsFor(NodeId node, uint64_t window) const {
  if (node >= nodes_.size() || nodes_[node].slots.empty()) return 0;
  const NodeSlot& slot = nodes_[node].slots[window % capacity_];
  return slot.window == window ? slot.c.rpc_timeouts : 0;
}

uint64_t TimeSeries::slots_recycled() const {
  uint64_t total = 0;
  for (const NodeRing& ring : nodes_) total += ring.recycled;
  return total;
}

uint64_t TimeSeries::OldestWindow() const {
  uint64_t oldest = kNoWindow;
  const auto consider = [&oldest](uint64_t w) {
    if (w != kNoWindow && (oldest == kNoWindow || w < oldest)) oldest = w;
  };
  for (const NodeRing& ring : nodes_) {
    for (const NodeSlot& slot : ring.slots) consider(slot.window);
  }
  return oldest;
}

uint64_t TimeSeries::NewestWindow() const {
  uint64_t newest = kNoWindow;
  for (const NodeRing& ring : nodes_) {
    for (const NodeSlot& slot : ring.slots) {
      if (slot.window != kNoWindow &&
          (newest == kNoWindow || slot.window > newest)) {
        newest = slot.window;
      }
    }
  }
  return newest;
}

}  // namespace pepper::telemetry
