#include "telemetry/timeline.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace pepper::telemetry {

namespace {

struct ArcState {
  RingRange range;
  bool active = false;
};

// First/last exactly-retained window, or {kNoWindow, kNoWindow}.
std::pair<uint64_t, uint64_t> RenderRange(const TimeSeries& series) {
  const uint64_t newest = series.NewestWindow();
  if (newest == TimeSeries::kNoWindow) {
    return {TimeSeries::kNoWindow, TimeSeries::kNoWindow};
  }
  const uint64_t oldest = series.OldestWindow();
  const uint64_t floor =
      newest + 1 >= series.capacity() ? newest + 1 - series.capacity() : 0;
  return {std::max(oldest, floor), newest};
}

// Top-k arcs of one window by (arc load desc, node asc).
std::vector<std::pair<NodeId, WindowCounters>> TopArcs(
    std::vector<std::pair<NodeId, WindowCounters>> rows) {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     const uint64_t la = a.second.arc_load();
                     const uint64_t lb = b.second.arc_load();
                     if (la != lb) return la > lb;
                     return a.first < b.first;
                   });
  // Rank by owner-attributed load only: a window where nothing served
  // lookups/scans/mutations has no hot arcs (pure message traffic is
  // reported in the totals instead).
  while (!rows.empty() && rows.back().second.arc_load() == 0) rows.pop_back();
  if (rows.size() > kTimelineTopK) rows.resize(kTimelineTopK);
  return rows;
}

const char* HealthKindName(HealthViolation::Kind kind) {
  switch (kind) {
    case HealthViolation::Kind::kTimeoutAnomaly:
      return "timeout_anomaly";
    case HealthViolation::Kind::kRefreshStall:
      return "refresh_stall";
  }
  return "?";
}

void AppendCounters(std::ostringstream& os, const WindowCounters& c) {
  os << "\"lookups\":" << c.lookups << ",\"scans\":" << c.scans
     << ",\"mutations\":" << c.mutations << ",\"msgs_in\":" << c.msgs_in
     << ",\"rpcs_in\":" << c.rpcs_in << ",\"rpc_timeouts\":"
     << c.rpc_timeouts << ",\"store_hits\":" << c.store_hits
     << ",\"store_faults\":" << c.store_faults;
}

}  // namespace

std::string TimelineJson(const LoadMonitor& monitor,
                         const std::vector<HealthViolation>& health,
                         const std::vector<PhaseSpan>& phases) {
  const TimeSeries& series = monitor.series();
  const auto [first, last] = RenderRange(series);

  std::vector<HealthViolation> sorted_health(health);
  std::sort(sorted_health.begin(), sorted_health.end(),
            [](const HealthViolation& a, const HealthViolation& b) {
              if (a.window != b.window) return a.window < b.window;
              if (a.kind != b.kind) {
                return static_cast<uint8_t>(a.kind) <
                       static_cast<uint8_t>(b.kind);
              }
              return a.node < b.node;
            });

  std::ostringstream os;
  os << "{\n\"schema\":1,\n\"window_us\":" << series.window_length()
     << ",\n\"top_k\":" << kTimelineTopK << ",\n";
  if (first == TimeSeries::kNoWindow) {
    os << "\"windows\":[]\n}\n";
    return os.str();
  }
  os << "\"first_window\":" << first << ",\n\"last_window\":" << last
     << ",\n\"phases\":[";
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) os << ",";
    os << "\n{\"name\":\"" << phases[i].name << "\",\"start_us\":"
       << phases[i].start << ",\"end_us\":" << phases[i].end << "}";
  }
  os << (phases.empty() ? "],\n" : "\n],\n") << "\"windows\":[";

  const std::vector<ArcEvent> arc_events = monitor.MergedArcEvents();
  size_t cursor = 0;
  std::map<NodeId, ArcState> arcs;
  // Fast-forward ownership to just before the first rendered window.
  while (cursor < arc_events.size() &&
         first > 0 && series.WindowOf(arc_events[cursor].time) <= first - 1) {
    const ArcEvent& ev = arc_events[cursor++];
    arcs[ev.node] = ArcState{ev.range, ev.active};
  }

  size_t health_cursor = 0;
  for (uint64_t w = first; w <= last; ++w) {
    // Apply the ownership changes that landed inside this window, so arc
    // ranges reflect the state at window close.
    while (cursor < arc_events.size() &&
           series.WindowOf(arc_events[cursor].time) <= w) {
      const ArcEvent& ev = arc_events[cursor++];
      arcs[ev.node] = ArcState{ev.range, ev.active};
    }
    if (w != first) os << ",";
    os << "\n{\"index\":" << w << ",\"start_us\":" << series.WindowStart(w)
       << ",\"totals\":{";
    AppendCounters(os, series.CollectTotals(w));
    os << "},\"reorgs\":{";
    for (size_t k = 0; k < kReorgKinds; ++k) {
      if (k > 0) os << ",";
      os << "\"" << ReorgKindName(static_cast<ReorgKind>(k)) << "\":"
         << monitor.ReorgsInWindow(w, static_cast<ReorgKind>(k));
    }
    os << "},\"top_arcs\":[";
    const auto top = TopArcs(series.CollectWindow(w));
    for (size_t i = 0; i < top.size(); ++i) {
      if (i > 0) os << ",";
      const auto it = arcs.find(top[i].first);
      const bool known = it != arcs.end();
      os << "{\"node\":" << top[i].first << ",\"active\":"
         << (known && it->second.active ? "true" : "false");
      if (known) {
        os << ",\"lo\":" << it->second.range.lo()
           << ",\"hi\":" << it->second.range.hi()
           << ",\"full\":" << (it->second.range.full() ? "true" : "false");
      }
      os << ",\"load\":" << top[i].second.arc_load() << ",";
      AppendCounters(os, top[i].second);
      os << "}";
    }
    os << "],\"health\":[";
    bool first_violation = true;
    while (health_cursor < sorted_health.size() &&
           sorted_health[health_cursor].window <= w) {
      const HealthViolation& v = sorted_health[health_cursor++];
      if (v.window < w) continue;  // predates the rendered range
      if (!first_violation) os << ",";
      first_violation = false;
      os << "{\"kind\":\"" << HealthKindName(v.kind) << "\",\"node\":"
         << v.node << ",\"value\":" << v.value << ",\"reference\":"
         << v.reference << "}";
    }
    os << "]}";
  }
  os << "\n]\n}\n";
  return os.str();
}

std::string TopArcsText(const LoadMonitor& monitor, SimTime from,
                        SimTime to) {
  const TimeSeries& series = monitor.series();
  const auto [first, last] = RenderRange(series);
  if (first == TimeSeries::kNoWindow || to <= from) return "";
  const uint64_t lo = std::max(first, series.WindowOf(from));
  const uint64_t hi = std::min(
      last, to == 0 ? last : series.WindowOf(to - 1));
  std::ostringstream os;
  for (uint64_t w = lo; w <= hi && w >= lo; ++w) {
    const auto top = TopArcs(series.CollectWindow(w));
    if (top.empty()) continue;
    const WindowCounters totals = series.CollectTotals(w);
    os << "   w" << w << " [t=" << series.WindowStart(w) / sim::kSecond
       << "s] load=" << totals.arc_load() << " (lk=" << totals.lookups
       << " sc=" << totals.scans << " mu=" << totals.mutations << ") top:";
    for (const auto& [node, c] : top) {
      os << " n" << node << "(" << c.arc_load() << ")";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace pepper::telemetry
