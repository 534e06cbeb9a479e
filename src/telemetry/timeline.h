#ifndef PEPPER_TELEMETRY_TIMELINE_H_
#define PEPPER_TELEMETRY_TIMELINE_H_

#include <string>
#include <vector>

#include "telemetry/health.h"
#include "telemetry/load_monitor.h"

namespace pepper::telemetry {

// Timeline export: the windowed view of a run rendered as JSON (the
// `--timeline=FILE` artifact) and as the per-window top-k hot-arc lines of
// the scenario text report.
//
// Byte-identity contract: every figure in both renderings is an unsigned
// integer sum over the monitor's shard-invariant windowed storage, every
// list is sorted by a deterministic total order (windows ascending; arcs by
// load descending then NodeId ascending; health rows by window/kind/node) —
// so the same seed produces byte-identical output at any shard count.
//
// Only exactly-retained windows are rendered: the ring keeps the last
// `capacity` windows per node, so rendering starts at
// max(oldest, newest - capacity + 1) and older (partially overwritten)
// windows are excluded rather than shown incomplete.

// A named phase interval, for annotating the JSON with the scenario
// structure (start inclusive, end exclusive, sim microseconds).
struct PhaseSpan {
  std::string name;
  SimTime start = 0;
  SimTime end = 0;
};

// Hot arcs listed per window in both renderings.
inline constexpr size_t kTimelineTopK = 5;

// The full windowed timeline as JSON.
std::string TimelineJson(const LoadMonitor& monitor,
                         const std::vector<HealthViolation>& health,
                         const std::vector<PhaseSpan>& phases);

// Per-window top-k hot-arc lines for the windows intersecting
// [from, to) sim time — the text-report rendering.  Empty when the
// interval holds no retained windows with any load.
std::string TopArcsText(const LoadMonitor& monitor, SimTime from, SimTime to);

}  // namespace pepper::telemetry

#endif  // PEPPER_TELEMETRY_TIMELINE_H_
