#!/usr/bin/env python3
"""Compare a fresh perf_report against the committed BENCH_simcore.json.

Usage: check_perf_regression.py BASELINE.json FRESH.json [--max-regress=0.20]

Gates on the micro events/sec (and the other micro throughputs) dropping
more than --max-regress below the baseline.  Scenario wall-clock is printed
for context but never gates: CI machines vary too much for a hard wall-time
bound, while the micro throughputs are stable enough for a 20% band.

Also gates the router refresh-traffic figures of the scenario probe (both
deterministic, so CI machine variance does not apply):
  * router.refresh_share (HRF refresh msgs / total msgs) must not grow more
    than --max-regress above the committed baseline share, and
  * router_hops_ratio (batched vs per-level lookup hop mean, the in-report
    A/B) must not exceed 1.0 + --max-hops-drift,
so refresh-traffic regressions fail the nightly job like throughput
regressions do.

When the fresh report carries a scenario "trace" block (the causal-tracing
A/B on long_churn --paper --scale=20), two more gates run:
  * tracing-OFF overhead: the fresh off-arm events/sec must stay within
    --max-trace-overhead (default 0.05) of the committed baseline's
    scenario events/sec -- the disabled instrumentation hooks may not cost
    more than 5% of the hot path.  Cross-report and therefore
    host-sensitive, like every committed-baseline comparison: re-baseline
    on a runner-class change rather than hunting a phantom regression.
  * replay identity: the tracing-on arm must execute exactly the
    tracing-off arm's event/message counts (tracing must never perturb the schedule),
    and its audits must stay green.  The on-arm wall-clock overhead is
    printed for the trend, not gated (sampled tracing cost is dominated by
    machine variance at these run lengths).

When the fresh report carries a scenario "telemetry" block (the windowed
load-monitor A/B on the same run), three more gates run:
  * replay identity: the telemetry-on arm must execute exactly the
    telemetry-off arm's event/message counts -- the monitor rings and health probes must
    never perturb the schedule.  Hard fail on divergence.
  * the on-arm audits (fatal ring/SLO probes PLUS the armed health probes)
    must stay green -- a clean long_churn may never trip a health finding.
  * disabled-hook overhead: the off arm (monitor hooks compiled in, no
    monitor armed -- the default state of every run) must keep its
    events/sec within --max-telemetry-overhead (default 0.05) of the
    committed baseline, same contract as the trace block.  The ARMED
    monitor's wall overhead (overhead_ratio, a same-report ratio) is
    printed for the trend, not gated: per-delivery ring writes cost real
    wall time, and paying it is an explicit opt-in (--timeline / --health).
When the fresh report carries a scenario "store" block (the paged-store A/B
on the same run, page_io_latency=0), three more gates run:
  * replay identity: the paged arm must execute exactly the in-memory arm's
    event/message counts.  At zero simulated I/O latency the storage engine
    is invisible to the protocol, so ANY divergence means the B+-tree or
    the facade's latency charging changed the schedule.  Hard fail.
  * the paged arm's fatal audits must stay green.
  * in-memory overhead: the off arm (the ItemStore facade over the map
    engine -- the default state of every run) must keep its events/sec
    within --max-store-overhead (default 0.05) of the committed baseline's
    scenario events/sec.  The abstraction may not tax the hot path more
    than 5%.  Cross-report and host-sensitive like the trace/telemetry
    bands.  The paged arm's wall overhead and buffer hit rate are printed
    for the trend, not gated.
Exit status: 0 ok, 1 regression, 2 usage/schema error.
"""

import json
import sys

GATED = [
    "events_per_sec",
    "sends_per_sec",
    "timer_fires_per_sec",
    "timer_arm_cancel_per_sec",
]


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    opts = [a for a in argv[1:] if a.startswith("--")]
    if len(args) != 2:
        print(__doc__)
        return 2
    max_regress = 0.20
    max_hops_drift = 0.05
    max_trace_overhead = 0.05
    max_telemetry_overhead = 0.05
    max_store_overhead = 0.05
    for o in opts:
        if o.startswith("--max-regress="):
            max_regress = float(o.split("=", 1)[1])
        elif o.startswith("--max-hops-drift="):
            max_hops_drift = float(o.split("=", 1)[1])
        elif o.startswith("--max-trace-overhead="):
            max_trace_overhead = float(o.split("=", 1)[1])
        elif o.startswith("--max-telemetry-overhead="):
            max_telemetry_overhead = float(o.split("=", 1)[1])
        elif o.startswith("--max-store-overhead="):
            max_store_overhead = float(o.split("=", 1)[1])
        else:
            print(f"unknown option {o}")
            return 2

    with open(args[0]) as f:
        baseline = json.load(f)
    with open(args[1]) as f:
        fresh = json.load(f)

    try:
        base_micro = baseline["micro"]
        fresh_micro = fresh["micro"]
    except KeyError:
        print("missing 'micro' block in one of the reports")
        return 2

    failed = False
    for key in GATED:
        base = base_micro.get(key)
        new = fresh_micro.get(key)
        if not base or new is None:
            print(f"  {key:28s} (missing, skipped)")
            continue
        ratio = new / base
        status = "OK"
        if ratio < 1.0 - max_regress:
            status = "REGRESSED"
            failed = True
        print(f"  {key:28s} {base:>14,.0f} -> {new:>14,.0f}"
              f"  ({ratio:6.2%})  {status}")

    for report, label in ((baseline, "baseline"), (fresh, "fresh")):
        scn = report.get("scenario")
        if scn:
            print(f"  scenario wall ({label:8s})      {scn['wall_seconds']:.1f}s"
                  f"  audits_ok={scn.get('fatal_audits_ok')}")

    fresh_scn = fresh.get("scenario")
    if fresh_scn and fresh_scn.get("fatal_audits_ok") is False:
        print("fresh scenario run had audit violations")
        failed = True
    if fresh_scn and fresh_scn.get("router_baseline_audits_ok") is False:
        print("fresh router-baseline (A/B) run had audit violations")
        failed = True

    # --- Router refresh-traffic gates (deterministic figures) ---------------
    base_share = (baseline.get("scenario") or {}).get("router", {}).get(
        "refresh_share")
    fresh_share = (fresh_scn or {}).get("router", {}).get("refresh_share")
    if base_share and fresh_share is not None:
        # Small absolute epsilon so a near-zero baseline share doesn't turn
        # rounding noise into a failure.
        bound = base_share * (1.0 + max_regress) + 0.005
        status = "OK"
        if fresh_share > bound:
            status = "REGRESSED"
            failed = True
        print(f"  router.refresh_share         {base_share:14.4f} -> "
              f"{fresh_share:14.4f}  (bound {bound:.4f})  {status}")
    elif fresh_share is not None:
        print(f"  router.refresh_share         (no baseline)  "
              f"{fresh_share:.4f}")

    hops_ratio = (fresh_scn or {}).get("router_hops_ratio")
    if hops_ratio is not None:
        # One-sided: fewer hops than the per-level baseline is fine; the
        # gate exists so cheap refresh never quietly buys worse routing.
        status = "OK"
        if hops_ratio > 1.0 + max_hops_drift:
            status = "REGRESSED"
            failed = True
        print(f"  router_hops_ratio (A/B)      {hops_ratio:14.3f}"
              f"  (bound {1.0 + max_hops_drift:.2f})  {status}")

    # --- Causal-tracing gates ------------------------------------------------
    tr = (fresh_scn or {}).get("trace")
    if tr:
        if tr.get("replay_identical") is False:
            print("tracing-on run diverged from the tracing-off schedule")
            failed = True
        if tr.get("on_audits_ok") is False:
            print("tracing-on scenario run had audit violations")
            failed = True
        # Tracing-off overhead vs the committed baseline: the disabled
        # hooks (context clears, msg.trace stamping branches) ride the hot
        # path of every run, so they get a tighter band than the general
        # throughput gate.
        base_eps = (baseline.get("scenario") or {}).get("events_per_sec")
        off_eps = tr.get("off_events_per_sec")
        if base_eps and off_eps is not None:
            ratio = off_eps / base_eps
            status = "OK"
            if ratio < 1.0 - max_trace_overhead:
                status = "REGRESSED"
                failed = True
            print(f"  trace-off vs baseline        {base_eps:>14,.0f} -> "
                  f"{off_eps:>14,.0f}  ({ratio:6.2%})  {status}")
        elif off_eps is not None:
            print(f"  trace-off vs baseline        (no baseline)  "
                  f"{off_eps:,.0f} events/sec")
        overhead = tr.get("overhead_ratio")
        if overhead is not None:
            print(f"  trace-on overhead (1-in-{tr.get('on_sample_every', '?')})"
                  f"    {overhead:10.3f}x wall, "
                  f"{tr.get('on_records', 0):,} records  (trend only)")

    # --- Telemetry gates -----------------------------------------------------
    tm = (fresh_scn or {}).get("telemetry")
    if tm:
        if tm.get("replay_identical") is False:
            print("telemetry-on run diverged from the telemetry-off schedule")
            failed = True
        if tm.get("on_audits_ok") is False:
            print("telemetry-on run had audit or health-probe violations")
            failed = True
        # Disabled-hook overhead vs the committed baseline: the monitor
        # null-checks ride the hot path of every run whether or not a
        # monitor is armed, so they get the same tight band as the trace
        # hooks.  Cross-report and host-sensitive -- re-baseline on a
        # runner-class change rather than hunting a phantom regression.
        base_eps = (baseline.get("scenario") or {}).get("events_per_sec")
        off_eps = tm.get("off_events_per_sec")
        if base_eps and off_eps is not None:
            ratio = off_eps / base_eps
            status = "OK"
            if ratio < 1.0 - max_telemetry_overhead:
                status = "REGRESSED"
                failed = True
            print(f"  telemetry-off vs baseline    {base_eps:>14,.0f} -> "
                  f"{off_eps:>14,.0f}  ({ratio:6.2%})  {status}")
        elif off_eps is not None:
            print(f"  telemetry-off vs baseline    (no baseline)  "
                  f"{off_eps:,.0f} events/sec")
        overhead = tm.get("overhead_ratio")
        if overhead is not None:
            print(f"  telemetry-on (armed) overhead {overhead:13.3f}x wall"
                  f"  (trend only)")

    # --- Paged-store gates ---------------------------------------------------
    st = (fresh_scn or {}).get("store")
    if st:
        if st.get("replay_identical") is False:
            print("paged-store run diverged from the in-memory schedule "
                  "at zero I/O latency")
            failed = True
        if st.get("on_audits_ok") is False:
            print("paged-store run had audit violations")
            failed = True
        # In-memory overhead vs the committed baseline: the ItemStore facade
        # (virtual dispatch, cursor iteration) rides every run's hot path.
        base_eps = (baseline.get("scenario") or {}).get("events_per_sec")
        off_eps = st.get("off_events_per_sec")
        if base_eps and off_eps is not None:
            ratio = off_eps / base_eps
            status = "OK"
            if ratio < 1.0 - max_store_overhead:
                status = "REGRESSED"
                failed = True
            print(f"  store-off vs baseline        {base_eps:>14,.0f} -> "
                  f"{off_eps:>14,.0f}  ({ratio:6.2%})  {status}")
        elif off_eps is not None:
            print(f"  store-off vs baseline        (no baseline)  "
                  f"{off_eps:,.0f} events/sec")
        overhead = st.get("overhead_ratio")
        if overhead is not None:
            print(f"  store-on (paged) overhead    {overhead:13.3f}x wall, "
                  f"hit rate {st.get('hit_rate', 1.0):.4f} "
                  f"({st.get('buffer_faults', 0):,} faults)  (trend only)")

    print("perf check:", "FAILED" if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
