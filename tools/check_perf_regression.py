#!/usr/bin/env python3
"""Compare fresh simulator-core micro throughputs against a baseline.

Usage: check_perf_regression.py BASELINE.json FRESH.json [--max-regress=0.20]

BASELINE is the committed BENCH_simcore.json (numbers under its "micro"
block); FRESH is the file `bench_sim_core --json=FILE` writes (the same
keys at top level).  Fails when a micro throughput (events/sec, sends/sec,
timer fires/sec, timer arm+cancel/sec) drops more than --max-regress below
the baseline.  The numbers are wall-clock measurements and therefore
host-dependent: re-baseline on a runner-class change rather than hunting a
phantom regression.

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


def micro_block(report):
    return report.get("micro", report)


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    opts = [a for a in argv[1:] if a.startswith("--")]
    if len(args) != 2:
        print(__doc__)
        return 2
    max_regress = 0.20
    for o in opts:
        if o.startswith("--max-regress="):
            max_regress = float(o.split("=", 1)[1])
        else:
            print(f"unknown option {o}")
            return 2

    with open(args[0]) as f:
        base_micro = micro_block(json.load(f))
    with open(args[1]) as f:
        fresh_micro = micro_block(json.load(f))
    if not any(key in fresh_micro for key in GATED):
        print("no micro throughputs in the fresh report")
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

    print("perf check:", "FAILED" if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
