#!/usr/bin/env python3
"""Check that two pepper_bench builds replay the same schedule.

Usage: replay_diff.py PARENT_BIN CHANGE_BIN [--seeds 100 101 200] [--summary]
                      [--ignore-events]

Runs every workload BENCHMARK.json declares at each sub-run seed with
both binaries, drops the host-time block ("host") from each run's JSON
line, and compares the rest field by field: digest, simulated-time
metrics, per-layer counts and latency lists.  Prints one line per
(workload, seed) and exits 1 if any pair differs, so a change that must
not move the simulated schedule can be checked against its parent build
in one command.

--summary also prints, under each differing pair, every differing
numeric field as parent -> change with its relative delta, so the size
of a deliberate rebaseline shows in the same command.

--ignore-events is the proof for a change that only removes (or adds)
events that change nothing.  Lookahead windows end on a fixed grid, so
such a change moves no other field; the mode drops the two that count
events, layers.sim.events and digest.  The digest also hashes the
operation log and every MetricsHub counter, so that coverage then comes
from the per-phase CSVs scenario_runner writes (--csv=FILE), diffed with
their sim.events and sim.fires.* rows removed:

    diff <(grep -Ev '^[^,]*,sim\.(events|fires\.)' PARENT.csv) \
         <(grep -Ev '^[^,]*,sim\.(events|fires\.)' CHANGE.csv)
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUBRUN_TIMEOUT_S = 300
# Fields that count executed events; --ignore-events drops them.
EVENT_FIELDS = (("layers", "sim.events"), ("digest",))


def run(binary, workload, seed, ignore_events=False):
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--scale=1.0"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=SUBRUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError("%s exited with %d: %s" % (
            " ".join(cmd), proc.returncode, proc.stderr.strip()))
    result = json.loads(lines[-1])
    result.pop("host", None)
    if ignore_events:
        for path in EVENT_FIELDS:
            lookup(result, path[:-1]).pop(path[-1], None)
    return result


def differences(a, b, prefix=()):
    """Key paths (tuples) at which two decoded JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            path = prefix + (key,)
            if key not in a or key not in b:
                out.append(path)
            else:
                out.extend(differences(a[key], b[key], path))
        return out
    return [] if a == b else [prefix]


def lookup(value, path):
    for key in path:
        value = value[key]
    return value


def summary_lines(a, b, paths):
    """`path: parent -> change (delta%)` for each differing scalar path."""
    out = []
    for path in paths:
        try:
            x, y = lookup(a, path), lookup(b, path)
        except KeyError:
            out.append("    %s: only on one side" % ".".join(path))
            continue
        numeric = (int, float)
        if (not isinstance(x, numeric) or not isinstance(y, numeric) or
                isinstance(x, bool) or isinstance(y, bool)):
            continue  # digests, flags and latency lists: named above only
        delta = "%+.2f%%" % (100.0 * (y - x) / x) if x else "n/a"
        out.append("    %s: %.6g -> %.6g (%s)" % (".".join(path), x, y, delta))
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_bin")
    p.add_argument("change_bin")
    p.add_argument("--seeds", type=int, nargs="+", default=[100, 101, 200])
    p.add_argument("--summary", action="store_true",
                   help="print parent -> change for each differing scalar")
    p.add_argument("--ignore-events", action="store_true",
                   help="drop layers.sim.events and digest; the docstring says "
                        "what then covers the digest")
    args = p.parse_args()
    if args.ignore_events:
        print("replay_diff: ignoring %s; the digest's counter and op-log "
              "coverage must come from diffing scenario_runner's per-phase "
              "CSVs without their sim.events and sim.fires.* rows" %
              " and ".join(".".join(path) for path in EVENT_FIELDS))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    failed = 0
    for workload in workloads:
        for seed in args.seeds:
            parent = run(args.parent_bin, workload, seed, args.ignore_events)
            change = run(args.change_bin, workload, seed, args.ignore_events)
            diff = differences(parent, change)
            label = "%s seed %d" % (workload, seed)
            if diff:
                failed += 1
                shown = ", ".join(".".join(path) for path in diff[:8])
                more = len(diff) - 8
                print("%-28s DIFFERS at %s%s" % (
                    label, shown, " (+%d more)" % more if more > 0 else ""))
                if args.summary:
                    for line in summary_lines(parent, change, diff):
                        print(line)
            else:
                print("%-28s identical" % label)
            sys.stdout.flush()
    total = len(workloads) * len(args.seeds)
    print("replay_diff: %d of %d runs identical" % (total - failed, total))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
