#!/usr/bin/env python3
"""abl7's hot-path gate across builds: observed vs compiled out.

    python3 tools/obs_gate.py build/qsvbench build-obs-off/qsvbench

The first binary is a default build (telemetry compiled in, locks
observed); the second was configured with -DQSV_OBS=OFF, so its locks
carry no instrumentation at all. Inside one build abl7 can only compare
a registered lock with one constructed disabled, and both run the same
uncontended instructions (the in-object tallies tick either way). The
cost of the instrumentation itself shows only against the compiled-out
build, so this script times abl7's observed rows in both binaries,
alternating them run by run so drift hits both alike, and compares the
medians of the runs:

  * hot (one lock in cache) is gated with abl7's rule — within 1.25x or
    5 ns of the compiled-out build. Tallies made RMWs read 1.70x here;
  * cold (2^16 locks in a seeded order) is reported, not gated. Between
    processes its cost moves with where the pages land, by about as
    much as the two tally load/store pairs cost (measured 1.20-1.37x on
    a shared 4-core host), so a 1.25x gate would fail at random. The
    extra-line regression this arm would show — tallies moved off the
    lock word's line — fails the build instead: the static_asserts
    beside QsvMutex pin it, tallies included, to one 64-byte line.

Prints one row per arm and exits 1 when the hot arm breaches.
"""

import argparse
import json
import statistics
import subprocess
import sys

GATE_RATIO = 1.25
GATE_NS = 5.0
ARMS = ("hot", "cold")
GATED = ("hot",)


def arm_ns(binary, budget_ms):
    """ns_per_op of each observed arm from one abl7 run of `binary`."""
    p = subprocess.run(
        [binary, "--filter", "obs", "--algo", "telemetry=on",
         "--budget-ms", str(budget_ms), "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    # Exit 1 with a report is abl7's own in-build gate failing; that
    # gate is CI's bench-artifacts check, not this one, so only a run
    # without a report is an error here.
    try:
        report = json.loads(p.stdout)
    except ValueError:
        sys.exit("obs_gate: %s exited %d without a report:\n%s" %
                 (binary, p.returncode, p.stderr[-2000:]))
    found = {}

    def walk(node):
        if isinstance(node, dict):
            op = node.get("op")
            if isinstance(op, str) and op.startswith("telemetry=on/"):
                found[op.split("/", 1)[1]] = float(node["ns_per_op"])
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(report)
    missing = [a for a in ARMS if a not in found]
    if missing:
        sys.exit("obs_gate: %s reported no telemetry=on row for %s" %
                 (binary, ", ".join(missing)))
    return found


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("observed", help="qsvbench from a default build")
    ap.add_argument("compiled_out", help="qsvbench from a -DQSV_OBS=OFF build")
    ap.add_argument("--runs", type=int, default=9,
                    help="runs of each binary")
    ap.add_argument("--budget-ms", type=float, default=20.0)
    args = ap.parse_args()

    runs = {"on": {a: [] for a in ARMS}, "out": {a: [] for a in ARMS}}
    for r in range(args.runs):
        order = (("on", args.observed), ("out", args.compiled_out))
        if r % 2 == 1:
            order = order[::-1]
        for side, binary in order:
            for arm, ns in arm_ns(binary, args.budget_ms).items():
                runs[side][arm].append(ns)

    breached = []
    print("arm   compiled_in_ns  compiled_out_ns  overhead_ns  ratio  "
          "within_noise")
    for arm in ARMS:
        on = statistics.median(runs["on"][arm])
        out = statistics.median(runs["out"][arm])
        overhead = on - out
        ratio = on / out if out > 0 else 1.0
        ok = ratio <= GATE_RATIO or overhead <= GATE_NS
        verdict = ("yes" if ok else "no") if arm in GATED else "reported"
        print("%-5s %14.1f  %15.1f  %11.1f  %5.2f  %s" %
              (arm, on, out, overhead, ratio, verdict))
        if arm in GATED and not ok:
            breached.append(arm)
    if breached:
        print("obs_gate: compiled-in telemetry exceeds %.2fx and %.0f ns "
              "over the compiled-out build on: %s" %
              (GATE_RATIO, GATE_NS, ", ".join(breached)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
