#!/usr/bin/env python3
"""Fold a Chrome trace into the per-layer self-time table.

Usage: python3 factbench/fold_trace.py TRACE.json [--rounds N]

Reads complete ("ph": "X") events, as factbench's traced run and
`factc --trace-out` write them. A span's self time is its duration minus
the part of it that its child spans (spans on the same thread that start
and end inside it) cover. Spans are named <module>.<call>; the table sums
self time per call and per module and gives each module's share of the
total. With --rounds, times are divided by the number of replay rounds the
trace holds, so they read per round.
"""

import argparse
import json
import sys
from collections import defaultdict


def fold(events):
    """Returns {span name: {"calls", "total_us", "self_us"}}."""
    by_tid = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            by_tid[e.get("tid", 0)].append(e)
    out = defaultdict(lambda: {"calls": 0, "total_us": 0.0, "self_us": 0.0})
    for spans in by_tid.values():
        # Parents before children: earlier start first, longer first on ties.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [event, time covered by its direct children]
        for e in spans:
            while stack and e["ts"] >= stack[-1][0]["ts"] + stack[-1][0]["dur"]:
                done, covered = stack.pop()
                out[done["name"]]["self_us"] += done["dur"] - covered
            if stack:
                stack[-1][1] += e["dur"]
            stack.append([e, 0.0])
            row = out[e["name"]]
            row["calls"] += 1
            row["total_us"] += e["dur"]
        for done, covered in stack:
            out[done["name"]]["self_us"] += done["dur"] - covered
    return dict(out)


def module_of(name):
    return name.split(".", 1)[0]


def layer_table(spans, rounds=1):
    """Rows of (module, call, calls, self_ms, share), calls grouped under
    their module, modules by descending self time; then the module totals.
    Times and calls are per round."""
    total = sum(r["self_us"] for r in spans.values()) or 1.0
    modules = defaultdict(float)
    for name, r in spans.items():
        modules[module_of(name)] += r["self_us"]
    rows = []
    for mod in sorted(modules, key=lambda m: -modules[m]):
        for name in sorted(n for n in spans if module_of(n) == mod):
            r = spans[name]
            rows.append((mod, name, r["calls"] / rounds,
                         r["self_us"] / 1000.0 / rounds, r["self_us"] / total))
    shares = {m: modules[m] / total for m in modules}
    return rows, shares


def render(spans, rounds=1):
    rows, shares = layer_table(spans, rounds)
    lines = ["%-30s %10s %12s %8s" % ("span (per round)", "calls", "self ms",
                                       "share")]
    for _, name, calls, self_ms, share in rows:
        lines.append("%-30s %10.1f %12.3f %7.1f%%" % (name, calls, self_ms,
                                                      100.0 * share))
    lines.append("%-30s %10s %12s %8s" % ("layer", "", "", "share"))
    for mod in sorted(shares, key=lambda m: -shares[m]):
        lines.append("%-30s %10s %12s %7.1f%%" % (mod, "", "",
                                                  100.0 * shares[mod]))
    return "\n".join(lines)


def load(path):
    with open(path) as f:
        return json.load(f)["traceEvents"]


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("trace")
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args(argv)
    print(render(fold(load(args.trace)), max(1, args.rounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
