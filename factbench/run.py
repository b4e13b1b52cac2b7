#!/usr/bin/env python3
"""fact-bench: build the optimizer from source, run one workload, and print
every metric with its unit plus the correctness verdict.

Usage (from the repository root):
  python3 factbench/run.py --workload <t2-loops|t2-branches|generated|factd-mix>
                           --seed <n> --seconds <s> --trace <0|1>

--trace 0 times the workload with tracing off and prints the end-to-end
metrics; --trace 1 runs the separate traced replay, prints the per-layer
self-time table (fold_trace.py) and the per-layer metrics. The last stdout
line is always one JSON object with exactly the keys correct, attempted,
failed and metrics. Build output goes to stderr. The build tree, traces and
per-run result files live under $CARGO_TARGET_DIR (default .bench_build).
See factbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import fold_trace  # noqa: E402

# Per-layer time metrics: the replay spans whose self time each one sums.
SPAN_METRICS = {
    "sim.profile_ms": ["sim.profile_function"],
    "sim.equiv_ms": ["sim.equivalent_on_trace"],
    "sim.trace_ms": ["sim.generate_trace"],
    "sched.schedule_ms": ["sched.schedule"],
    "stg.markov_ms": ["stg.state_probabilities"],
    "power.estimate_ms": ["power.estimate_power",
                          "power.estimate_power_scaled"],
    "xform.find_ms": ["xform.find_all"],
    "xform.apply_ms": ["xform.apply"],
    "verify.ir_ms": ["verify.verify_function", "verify.undefined_reads"],
    "ir.hash_ms": ["ir.structural_hash"],
    "opt.partition_ms": ["opt.partition_stg"],
}


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the factbench binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # Configure until a configure has produced the build system; after that
    # `cmake --build` re-runs it by itself whenever a CMakeLists.txt changes.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "factbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "factbench")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "factbench")
    binary = build(build_dir)

    # Relative to ROOT, so the factd unix socket path stays short.
    out_dir = os.path.relpath(os.path.join(build_dir, "run"), ROOT)
    os.makedirs(os.path.join(ROOT, out_dir), exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", out_dir],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("factbench exited with %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])
    metrics = raw["metrics"]

    if args.trace:
        trace_path = os.path.join(ROOT, raw["trace_file"])
        rounds = max(1, int(raw["replay_rounds"]))
        spans = fold_trace.fold(fold_trace.load(trace_path))
        print(fold_trace.render(spans, rounds))
        for name, span_names in SPAN_METRICS.items():
            self_us = sum(spans[s]["self_us"] for s in span_names if s in spans)
            metrics[name] = {"value": self_us / 1000.0 / rounds, "unit": "ms"}

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("metrics not produced: " + ", ".join(missing))
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }

    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, host=raw.get("host"), notes=lines[:-1])
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json" %
                           (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
