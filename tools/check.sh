#!/usr/bin/env sh
# Robustness gate: build the whole tree in Release, as fact-bench builds
# src/ and tools/, and require a build free of compiler warnings, then build the whole tree under
# a sanitizer and run the full test suite (including the fault-injection
# and verifier tests). Usage:
#
#   [FACT_SANITIZE=address|thread] tools/check.sh [build-dir]
#
# FACT_SANITIZE selects the sanitizer:
#   address (default) - AddressSanitizer + UBSan over the full suite
#                       (UBSan errors are fatal: the tree is built with
#                       -fno-sanitize-recover=undefined), then a sanitized
#                       factc emitting the STG and the Verilog of each
#                       Table 2 workload.
#   thread            - ThreadSanitizer; runs the full suite (the engine
#                       tests exercise multi-threaded candidate evaluation
#                       via EngineOptions::jobs > 1, and the WorkerPool
#                       tests hammer the pool handoff directly), then
#                       re-runs the parallel engine + pool + service tests,
#                       the four-thread verifier test, the compile- and
#                       verify-reuse oracles (one parent's state read from
#                       four threads at once), the copy-on-write sharing
#                       test (one parent's candidates applied from four
#                       threads) and the engine's reusing gate at jobs = 2
#                       with
#                       TSAN_OPTIONS=halt_on_error=1 so any data race in
#                       the evaluation waves, the verifier or the factd
#                       service fails loudly, and finally drives a
#                       sanitized factd over a unix socket with
#                       concurrent factcli clients and requires a clean
#                       daemon exit.
#
# Both legs then run the sanitized `factc --method all --emit-stg` on the
# six Table 2 workloads at --jobs 1 and at --jobs 4 and require identical
# stdout, STG files and --metrics-out search counts, and `factc --method
# all` on the same six under both objectives at --validate full (candidates
# measured on their full STG) and --validate fast (on the scheduler's chain
# summary) and require identical reports.
#
# Each sanitized tree lives in its own build directory (default
# build-asan / build-tsan) so the regular build stays untouched; the
# Release tree lives beside it, in <build-dir>-release.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
sanitize=${FACT_SANITIZE:-address}

case "$sanitize" in
  address|ON|on)
    build_dir=${1:-"$repo_root/build-asan"}
    cmake_flag=address
    ;;
  thread)
    build_dir=${1:-"$repo_root/build-tsan"}
    cmake_flag=thread
    ;;
  *)
    echo "check.sh: unknown FACT_SANITIZE='$sanitize' (want address or thread)" >&2
    exit 2
    ;;
esac

# Warning-free Release build of the whole tree (every library under src/,
# the tools, the tests, the benches and the examples), compiled from clean
# (a warning prints only when its file compiles).
release_dir="$build_dir-release"
release_log="$release_dir/build.log"
cmake -S "$repo_root" -B "$release_dir" -DCMAKE_BUILD_TYPE=Release
cmake --build "$release_dir" --target clean
cmake --build "$release_dir" -j "$(nproc)" --target all \
  >"$release_log" 2>&1 \
  || { cat "$release_log" >&2; echo "check.sh: Release build failed" >&2; exit 1; }
if grep 'warning:' "$release_log" >&2; then
  echo "check.sh: the Release build printed warnings" >&2
  exit 1
fi

cmake -S "$repo_root" -B "$build_dir" -DFACT_SANITIZE="$cmake_flag"
cmake --build "$build_dir" -j "$(nproc)"
ctest --test-dir "$build_dir" -j "$(nproc)" --output-on-failure

# Jobs invariance end to end: scratch state of the interpreter or the
# scheduler that leaks from one worker's candidate into another's would make
# the sanitized --jobs 4 reports or final STGs differ from --jobs 1. Both
# runs write the STG to one path (so the reports' "wrote" lines match) and
# it is moved aside after each. So must the search counts: the "search"
# telemetry and the registry's fact_search_*/fact_eval_* counters.
jobs_dir="$build_dir/check-jobs"
mkdir -p "$jobs_dir"
for w in GCD FIR TEST2 SINTRAN IGF PPS; do
  for jobs in 1 4; do
    "$build_dir/tools/factc" --benchmark "$w" --method all --jobs "$jobs" \
      --emit-stg "$jobs_dir/$w.dot" --metrics-out "$jobs_dir/$w.$jobs.json" \
      >"$jobs_dir/$w.$jobs.txt" \
      || { echo "check.sh: sanitized factc --jobs $jobs failed on $w" >&2; exit 1; }
    mv "$jobs_dir/$w.dot" "$jobs_dir/$w.$jobs.dot"
  done
  cmp "$jobs_dir/$w.1.txt" "$jobs_dir/$w.4.txt" \
    || { echo "check.sh: factc --jobs 4 report differs from --jobs 1 on $w" >&2; exit 1; }
  cmp "$jobs_dir/$w.1.dot" "$jobs_dir/$w.4.dot" \
    || { echo "check.sh: factc --jobs 4 STG differs from --jobs 1 on $w" >&2; exit 1; }
  python3 -c 'import json, sys
one, four = ((d["search"], {k: v for k, v in d["registry"].items()
              if k.startswith(("fact_search_", "fact_eval_"))})
             for d in (json.load(open(path)) for path in sys.argv[1:]))
sys.exit(not (isinstance(one[0], dict) and one[1] and one == four))' \
    "$jobs_dir/$w.1.json" "$jobs_dir/$w.4.json" \
    || { echo "check.sh: factc --jobs 4 search counts differ from --jobs 1 on $w" >&2; exit 1; }
done
rm -rf "$jobs_dir"

# One score either way: with --validate full a candidate is measured on its
# full STG, with the default --validate fast on the chain the scheduler
# summarizes. Both must give the same report.
summary_dir="$build_dir/check-summary"
mkdir -p "$summary_dir"
for w in GCD FIR TEST2 SINTRAN IGF PPS; do
  for objective in throughput power; do
    for validate in fast full; do
      "$build_dir/tools/factc" --benchmark "$w" --objective "$objective" \
        --method all --validate "$validate" \
        >"$summary_dir/$w.$objective.$validate.txt" \
        || { echo "check.sh: sanitized factc --validate $validate failed on $w ($objective)" >&2; exit 1; }
    done
    cmp "$summary_dir/$w.$objective.fast.txt" "$summary_dir/$w.$objective.full.txt" \
      || { echo "check.sh: --validate full report differs from --validate fast on $w ($objective)" >&2; exit 1; }
  done
done
rm -rf "$summary_dir"

if [ "$cmake_flag" = address ]; then
  # End-to-end STG lifetime: factc renders the final STG and its Verilog
  # after optimize() has destroyed the fragment cache the STG's ops were
  # emitted from, so an op viewing freed memory fails here.
  out_dir="$build_dir/check-emit"
  mkdir -p "$out_dir"
  for w in GCD FIR TEST2 SINTRAN IGF PPS; do
    "$build_dir/tools/factc" --benchmark "$w" --method fact --quiet \
      --emit-stg "$out_dir/$w.dot" --emit-verilog "$out_dir/$w.v" >/dev/null \
      || { echo "check.sh: sanitized factc failed on $w" >&2; exit 1; }
  done
  rm -rf "$out_dir"
fi

if [ "$cmake_flag" = thread ]; then
  # Focused multi-threaded pass: the tests that run the engine, the worker
  # pool, the shared schedule-fragment cache, and the factd service/server
  # with real thread contention, with races promoted to hard failures.
  TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
    ctest --test-dir "$build_dir" --output-on-failure \
      -R 'WorkerPool|JobsInvariant|JobsDeterminism|EvalCache|FusedFragment|SharedScheduler|Gate3|Engine\.EnginesSharing|Service\.|Server\.|FactdE2E|Obs\.|VerifyOracle\.SharedCandidates|LaneOracle|CompileReuse\.|VerifyReuse\.|Engine\.GateReusing|CowSharing\.|CheckpointOracle'

  # Server integration under TSan: a sanitized factd on a unix socket,
  # hammered by concurrent factcli clients, must exit cleanly (TSan makes
  # any reported race a non-zero daemon exit).
  sock="$build_dir/factd-tsan.sock"
  rm -f "$sock"
  export TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}"
  "$build_dir/tools/factd" --unix "$sock" --workers 4 --batch-max 4 --quiet &
  factd_pid=$!
  for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.1
  done
  [ -S "$sock" ] || { echo "check.sh: factd did not come up" >&2; exit 1; }
  client_pids=""
  for w in GCD IGF PPS; do
    "$build_dir/tools/factcli" --unix "$sock" --benchmark "$w" --quiet \
      --session "tsan-$w" >/dev/null &
    client_pids="$client_pids $!"
  done
  for p in $client_pids; do wait "$p"; done
  # Warm re-optimize through the sessions plus a status probe.
  for w in GCD IGF PPS; do
    "$build_dir/tools/factcli" --unix "$sock" --type optimize \
      --session "tsan-$w" --quiet >/dev/null
  done
  "$build_dir/tools/factcli" --unix "$sock" --status >/dev/null
  # The observability endpoints under the same contention: the stats
  # inventory and a Prometheus scrape that must carry live counters,
  # among them the lockstep groups of the workers' trace passes: PPS runs
  # in lockstep, so concurrent workers ran on their per-thread lane
  # storage.
  "$build_dir/tools/factcli" --unix "$sock" --stats >/dev/null
  scrape=$("$build_dir/tools/factcli" --unix "$sock" --metrics)
  for live in fact_serve_completed_total fact_sim_lane_groups_total; do
    printf '%s\n' "$scrape" | grep -q "^$live [1-9]" \
      || { echo "check.sh: factd metrics scrape missing live $live" >&2; exit 1; }
  done
  "$build_dir/tools/factcli" --unix "$sock" --shutdown >/dev/null
  wait "$factd_pid"
  rm -f "$sock"

  # Span tracing under TSan: a traced sanitized run with parallel
  # evaluation must produce well-formed Chrome trace JSON that carries the
  # candidate gates' spans (apply, verify, hash) from the workers and the
  # main thread's neighbourhood generation and wave reduction spans (find,
  # reduce).
  trace_json="$build_dir/factc-tsan-trace.json"
  "$build_dir/tools/factc" --benchmark GCD --jobs 4 --quiet \
    --trace-out "$trace_json" >/dev/null
  grep -q '^{"traceEvents":\[{' "$trace_json" \
    || { echo "check.sh: factc --trace-out produced malformed trace JSON" >&2; exit 1; }
  for span in engine.optimize dfg_build emit apply verify hash find reduce; do
    grep -q "\"name\":\"$span\"" "$trace_json" \
      || { echo "check.sh: trace JSON is missing the $span span" >&2; exit 1; }
  done
  rm -f "$trace_json"
fi

echo "check.sh: sanitized suite ($cmake_flag) passed"
