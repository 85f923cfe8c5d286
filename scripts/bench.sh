#!/usr/bin/env sh
# Benchmark driver: builds the nocheck preset (invariant checking compiled
# out, so the numbers measure the runtime itself) and runs every bench
# binary, merging results into the regression-tracking JSON file.
#
# Usage:
#   scripts/bench.sh                 # full run, updates BENCH_dcdo.json
#   scripts/bench.sh --smoke         # quick CI pass (tiny min_time, no JSON
#                                    # update unless DCDO_BENCH_JSON is set)
#   scripts/bench.sh [--smoke] REGEX # only benches whose name matches REGEX
#   scripts/bench.sh --compare OLD.json NEW.json
#                                    # flag Wall_* regressions > 20% and any
#                                    # SimTime_* drift between two results
#                                    # files; exits 1 if anything is flagged.
#                                    # Entries matching the expected-drift
#                                    # allowlist regex (DCDO_BENCH_DRIFT_ALLOWLIST,
#                                    # default: E13 entries at fetch
#                                    # concurrency > 1, whose whole point is a
#                                    # different simulated time) are reported
#                                    # but never gate
#   scripts/bench.sh --trace-overhead BASE.json TRACED.json
#                                    # compare a DCDO_TRACING=OFF run against
#                                    # a tracing-compiled-but-disabled run:
#                                    # report Wall_* overhead > 5% and any
#                                    # SimTime_* drift. Report-only — always
#                                    # exits 0 when both files are readable
#                                    # (wall numbers are too host-noisy to
#                                    # gate CI on a 5% band)
#
# Environment:
#   DCDO_BENCH_JSON    output file (default: BENCH_dcdo.json at the repo root
#                      for full runs; unset for --smoke so CI runs do not
#                      produce machine-dependent diffs)
#   DCDO_BENCH_PRESET  configure/build preset to run benches from (default:
#                      nocheck; use notrace for the tracing-overhead baseline)
set -u

cd "$(dirname "$0")/.." || exit 1

if [ "${1:-}" = "--compare" ] || [ "${1:-}" = "--trace-overhead" ]; then
  MODE=$1
  OLD_JSON=${2:-}
  NEW_JSON=${3:-}
  if [ -z "$OLD_JSON" ] || [ -z "$NEW_JSON" ]; then
    echo "usage: $0 $MODE OLD.json NEW.json" >&2
    exit 2
  fi
  exec python3 - "$MODE" "$OLD_JSON" "$NEW_JSON" <<'PYEOF'
import json
import os
import re
import sys

# --compare: Wall_* numbers are host time: noisy, so only a > 20% slowdown is
# flagged (exit 1). SimTime_* numbers are simulated time: deterministic by
# design, so ANY drift is flagged — an unintended change to the cost model or
# event ordering.
#
# --trace-overhead: OLD is a DCDO_TRACING=OFF build, NEW has tracing compiled
# in but no context installed. The acceptance band is 5% on Wall_*; SimTime_*
# must not move at all (the tracing layer schedules no events). Report-only:
# wall numbers on shared CI hosts are too noisy to hard-gate a 5% band, so
# overhead is printed but never fails the run.
mode = sys.argv.pop(1)
WALL_REGRESSION_RATIO = 1.05 if mode == "--trace-overhead" else 1.20
REPORT_ONLY = mode == "--trace-overhead"
# DCDO_BENCH_WALL_REPORT_ONLY=1 keeps the hard gate on SimTime_* drift but
# demotes Wall_* regressions to a printed report — what CI wants on shared
# runners, where simulated time is deterministic but host time is noise.
WALL_REPORT_ONLY = os.environ.get("DCDO_BENCH_WALL_REPORT_ONLY") == "1"

# Per-entry expected-drift allowlist: SimTime_* entries whose value is
# SUPPOSED to change between baselines (a bench that sweeps a modelled
# hardware knob). Matching entries are reported for visibility but never
# gate. The default exempts exactly the E13 parallel-acquisition entries
# whose last argument (fetch concurrency) is > 1, the E14 naming-scale
# entries whose last argument (shard count) is > 1, and the E16 open-loop
# entries that opt into sessions or batching (their numbers move whenever
# admission or batching policy is tuned). The concurrency-1 / shard-1 /
# E16 OpenLoopLegacy entries stay under the zero-drift gate — they must
# stay byte-identical to the sequential / monolithic / dedup-window
# calibration.
DRIFT_ALLOWLIST = re.compile(
    os.environ.get(
        "DCDO_BENCH_DRIFT_ALLOWLIST",
        r"^SimTime_E13_.*/(4|8|16)/|^SimTime_E14_.*/(2|4|8|16)/iterations"
        r"|^SimTime_E16_(OpenLoopSessions|OpenLoopBatched|SlowServer|"
        r"Incast|RetryStorm)/",
    )
)

old_path, new_path = sys.argv[1], sys.argv[2]
try:
    with open(old_path) as f:
        old = json.load(f).get("benchmarks", {})
    with open(new_path) as f:
        new = json.load(f).get("benchmarks", {})
except (OSError, json.JSONDecodeError) as err:
    print(f"bench-compare: cannot read results: {err}", file=sys.stderr)
    sys.exit(2)

common = sorted(set(old) & set(new))
if not common:
    print("bench-compare: no common benchmark entries; nothing to compare")
    sys.exit(0)

wall_flagged = []
sim_flagged = []
allowed = []
compared = 0
for name in common:
    old_ns = old[name].get("real_ns")
    new_ns = new[name].get("real_ns")
    if not isinstance(old_ns, (int, float)) or not isinstance(new_ns, (int, float)):
        continue
    base = name.split("/")[0]
    if base.startswith("Wall_"):
        compared += 1
        if old_ns > 0 and new_ns / old_ns > WALL_REGRESSION_RATIO:
            label = (
                "WALL OVERHEAD  "
                if REPORT_ONLY or WALL_REPORT_ONLY
                else "WALL REGRESSION"
            )
            wall_flagged.append(
                f"  {label} {name}: {old_ns:g} ns -> {new_ns:g} ns "
                f"({new_ns / old_ns:.2f}x)"
            )
    elif base.startswith("SimTime_"):
        compared += 1
        if old_ns != new_ns:
            if DRIFT_ALLOWLIST.search(name):
                allowed.append(
                    f"  expected drift  {name}: {old_ns:g} ns -> {new_ns:g} ns"
                )
                continue
            sim_flagged.append(
                f"  SIMTIME DRIFT   {name}: {old_ns:g} ns -> {new_ns:g} ns"
            )

print(f"bench-compare: {compared} entries compared ({old_path} -> {new_path})")
if allowed:
    print(f"bench-compare: {len(allowed)} allowlisted entries drifted (expected):")
    print("\n".join(allowed))
if wall_flagged or sim_flagged:
    print("\n".join(wall_flagged + sim_flagged))
    if REPORT_ONLY:
        print(
            f"bench-compare: tracing overhead above "
            f"{(WALL_REGRESSION_RATIO - 1) * 100:.0f}% on the entries above "
            "(report-only; not failing the run)"
        )
        sys.exit(0)
    if sim_flagged or not WALL_REPORT_ONLY:
        sys.exit(1)
    print(
        "bench-compare: Wall_* slowdowns above are report-only "
        "(DCDO_BENCH_WALL_REPORT_ONLY=1); zero SimTime_* drift"
    )
    sys.exit(0)
threshold = f"{(WALL_REGRESSION_RATIO - 1) * 100:.0f}%"
print(f"bench-compare: no Wall_* slowdowns > {threshold}, no SimTime_* drift")
PYEOF
fi

SMOKE=0
FILTER=""
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    --*) echo "usage: $0 [--smoke|--compare OLD NEW] [benchmark-filter-regex]" >&2; exit 2 ;;
    *) FILTER="$arg" ;;
  esac
done

# Build (RelWithDebInfo, DCDO_CHECKING=OFF; preset overridable for the
# tracing-overhead baseline).
PRESET=${DCDO_BENCH_PRESET:-nocheck}
BUILD_DIR="build-$PRESET"
cmake --preset "$PRESET" >/dev/null || exit 1
cmake --build "$BUILD_DIR" -j "$(nproc)" || exit 1

if [ "$SMOKE" = 1 ]; then
  # Smoke mode: prove every bench still runs, not collect stable numbers.
  # DCDO_BENCH_SMOKE keeps the heavyweight registrations off (E14's
  # million-object sweep registers only when it is unset), so CI exercises
  # the same code paths at miniature scale.
  EXTRA_ARGS="--benchmark_min_time=0.01"
  DCDO_BENCH_SMOKE=1
  export DCDO_BENCH_SMOKE
else
  EXTRA_ARGS=""
  DCDO_BENCH_JSON=${DCDO_BENCH_JSON:-$PWD/BENCH_dcdo.json}
  export DCDO_BENCH_JSON
  echo "bench: recording results into $DCDO_BENCH_JSON"
fi
if [ -n "$FILTER" ]; then
  EXTRA_ARGS="$EXTRA_ARGS --benchmark_filter=$FILTER"
fi

FAILED=0
for bench in "$BUILD_DIR"/bench/bench_*; do
  [ -f "$bench" ] && [ -x "$bench" ] || continue
  echo "== $(basename "$bench") =="
  # shellcheck disable=SC2086
  "$bench" $EXTRA_ARGS || FAILED=1
done

exit "$FAILED"
