#!/usr/bin/env sh
# Static-analysis driver for the dcdo-tidy checks (DESIGN.md §12).
#
# Runs the seven repo-specific checks over src/ against the committed
# suppression baseline (tools/dcdo-tidy/baseline.txt) and fails on any
# unsuppressed finding — this is what the CI `analyze` job gates on.
#
# The engine is dcdo-analyze, the dependency-free lexical analyzer built
# under -DDCDO_ANALYSIS=ON, so analysis works on every machine. Its fixture
# suite lives under tests/analysis/fixtures/.
#
# Usage:
#   scripts/analyze.sh                    # analyze src/, gate on baseline
#   scripts/analyze.sh --update-baseline  # rewrite the baseline from HEAD
#   BUILD_DIR=build-foo scripts/analyze.sh
set -u

cd "$(dirname "$0")/.." || exit 1

BUILD_DIR=${BUILD_DIR:-build}
BASELINE=tools/dcdo-tidy/baseline.txt
UPDATE_BASELINE=0
for arg in "$@"; do
  case "$arg" in
    --update-baseline) UPDATE_BASELINE=1 ;;
    *) echo "usage: $0 [--update-baseline]" >&2; exit 2 ;;
  esac
done

# --- Ensure a configured build with the analysis tooling + compile db ----
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  echo "analyze: configuring $BUILD_DIR"
  cmake -B "$BUILD_DIR" -S . -DDCDO_ANALYSIS=ON >/dev/null \
    || { echo "analyze: cmake configure failed" >&2; exit 1; }
fi
if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
  # Always exported by the top-level CMakeLists; regenerate if missing.
  cmake -B "$BUILD_DIR" -S . >/dev/null \
    || { echo "analyze: cmake reconfigure failed" >&2; exit 1; }
fi

ANALYZE_SOURCES=$(find src \( -name '*.cc' -o -name '*.h' \) | sort)

# --- dcdo-analyze ---------------------------------------------------------
DCDO_ANALYZE="$BUILD_DIR/tools/dcdo-tidy/dcdo-analyze"
if [ ! -x "$DCDO_ANALYZE" ]; then
  echo "analyze: building dcdo-analyze"
  cmake --build "$BUILD_DIR" --target dcdo-analyze >/dev/null \
    || { echo "analyze: build failed" >&2; exit 1; }
fi

# src/trace/ exports wall-clock timestamps by design (Chrome trace files);
# bench/ measures real elapsed time. Everything else must use sim time.
# src/runtime/ implements the Fom machinery that replaces continuation
# chains, so the continuation-chain check stays quiet there.
set -- --allow-wallclock=src/trace/ --allow-wallclock=bench/ \
       --allow-continuation=src/runtime/

if [ "$UPDATE_BASELINE" = 1 ]; then
  # shellcheck disable=SC2086
  "$DCDO_ANALYZE" "$@" --write-baseline="$BASELINE" $ANALYZE_SOURCES
  exit $?
fi

# shellcheck disable=SC2086
"$DCDO_ANALYZE" "$@" --baseline="$BASELINE" $ANALYZE_SOURCES
STATUS=$?
if [ "$STATUS" -ne 0 ]; then
  echo "analyze: unsuppressed findings — fix them, add a NOLINT(check) with" >&2
  echo "analyze: a reason, or (transitionally) scripts/analyze.sh --update-baseline" >&2
fi
exit "$STATUS"
