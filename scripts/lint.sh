#!/usr/bin/env sh
# Lint driver: clang-format (diff mode by default, --fix to rewrite) and
# clang-tidy over the source tree. Degrades gracefully: a missing tool is
# skipped with a notice rather than failing, so the script is usable both on
# dev boxes without LLVM and in CI (which installs both).
#
# Usage:
#   scripts/lint.sh               # check formatting + run clang-tidy
#   scripts/lint.sh --fix         # rewrite formatting in place
#   scripts/lint.sh --format-only # skip clang-tidy (fast pre-commit check)
set -u

cd "$(dirname "$0")/.." || exit 1

FIX=0
FORMAT_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --fix) FIX=1 ;;
    --format-only) FORMAT_ONLY=1 ;;
    *) echo "usage: $0 [--fix] [--format-only]" >&2; exit 2 ;;
  esac
done

SOURCES=$(find src tests bench examples \
  \( -name '*.cc' -o -name '*.cpp' -o -name '*.h' \) | sort)
FAILED=0

# --- clang-format ---
if command -v clang-format >/dev/null 2>&1; then
  if [ "$FIX" = 1 ]; then
    # shellcheck disable=SC2086
    clang-format -i $SOURCES
    echo "lint: formatting rewritten in place"
  else
    UNFORMATTED=""
    for f in $SOURCES; do
      if ! clang-format --dry-run -Werror "$f" >/dev/null 2>&1; then
        UNFORMATTED="$UNFORMATTED $f"
      fi
    done
    if [ -n "$UNFORMATTED" ]; then
      echo "lint: files need formatting (run scripts/lint.sh --fix):"
      for f in $UNFORMATTED; do echo "  $f"; done
      FAILED=1
    else
      echo "lint: formatting clean"
    fi
  fi
else
  echo "lint: clang-format not found; skipping format check"
fi

[ "$FORMAT_ONLY" = 1 ] && exit "$FAILED"

# --- clang-tidy (shares the compile database with scripts/analyze.sh) ---
# The top-level CMakeLists always exports compile_commands.json
# (CMAKE_EXPORT_COMPILE_COMMANDS); lint and analysis read the same one, so
# a single configure serves both.
if command -v clang-tidy >/dev/null 2>&1; then
  BUILD_DIR=${BUILD_DIR:-build}
  if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    echo "lint: generating compile database in $BUILD_DIR"
    cmake -B "$BUILD_DIR" -S . >/dev/null \
      || { echo "lint: cmake configure failed" >&2; exit 1; }
  fi
  # The repo-specific dcdo-* checks run in scripts/analyze.sh.
  TIDY_SOURCES=$(find src \( -name '*.cc' -o -name '*.cpp' \) | sort)
  # shellcheck disable=SC2086
  if ! clang-tidy -p "$BUILD_DIR" --quiet $TIDY_SOURCES; then
    FAILED=1
  fi
else
  echo "lint: clang-tidy not found; skipping static analysis"
fi

exit "$FAILED"
