#!/usr/bin/env bash
# Tier-1 verify: configure, build, and run the full test suite.
# Usage:
#   scripts/verify.sh [Release|Debug]   build + ctest (default: Release)
#   scripts/verify.sh --analyze         static analysis: the lint fixture
#                                       tests and qppt_lint over the tree,
#                                       then clang-tidy (when installed) on
#                                       the tidy-clean modules (src/util,
#                                       src/storage, src/dbg).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build"

if [ "${1:-}" = "--analyze" ]; then
  python3 "$ROOT/tests/lint_fixtures_test.py"
  python3 "$ROOT/scripts/analyze/qppt_lint.py"
  if command -v clang-tidy >/dev/null 2>&1; then
    cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
    clang-tidy -p "$BUILD_DIR" --quiet \
      "$ROOT"/src/util/*.cc "$ROOT"/src/storage/*.cc "$ROOT"/src/dbg/*.cc
  else
    echo "verify --analyze: clang-tidy not installed; lint checks only"
  fi
  echo "verify --analyze: OK"
  exit 0
fi

BUILD_TYPE="${1:-Release}"

cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE="$BUILD_TYPE"
cmake --build "$BUILD_DIR" -j"$(nproc)"
cd "$BUILD_DIR"
ctest --output-on-failure -j"$(nproc)"
