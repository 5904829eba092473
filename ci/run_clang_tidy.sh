#!/usr/bin/env bash
# Tree-wide clang-tidy at zero warnings.
#
# Runs clang-tidy (the curated profile in .clang-tidy) over every
# first-party translation unit in src/, tools/, bench/, and examples/
# with --warnings-as-errors=* so a single finding fails the job.
#
# Reuses an existing compilation database when the named build dir has
# one (the top-level CMakeLists exports compile_commands.json on every
# configure), so the regular `build/` dir serves tidy and compilation
# alike.  Configures only when the database is missing.
#
# Usage: ci/run_clang_tidy.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

TIDY="${CLANG_TIDY:-clang-tidy}"
if ! command -v "$TIDY" >/dev/null 2>&1; then
  echo "run_clang_tidy: $TIDY not found; install clang-tidy or set CLANG_TIDY" >&2
  exit 1
fi

BUILD_DIR="${1:-build}"
if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
  cmake -B "$BUILD_DIR" -S . \
      -DCMAKE_CXX_COMPILER="${CXX:-clang++}" \
      >/dev/null
fi

# First-party sources only: generated/third-party code (gtest, benchmark)
# lives outside these roots, and the tests are covered by the compilers'
# own -Werror builds rather than tidy.
mapfile -t sources < <(git ls-files 'src/**/*.cc' 'tools/*.cc' 'bench/*.cc' 'examples/*.cpp')
if [ "${#sources[@]}" -eq 0 ]; then
  echo "run_clang_tidy: no sources found (run from the repo root?)" >&2
  exit 1
fi

# run-clang-tidy (the parallel driver) is not always installed next to
# clang-tidy; fall back to xargs-parallel direct invocation.
jobs="$(nproc 2>/dev/null || echo 4)"
echo "run_clang_tidy: ${#sources[@]} translation units, -j${jobs}"
printf '%s\n' "${sources[@]}" | xargs -P "$jobs" -n 4 \
    "$TIDY" -p "$BUILD_DIR" --quiet --warnings-as-errors='*'

echo "run_clang_tidy: clean"
