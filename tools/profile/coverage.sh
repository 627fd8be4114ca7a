#!/usr/bin/env bash
# Lists the workspace functions that the figures, the examples and the
# benchmark's workloads never enter.
#
#   tools/profile/coverage.sh [--example NAME] [WORK_DIR [OPTION...]]
#
# WORK_DIR defaults to target/coverage; each OPTION is passed to
# coverage.py (`--match NAME` lists the functions whose names contain NAME,
# entered or not).
#
# Builds, with `-C instrument-coverage -C link-dead-code` (so a function
# nothing calls is still linked, and listed) into WORK_DIR/build, a target
# dir of its own:
#   - the `figures` binary, run as `figures --fig all` at the paper's scale
#     (from WORK_DIR/run, where it writes its CSVs);
#   - every example, each run once;
#   - the benchmark's `s2g-benchmark`, run as `child rep --seed 1 --scale 50` on each
#     workload of tools/sim_digests.txt.
# Every process writes its raw profile to WORK_DIR/prof
# (LLVM_PROFILE_FILE=WORK_DIR/prof/%p-%m.profraw), and coverage.py reads
# them. This script prints the number of workspace functions linked and
# never entered, and what each OPTION asks for; WORK_DIR/coverage.txt also
# lists every function never entered. With --example NAME only that
# example is built and run.
#
# Needs python3 and binutils (c++filt), like coverage.py.
set -euo pipefail
cd "$(dirname "$0")/../.."
only=""
if [[ "${1:-}" == "--example" ]]; then
  only=${2:?"--example needs a name"}
  shift 2
fi
work="${1:-target/coverage}"
shift || true
mkdir -p "$work/prof" "$work/run"
rm -f "$work"/prof/*.profraw
work=$(cd "$work" && pwd)

export RUSTFLAGS="-C instrument-coverage -C link-dead-code"
export LLVM_PROFILE_FILE="$work/prof/%p-%m.profraw"
build="$work/build"
if [[ -n "$only" ]]; then
  cargo build --release --quiet --example "$only" --target-dir "$build"
  "$build/release/examples/$only" > /dev/null
else
  cargo build --release --quiet -p s2g-bench --bin figures --target-dir "$build"
  cargo build --release --quiet -p stream2gym --examples --target-dir "$build"
  cargo build --release --quiet --manifest-path benchmark/Cargo.toml --target-dir "$build"
  (cd "$work/run" && "$build/release/figures" --fig all > /dev/null 2>&1)
  for f in examples/*.rs; do
    "$build/release/examples/$(basename "$f" .rs)" > /dev/null
  done
  while read -r workload _; do
    "$build/release/s2g-benchmark" child rep --workload "$workload" --seed 1 --scale 50 > /dev/null
  done < tools/sim_digests.txt
fi
python3 tools/profile/coverage.py "$work/prof" "$@" > "$work/coverage.txt"
python3 tools/profile/coverage.py "$work/prof" --quiet "$@"
