#!/usr/bin/env bash
# Checks that the profilers in this directory still work end to end:
#   1. builds sampler.so and allocs.so with gcc, and the partition_failure
#      example with frame pointers and line tables into a target dir of its
#      own;
#   2. runs the example under sampler.so four times (≈ 0.4 s a run, a few
#      hundred samples at a 4 ms tick), and checks that report.py gives
#      `Sim::run_until` a non-zero share;
#   3. runs it once under allocs.so (tens of thousands of samples at the
#      default one call in 16), and checks that `report.py --sites` gives
#      the allocation site `Ctx::send` a non-zero share.
#
#   tools/profile/smoke.sh [WORK_DIR]      (default: target/profile-smoke)
#
# Needs gcc, python3 and binutils (addr2line), like the profiler itself.
set -euo pipefail
cd "$(dirname "$0")/../.."
work="${1:-target/profile-smoke}"
mkdir -p "$work/prof"
rm -f "$work"/prof/run.* "$work"/prof/allocs.*

gcc -O2 -shared -fPIC -o "$work/sampler.so" tools/profile/sampler.c
gcc -O2 -fno-omit-frame-pointer -shared -fPIC -o "$work/allocs.so" tools/profile/allocs.c
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=1 \
  cargo build --release --quiet --example partition_failure --target-dir "$work/fp"

for _ in 1 2 3 4; do
  S2G_PROF_OUT="$work/prof/run" LD_PRELOAD="$work/sampler.so" \
    "$work/fp/release/examples/partition_failure" > /dev/null
done

python3 tools/profile/report.py "$work/prof/run" --top 5 --match Sim::run_until \
  | tee "$work/report.txt"
share=$(awk '/^inclusive share of names containing/ { m = 1; next }
             m && / Sim::run_until$/ { print $1 }' "$work/report.txt")
if awk -v s="${share:-0}" 'BEGIN { exit !(s > 0) }'; then
  echo "profile smoke: Sim::run_until in ${share} % of the samples"
else
  echo "profile smoke: no sample has Sim::run_until on its stack" >&2
  exit 1
fi

S2G_PROF_OUT="$work/prof/allocs" LD_PRELOAD="$work/allocs.so" \
  "$work/fp/release/examples/partition_failure" > /dev/null
python3 tools/profile/report.py "$work/prof/allocs" --top 5 --sites \
  | tee "$work/allocs.txt"
share=$(awk '/^sites, first frame outside/ { m = 1; next }
             m && / [^ ]*Ctx::send$/ { print $1 }' "$work/allocs.txt")
if awk -v s="${share:-0}" 'BEGIN { exit !(s > 0) }'; then
  echo "profile smoke: Ctx::send makes ${share} % of the sampled allocator calls"
else
  echo "profile smoke: no allocation sample has its site in Ctx::send" >&2
  exit 1
fi
