#!/usr/bin/env bash
# Checks that the profilers in this directory still work end to end:
#   1. builds sampler.so and live.so with gcc, and the partition_failure
#      example with frame pointers and line tables into a target dir of its
#      own;
#   2. runs the example under sampler.so four times (≈ 0.4 s a run, a few
#      hundred samples at a 4 ms tick), and checks that report.py gives
#      `Sim::run_until` a non-zero share;
#   3. profiles a copy of the example once, touches the copy as a rebuild
#      would, and checks that report.py refuses that run and names the copy;
#   4. runs it under live.so twice, the second time with S2G_LIVE_MARK at
#      the first run's peak, and checks that one of the five largest sites
#      `report.py --sites` names, over both runs' allocator calls and
#      over the live heap at the mark, is a function of this workspace (an
#      `s2g_` crate) with a non-zero share, and that `report.py --callers`
#      gives the live heap's such site a non-zero share too, though it is
#      never the innermost frame (an allocator's is).
#
#   tools/profile/smoke.sh [WORK_DIR]      (default: target/profile-smoke)
#
# Needs gcc, python3 and binutils (addr2line), like the profiler itself.
set -euo pipefail
cd "$(dirname "$0")/../.."
work="${1:-target/profile-smoke}"
mkdir -p "$work/prof"
rm -f "$work"/prof/run.* "$work"/prof/stale.* "$work"/prof/live.* "$work"/prof/live-calls.* \
  "$work"/prof/live-mark.*

gcc -O2 -shared -fPIC -o "$work/sampler.so" tools/profile/sampler.c
gcc -O2 -fno-omit-frame-pointer -shared -fPIC -o "$work/live.so" tools/profile/live.c
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

# A binary modified after its run would give every address a wrong name:
# report.py must refuse such a run. The touch dates the copy a minute ahead,
# so the check holds on a file system with coarse timestamps too.
stale="$work/stale/partition_failure"
mkdir -p "$work/stale"
cp "$work/fp/release/examples/partition_failure" "$stale"
S2G_PROF_OUT="$work/prof/stale" LD_PRELOAD="$work/sampler.so" "$stale" > /dev/null
touch -d '+1 minute' "$stale"
if python3 tools/profile/report.py "$work/prof/stale" --top 1 > /dev/null 2> "$work/stale.txt"; then
  echo "profile smoke: report.py symbolised a run against a binary modified after it" >&2
  exit 1
fi
if grep -qF "$stale" "$work/stale.txt"; then
  echo "profile smoke: report.py refuses a run whose binary changed after it"
else
  echo "profile smoke: report.py failed on a stale run without naming ${stale}:" >&2
  cat "$work/stale.txt" >&2
  exit 1
fi

example="$work/fp/release/examples/partition_failure"
peak=$(S2G_PROF_OUT="$work/prof/live" LD_PRELOAD="$work/live.so" "$example" 2>&1 >/dev/null \
  | awk '/^live: peak/ { print $3 }')
S2G_PROF_OUT="$work/prof/live" S2G_LIVE_MARK="${peak:-0}" LD_PRELOAD="$work/live.so" \
  "$example" > /dev/null

# Fails unless one of the five largest sites in PREFIX's report is a
# function of this workspace with a non-zero share of WHAT.
site_check() {
  local prefix=$1 what=$2 out="$work/$(basename "$1").txt"
  python3 tools/profile/report.py "$prefix" --top 5 --sites > "$out"
  sed -n '1p; /^sites, first frame outside/,$p' "$out"
  local hit
  hit=$(awk '/^sites, first frame outside/ { m = 1; next }
             m && / <?s2g_/ && $1 > 0 { share = $1; sub(/^[^%]*%  /, "")
                                        print $0 " has " share " %"; exit }' "$out")
  site=${hit% has *}
  if [ -n "$hit" ]; then
    echo "profile smoke: ${hit} of ${what}"
  else
    echo "profile smoke: no workspace function among the five largest sites of ${what}" >&2
    exit 1
  fi
}
site_check "$work/prof/live-calls" "the allocator calls"
site_check "$work/prof/live-mark" "the live heap at the ${peak} B peak"

# The site just found is a frame above the allocator's on every stack it
# holds, so --callers must find it there.
python3 tools/profile/report.py "$work/prof/live-mark" --top 3 --callers "$site" \
  > "$work/callers.txt"
callers=$(sed -n 's/^callers of .*: [0-9]* [a-z]*, \([0-9.]*\) %$/\1/p' "$work/callers.txt")
if awk -v s="${callers:-0}" 'BEGIN { exit !(s > 0) }'; then
  echo "profile smoke: --callers ${site} finds ${callers} % of the live heap at the mark"
else
  echo "profile smoke: --callers ${site} finds none of the live heap at the mark" >&2
  exit 1
fi
