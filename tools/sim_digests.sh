#!/usr/bin/env bash
# Checks that every benchmark workload still simulates what it did.
#
# Usage: tools/sim_digests.sh [--update]
#
# `tools/sim_digests.txt` holds one `<workload> <sim_digest>` line per
# workload of `benchmark/`: the digest that
# `s2g-benchmark child rep --workload <workload> --mode counted --seed 1
# --scale 1` prints. The digest hashes the simulator's statistics, every
# component's counters and what the sink received, so any change to what
# a run simulates changes it. This script builds the benchmark, runs each
# workload once (about a second each), prints one line per workload with
# the run's simulator event count (the `events=` field of the same line)
# and exits 1 if any digest differs from the file.
#
# A change that alters simulated behaviour on purpose declares it by
# running `tools/sim_digests.sh --update`, which rewrites the file with the
# digests it printed, and committing the edit.
set -euo pipefail

update=false
case "${1:-}" in
--update) update=true ;;
"") ;;
*)
    echo "usage: tools/sim_digests.sh [--update]" >&2
    exit 2
    ;;
esac

root=$(cd "$(dirname "$0")/.." && pwd)
pinned="$root/tools/sim_digests.txt"
cargo build --release --quiet --manifest-path "$root/benchmark/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$root/benchmark/target}/release/s2g-benchmark"

status=0
fresh=""
while read -r workload want; do
    result=$("$bin" child rep --workload "$workload" --mode counted --seed 1 --scale 1 |
        grep '^RESULT ' || true)
    got=$(sed -n 's/^RESULT digest=\([0-9a-f]*\).*/\1/p' <<<"$result")
    events=$(sed -n 's/.* events=\([0-9]*\).*/\1/p' <<<"$result")
    fresh+="$workload $got"$'\n'
    if [[ "$got" == "$want" ]]; then
        echo "same     $workload $got events=$events"
    else
        echo "DIFFERS  $workload: pinned $want, now ${got:-nothing} events=$events"
        status=1
    fi
done <"$pinned"

if $update; then
    printf '%s' "$fresh" >"$pinned"
    echo "rewrote $pinned"
    exit 0
fi
exit $status
