#!/usr/bin/env bash
# Checks that every crate is exactly its pinned size.
#
# Usage: tools/code_size.sh [--update]
#
# `tools/code_size.txt` holds one `<crate> <code lines> <pub items>` line
# per crate: the two columns `s2g-lint` prints for it in the table that
# ends its report (code lines outside comments and `#[cfg(test)]` code,
# and `pub` items). This script builds `s2g-lint`, scans the workspace,
# prints one line per crate and exits 1 if any crate has more or fewer
# code lines or `pub` items than its pin, is not pinned at all, or is
# pinned but gone. A shrink fails too, so that what a change removed
# cannot grow back unnoticed by a later one.
#
# A change that resizes a crate declares it by running
# `tools/code_size.sh --update`, which rewrites the file with the sizes it
# printed, and committing the edit.
set -euo pipefail

update=false
case "${1:-}" in
--update) update=true ;;
"") ;;
*)
    echo "usage: tools/code_size.sh [--update]" >&2
    exit 2
    ;;
esac

root=$(cd "$(dirname "$0")/.." && pwd)
pinned="$root/tools/code_size.txt"
if [[ ! -f "$pinned" ]]; then
    $update || { echo "no $pinned: run tools/code_size.sh --update" >&2; exit 2; }
    : >"$pinned"
fi
cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p s2g-analyze --bin s2g-lint
bin="${CARGO_TARGET_DIR:-$root/target}/release/s2g-lint"

# The rows between the table's header and the summary line:
# `<crate> <files> <code lines> <pub items>`.
fresh=$("$bin" "$root" | sed -n '/^crate  *files  *code lines  *pub items$/,/^s2g-lint: /p' |
    sed '1d;$d' | awk '{ print $1, $3, $4 }')
if [[ -z "$fresh" ]]; then
    echo "no size table in the s2g-lint report" >&2
    exit 2
fi

status=0
while read -r krate lines items; do
    pin=$(awk -v k="$krate" '$1 == k { print $2, $3 }' "$pinned")
    if [[ -z "$pin" ]]; then
        echo "NEW      $krate: $lines code lines, $items pub items, not pinned"
        status=1
        continue
    fi
    read -r pin_lines pin_items <<<"$pin"
    if ((lines > pin_lines || items > pin_items)); then
        echo "GREW     $krate: pinned $pin_lines/$pin_items, now $lines/$items (code lines/pub items)"
        status=1
    elif ((lines < pin_lines || items < pin_items)); then
        echo "SHRANK   $krate: pinned $pin_lines/$pin_items, now $lines/$items (code lines/pub items)"
        status=1
    else
        echo "same     $krate $lines/$items"
    fi
done <<<"$fresh"
while read -r krate _; do
    if ! awk -v k="$krate" '$1 == k { found = 1 } END { exit !found }' <<<"$fresh"; then
        echo "GONE     $krate: pinned, but not in the s2g-lint report"
        status=1
    fi
done <"$pinned"

if $update; then
    printf '%s\n' "$fresh" >"$pinned"
    echo "rewrote $pinned"
    exit 0
fi
if ((status != 0)); then
    echo "sizes differ from the pins: run tools/code_size.sh --update to pin the new sizes"
fi
exit $status
