#!/usr/bin/env bash
# Checks that no crate grew past its pinned size.
#
# Usage: tools/code_size.sh [--update]
#
# `tools/code_size.txt` holds one `<crate> <code lines> <pub items>` line
# per crate: the two columns `s2g-lint` prints for it in the table that
# ends its report (code lines outside comments and `#[cfg(test)]` code,
# and `pub` items). This script builds `s2g-lint`, scans the workspace,
# prints one line per crate and exits 1 if any crate has more code lines
# or more `pub` items than its pin, or is not pinned at all. A crate that
# shrank passes, with a hint to re-pin it.
#
# A change that grows a crate on purpose declares it by running
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
shrank=false
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
        echo "shrank   $krate: pinned $pin_lines/$pin_items, now $lines/$items"
        shrank=true
    else
        echo "same     $krate $lines/$items"
    fi
done <<<"$fresh"
while read -r krate _; do
    if ! awk -v k="$krate" '$1 == k { found = 1 } END { exit !found }' <<<"$fresh"; then
        echo "gone     $krate"
        shrank=true
    fi
done <"$pinned"

if $update; then
    printf '%s\n' "$fresh" >"$pinned"
    echo "rewrote $pinned"
    exit 0
fi
if $shrank && ((status == 0)); then
    echo "some crates shrank: run tools/code_size.sh --update to pin the smaller sizes"
fi
exit $status
