#!/usr/bin/env bash
# Checks that the working tree prints what REV prints.
#
# Usage: tools/same_output.sh [--smoke|--full] REV
#
# Builds the `figures` binary and every example at REV and in the working
# tree, runs `figures --fig all` and each example on both sides, and
# compares byte for byte: the CSVs and `timeline_trace.json` that `figures`
# writes under `target/figures/`, the stdout of `figures`, and the stdout of
# each example. Prints each file that differs and exits 1 if any does, 0 if
# none does.
#
# `--smoke` (the default) runs the figures on the CI preset, in about two
# seconds a side; `--full` runs them at the paper's scale, as `figures`
# does with no flag. Each figure's wall time goes to stderr.
#
# REV is exported with `git archive` into `target/same_output/<sha>/src` and
# built there with its own target dir, so a second run against the same REV
# rebuilds nothing on its side. Runs are deterministic per seed, so any
# difference is a behaviour change.
set -euo pipefail

scale=smoke
case "${1:-}" in
--smoke | --full)
    scale=${1#--}
    shift
    ;;
esac
rev=${1:?usage: tools/same_output.sh [--smoke|--full] REV}
root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --verify "$rev^{commit}")
work="$root/target/same_output"
old_src="$work/$sha/src"

if [ ! -d "$old_src" ]; then
    mkdir -p "$old_src.tmp"
    git archive "$sha" | tar -x -C "$old_src.tmp"
    mv "$old_src.tmp" "$old_src"
fi

# build SRC TARGET_DIR: the figures binary and every example, release.
build() {
    (cd "$1" && export CARGO_TARGET_DIR="$2" &&
        cargo build --release --offline --quiet -p s2g-bench --bin figures &&
        cargo build --release --offline --quiet -p stream2gym --examples)
}

# run TARGET_DIR OUT: every output into OUT (figures from OUT as its cwd).
run() {
    local bin="$1/release" out="$2" f name
    rm -rf "$out"
    mkdir -p "$out"
    local flags=(--fig all)
    if [ "$scale" = smoke ]; then
        flags+=(--smoke)
    fi
    (cd "$out" && "$bin/figures" "${flags[@]}" >figures.stdout)
    for f in "$root"/examples/*.rs; do
        name=$(basename "${f%.rs}")
        "$bin/examples/$name" >"$out/example-$name.stdout"
    done
}

echo "building $sha"
build "$old_src" "$work/$sha/target"
echo "building the working tree"
build "$root" "$root/target"
echo "running $sha ($scale)"
old_out="$work/$sha/out-$scale"
new_out="$work/head-out-$scale"
run "$work/$sha/target" "$old_out"
echo "running the working tree"
run "$root/target" "$new_out"

differ=0
compared=0
while IFS= read -r rel; do
    compared=$((compared + 1))
    if ! cmp -s "$old_out/$rel" "$new_out/$rel"; then
        echo "differs: $rel"
        differ=1
    fi
done < <(cd "$old_out" && find . -type f | sed 's|^\./||' | sort)
while IFS= read -r rel; do
    if [ ! -e "$old_out/$rel" ]; then
        echo "only in the working tree: $rel"
        differ=1
    fi
done < <(cd "$new_out" && find . -type f | sed 's|^\./||' | sort)

if [ "$differ" -ne 0 ]; then
    echo "outputs differ from $sha"
    exit 1
fi
echo "all $compared outputs equal to $sha ($scale)"
