#!/usr/bin/env python3
"""Symbolise and aggregate what tools/profile/sampler.so or live.so wrote.

    report.py PREFIX [--top N] [--match NAME ... [--within FRAME]]
              [--callers NAME [--depth K]] [--sites]

PREFIX is a run's S2G_PROF_OUT (with -calls or -mark after it for
live.so's other outputs): every PREFIX.<pid>.stacks with its
PREFIX.<pid>.maps is read, so the samples of several runs of one build
aggregate (at a 4 ms tick one run of a second gives ~250 samples; use at
least eight). Addresses are symbolised with `addr2line -f -C -i`, inlined
frames expanded, so a function the compiler inlined still gets its share.

It prints, over all samples:
  * the N functions with the largest self share (the innermost frame);
  * the N with the largest inclusive share (anywhere on the stack, once per
    sample);
  * for each --match NAME, the inclusive share of the functions whose name
    contains NAME; with --within FRAME, only of the samples that have a
    frame containing FRAME on the stack, as a share of all samples and of
    those;
  * with --callers NAME, the caller chains (K frames up) of the innermost
    frame whose name contains NAME, over the samples that have one, most
    frequent first (over live.so's output the leaf is always an allocator
    frame, so NAME is usually a frame further up);
  * with --sites, the N sites with the largest share, a sample's site being
    its first frame outside the standard library (alloc::, core:: and std::,
    implementations of their traits, and the allocator's entry points).

A line that starts with UNIT=N (live.so writes "bytes=N" and "calls=N")
weighs N of UNIT; any other line is one sample. So over live.so's output a
share is a share of the live heap or of allocator calls, and over
sampler.so's a share of CPU time. sampler.so and live.so write the same
format otherwise, so every option reads either.

Needs python3 and binutils only.
"""

import argparse
import collections
import glob
import os
import re
import struct
import subprocess
import sys


def load_bias(path, first_start):
    """What to subtract from a run-time address in `path` to get the ELF
    virtual address addr2line wants: zero for a fixed-address executable,
    the load address of the lowest segment for a position-independent one."""
    try:
        with open(path, "rb") as f:
            head = f.read(64)
            if head[:4] != b"\x7fELF" or head[4] != 2:
                return None
            e_type = struct.unpack_from("<H", head, 16)[0]
            if e_type == 2:  # ET_EXEC
                return 0
            phoff = struct.unpack_from("<Q", head, 32)[0]
            phentsize, phnum = struct.unpack_from("<HH", head, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return None
    lowest = min(
        (struct.unpack_from("<Q", table, i * phentsize + 16)[0]
         for i in range(phnum)
         if struct.unpack_from("<I", table, i * phentsize)[0] == 1),  # PT_LOAD
        default=0,
    )
    return first_start - (lowest & ~0xFFF)


def read_maps(path):
    """Executable mappings as (start, end, file), and each file's bias."""
    spans, first = [], {}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) < 6 or not parts[5].startswith("/"):
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            first.setdefault(parts[5], lo)
            if "x" in parts[1]:
                spans.append((lo, hi, parts[5]))
    bias = {p: load_bias(p, lo) for p, lo in first.items()}
    return spans, bias


def symbolise(by_file):
    """{file: set(elf addresses)} -> {(file, addr): [names, innermost first]}."""
    names = {}
    for path, addrs in by_file.items():
        addrs = sorted(addrs)
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", path],
            input="\n".join(hex(a) for a in addrs),
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        # Per address: its own line ("0x…", which no function or file name
        # starts with), then a function line and a file:line line per frame.
        current, lines = None, []
        for line in out + ["0x0"]:
            if line.startswith("0x"):
                if current is not None:
                    names[(path, current)] = lines[0::2]
                current, lines = int(line, 16), []
            else:
                lines.append(line)
    return names


# What a site is looked for above: the standard library's functions,
# methods on primitives and slices, and implementations of its traits
# (`Clone`, `From`, `fmt::Write`, `GlobalAlloc` …) whoever's type they are
# for, so that a clone or a conversion counts toward the code that asked
# for it; and the allocator's entry points between them and malloc.
LIBRARY = ("alloc::", "core::", "std::", "__rust", "__rdl_", "__rg_")
TRAIT_IMPL = re.compile(r"^<(?:&|mut |dyn )*(?P<self>.+?)(?: as (?P<trait>.+?))?>::")


def is_library(name):
    if name.startswith(LIBRARY) or name.startswith("??"):
        return True
    impl = TRAIT_IMPL.match(name)
    if not impl:
        return False
    self_type, trait = impl["self"], impl["trait"] or ""
    return self_type.startswith(LIBRARY) or "::" not in self_type or trait.startswith(LIBRARY)


def site(stack):
    """The first frame of `stack` outside the standard library."""
    return next((name for name in stack if not is_library(name)), "(standard library only)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("prefix")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--match", action="append", default=[])
    ap.add_argument("--within")
    ap.add_argument("--callers")
    ap.add_argument("--depth", type=int, default=6)
    ap.add_argument("--sites", action="store_true")
    args = ap.parse_args()

    runs = sorted(glob.glob(args.prefix + ".*.stacks"))
    if not runs:
        sys.exit(f"no {args.prefix}.<pid>.stacks files")
    samples = []  # each: [(file, elf address)] innermost first
    weights = []  # each sample's N of UNIT, or 1
    units = set()  # UNIT of the weighted lines, "samples" of the others
    for stacks in runs:
        spans, bias = read_maps(stacks[: -len(".stacks")] + ".maps")
        def locate(addr):
            for lo, hi, path in spans:
                if lo <= addr < hi and bias.get(path) is not None:
                    return path, addr - bias[path]
            return None, addr
        with open(stacks) as f:
            for line in f:
                words = line.split()
                unit, _, count = (words[0] if words else "").partition("=")
                if count:
                    words.pop(0)
                    weights.append(int(count))
                else:
                    unit = "samples"
                    weights.append(1)
                units.add(unit)
                addrs = [int(x, 16) for x in words]
                # Return addresses point past their call: step back into it.
                frames = [locate(a if i == 0 else a - 1) for i, a in enumerate(addrs)]
                samples.append(frames)

    if len(units) > 1:
        sys.exit(f"{args.prefix}: lines weigh different things: {', '.join(sorted(units))}")
    unit = units.pop() if units else "samples"

    by_file = collections.defaultdict(set)
    for frames in samples:
        for path, addr in frames:
            if path:
                by_file[path].add(addr)
    names = symbolise(by_file)

    def expand(frames):
        out = []
        for path, addr in frames:
            if path is None:
                out.append("??")
            else:
                out.extend(names.get((path, addr)) or [f"?? in {os.path.basename(path)}"])
        return out

    stacks = [expand(f) for f in samples]
    weighted = list(zip(weights, stacks))
    total = max(sum(weights), 1)
    self_count = collections.Counter()
    incl_count = collections.Counter()
    for w, s in weighted:
        if s:
            self_count[s[0]] += w
        for name in set(s):
            incl_count[name] += w
    if unit == "samples":
        print(f"{len(stacks)} samples from {len(runs)} run(s)")
    else:
        print(f"{sum(weights)} {unit} in {len(stacks)} stacks from {len(runs)} run(s)")
    print(f"\nself share (top {args.top})")
    for name, n in self_count.most_common(args.top):
        print(f"{100 * n / total:6.2f} %  {name}")
    print(f"\ninclusive share (top {args.top})")
    for name, n in incl_count.most_common(args.top):
        print(f"{100 * n / total:6.2f} %  {name}")
    if args.match:
        pool = weighted
        if args.within:
            pool = [(w, s) for w, s in weighted if any(args.within in f for f in s)]
            within = sum(w for w, _ in pool)
            print(f"\n{within} {unit}, {100 * within / total:.2f} %, within {args.within}")
        print("\ninclusive share of names containing")
        for pattern in args.match:
            n = sum(w for w, s in pool if any(pattern in f for f in s))
            own = sum(w for w, s in pool if s and pattern in s[0])
            line = f"{100 * n / total:6.2f} %  (self {100 * own / total:5.2f} %)"
            if args.within:
                line += f"  {100 * n / max(within, 1):6.2f} % of those"
            print(f"{line}  {pattern}")
    if args.callers:
        chains = collections.Counter()
        for w, s in weighted:
            at = next((i for i, name in enumerate(s) if args.callers in name), None)
            if at is not None:
                chains[" <- ".join(s[at + 1:at + 1 + args.depth])] += w
        hits = sum(chains.values())
        print(f"\ncallers of {args.callers}: {hits} {unit}, {100 * hits / total:.2f} %")
        for chain, n in chains.most_common(args.top):
            print(f"{100 * n / total:6.2f} %  {chain}")
    if args.sites:
        sites = collections.Counter()
        for w, s in weighted:
            sites[site(s)] += w
        print(f"\nsites, first frame outside the standard library (top {args.top})")
        for name, n in sites.most_common(args.top):
            print(f"{100 * n / total:6.2f} %  {name}")


if __name__ == "__main__":
    main()
