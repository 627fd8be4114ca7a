#!/usr/bin/env python3
"""Symbolise and aggregate the samples tools/profile/sampler.so wrote.

    report.py PREFIX [--top N] [--match NAME ...] [--callers LEAF [--depth K]]

PREFIX is the sampler's S2G_PROF_OUT: every PREFIX.<pid>.stacks with its
PREFIX.<pid>.maps is read, so the samples of several runs of one build
aggregate (at a 4 ms tick one run of a second gives ~250 samples; use at
least eight). Addresses are symbolised with `addr2line -f -C -i`, inlined
frames expanded, so a function the compiler inlined still gets its share.

It prints, over all samples:
  * the N functions with the largest self share (the innermost frame);
  * the N with the largest inclusive share (anywhere on the stack, once per
    sample);
  * for each --match NAME, the inclusive share of the functions whose name
    contains NAME;
  * with --callers LEAF, the caller chains (K frames up) of the samples
    whose innermost frame contains LEAF, most frequent first.

Needs python3 and binutils only.
"""

import argparse
import collections
import glob
import os
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


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("prefix")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--match", action="append", default=[])
    ap.add_argument("--callers")
    ap.add_argument("--depth", type=int, default=6)
    args = ap.parse_args()

    runs = sorted(glob.glob(args.prefix + ".*.stacks"))
    if not runs:
        sys.exit(f"no {args.prefix}.<pid>.stacks files")
    samples = []  # each: [(file, elf address)] innermost first
    for stacks in runs:
        spans, bias = read_maps(stacks[: -len(".stacks")] + ".maps")
        def locate(addr):
            for lo, hi, path in spans:
                if lo <= addr < hi and bias.get(path) is not None:
                    return path, addr - bias[path]
            return None, addr
        with open(stacks) as f:
            for line in f:
                addrs = [int(x, 16) for x in line.split()]
                # Return addresses point past their call: step back into it.
                frames = [locate(a if i == 0 else a - 1) for i, a in enumerate(addrs)]
                samples.append(frames)

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
    total = len(stacks)
    self_count = collections.Counter(s[0] for s in stacks if s)
    incl_count = collections.Counter()
    for s in stacks:
        incl_count.update(set(s))
    print(f"{total} samples from {len(runs)} run(s)")
    print(f"\nself share (top {args.top})")
    for name, n in self_count.most_common(args.top):
        print(f"{100 * n / total:6.2f} %  {name}")
    print(f"\ninclusive share (top {args.top})")
    for name, n in incl_count.most_common(args.top):
        print(f"{100 * n / total:6.2f} %  {name}")
    if args.match:
        print("\ninclusive share of names containing")
        for pattern in args.match:
            n = sum(1 for s in stacks if any(pattern in f for f in s))
            own = sum(1 for s in stacks if s and pattern in s[0])
            print(f"{100 * n / total:6.2f} %  (self {100 * own / total:5.2f} %)  {pattern}")
    if args.callers:
        chains = collections.Counter(
            " <- ".join(s[1:1 + args.depth]) for s in stacks if s and args.callers in s[0]
        )
        hits = sum(chains.values())
        print(f"\ncallers of {args.callers}: {hits} samples, {100 * hits / total:.2f} %")
        for chain, n in chains.most_common(args.top):
            print(f"{100 * n / total:6.2f} %  {chain}")


if __name__ == "__main__":
    main()
