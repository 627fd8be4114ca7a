#!/usr/bin/env python3
"""Which workspace functions a set of runs entered, read from the raw
profiles of binaries built with `-C instrument-coverage`.

    coverage.py DIR [--root ROOT] [--match NAME ...] [--quiet]

DIR holds the runs' `*.profraw` files (LLVM_PROFILE_FILE=DIR/%p-%m.profraw,
one file a process). ROOT (default: this script's repository) names the
workspace: a function is the workspace's when its demangled path starts
with one of ROOT's crates (the packages and `[lib]` names under `crates/`,
the root package, `benchmark/`, and each `src/bin/*.rs` and
`examples/*.rs` target). A function counts as entered when any of its
counters is nonzero in any profile; one instantiated in several binaries or
crates is one function, entered if entered anywhere.

It prints how many workspace functions the binaries link and how many the
runs never entered, the same per crate, then the never-entered ones,
sorted (unless --quiet),
then, for each --match NAME, every workspace function whose name contains
NAME, marked `entered` or `never`.

The raw profiles are read directly, because `llvm-profdata` 14 refuses the
version 10 that rustc's profiler runtime writes. Their layout:

  * a header of 16 little-endian u64s: magic, version, BinaryIdsSize,
    NumData, PaddingBytesBeforeCounters, NumCounters,
    PaddingBytesAfterCounters, NumBitmapBytes, PaddingBytesAfterBitmapBytes,
    NamesSize, CountersDelta (signed), BitmapDelta, NamesDelta, NumVTables,
    VNamesSize, ValueKindLast;
  * BinaryIdsSize bytes of binary ids;
  * NumData records of 64 B: NameRef (the low 8 bytes, little-endian, of
    the MD5 of the function's name), FuncHash, CounterPtr (relative to the
    record), BitmapPtr, FunctionPointer, Values, then NumCounters as a u32
    at +48;
  * the padding, NumCounters u64 counters, padding, the bitmap, padding;
  * NamesSize bytes of names: chunks of a ULEB128 raw length, a ULEB128
    zlib length (0: not compressed) and the data, the names in it split on
    0x01.

Record i's counters start at index (CounterPtr + 64 i - CountersDelta) / 8.
Names are rustc's v0 mangling, which `c++filt` demangles.

Needs python3 and binutils only.
"""

import argparse
import glob
import hashlib
import os
import re
import struct
import subprocess
import sys
import zlib

MAGIC = 0xFF6C70726F667281
VERSION = 10
HEADER = struct.Struct("<16Q")
RECORD = 64


def uleb128(buf, at):
    """The ULEB128 number at `at` in `buf`, and where it ends."""
    value, shift = 0, 0
    while True:
        byte = buf[at]
        at += 1
        value |= (byte & 0x7F) << shift
        shift += 7
        if byte < 0x80:
            return value, at


def names_of(blob):
    """Every name in a profile's names section."""
    names, at = [], 0
    while at < len(blob):
        raw, at = uleb128(blob, at)
        packed, at = uleb128(blob, at)
        if raw == 0 and packed == 0:
            break
        if packed:
            chunk = zlib.decompress(blob[at:at + packed])
            at += packed
        else:
            chunk = blob[at:at + raw]
            at += raw
        names.extend(chunk.split(b"\x01"))
    return names


def name_ref(name):
    """A name's NameRef: the low 8 bytes of its MD5, little-endian."""
    return struct.unpack("<Q", hashlib.md5(name).digest()[:8])[0]


def read_profile(path):
    """{mangled name: entered} for every function record of one profile."""
    with open(path, "rb") as f:
        buf = f.read()
    head = HEADER.unpack_from(buf)
    if head[0] != MAGIC or head[1] != VERSION:
        sys.exit(f"coverage: {path} is not a version-{VERSION} raw profile "
                 f"(magic {head[0]:#x}, version {head[1]})")
    (_, _, ids, num_data, pad_before, num_counters, pad_after, bitmap,
     pad_bitmap, names_size, counters_delta) = head[:11]
    if counters_delta >= 1 << 63:
        counters_delta -= 1 << 64
    data = HEADER.size + ids
    counters_at = data + num_data * RECORD + pad_before
    counters = struct.unpack_from(f"<{num_counters}Q", buf, counters_at)
    names_at = counters_at + num_counters * 8 + pad_after + bitmap + pad_bitmap
    by_ref = {name_ref(n): n for n in names_of(buf[names_at:names_at + names_size])}
    functions = {}
    for i in range(num_data):
        record = data + i * RECORD
        ref, = struct.unpack_from("<Q", buf, record)
        counter_ptr, = struct.unpack_from("<q", buf, record + 16)
        n, = struct.unpack_from("<I", buf, record + 48)
        first = (counter_ptr + RECORD * i - counters_delta) // 8
        name = by_ref.get(ref)
        if name is not None:
            entered = any(counters[first:first + n])
            functions[name] = functions.get(name, False) or entered
    return functions


def inherent(name):
    """`<path::Type>::f`, a method of an inherent impl, as `path::Type::f`;
    any other name as it is."""
    if not name.startswith("<"):
        return name
    depth = 0
    for at, c in enumerate(name):
        depth += {"<": 1, ">": -1}.get(c, 0)
        if depth == 0:
            inner = name[1:at]
            if name.startswith(">::", at) and " as " not in inner:
                return inner + name[at + 1:]
            return name
    return name


def demangle(names):
    """The names demangled by c++filt, crate disambiguators removed and
    inherent methods written as paths."""
    text = "\n".join(n.decode("utf-8", "replace") for n in names) + "\n"
    out = subprocess.run(["c++filt"], input=text, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    return [inherent(re.sub(r"\[[0-9a-f]+\]", "", line)) for line in out]


def workspace_crates(root):
    """The crate names of the workspace at `root`."""
    crates = set()
    manifests = glob.glob(os.path.join(root, "crates", "*", "Cargo.toml"))
    manifests += [os.path.join(root, "Cargo.toml"), os.path.join(root, "benchmark", "Cargo.toml")]
    for manifest in manifests:
        if os.path.exists(manifest):
            with open(manifest) as f:
                for m in re.finditer(r'^name\s*=\s*"([^"]+)"', f.read(), re.M):
                    crates.add(m.group(1).replace("-", "_"))
    targets = glob.glob(os.path.join(root, "crates", "*", "src", "bin", "*.rs"))
    targets += glob.glob(os.path.join(root, "examples", "*.rs"))
    crates.update(os.path.basename(t)[:-3].replace("-", "_") for t in targets)
    return crates


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir")
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(here)))
    ap.add_argument("--match", action="append", default=[], metavar="NAME")
    ap.add_argument("--quiet", action="store_true", help="do not list the never-entered")
    args = ap.parse_args()
    profiles = sorted(glob.glob(os.path.join(args.dir, "*.profraw")))
    if not profiles:
        sys.exit(f"coverage: no *.profraw in {args.dir}")
    mangled = {}
    for path in profiles:
        for name, entered in read_profile(path).items():
            mangled[name] = mangled.get(name, False) or entered
    names = sorted(mangled)
    crates = workspace_crates(args.root)
    entered, crate_of = {}, {}
    for name, shown in zip(names, demangle(names)):
        root = re.match(r"<*([A-Za-z0-9_]+)::", shown)
        if root and root.group(1) in crates:
            entered[shown] = entered.get(shown, False) or mangled[name]
            crate_of[shown] = root.group(1)
    never = sorted(name for name, hit in entered.items() if not hit)
    print(f"coverage: {len(profiles)} profiles, {len(entered)} workspace functions linked, "
          f"{len(never)} never entered")
    for crate in sorted(set(crate_of.values())):
        linked = [n for n in entered if crate_of[n] == crate]
        print(f"  {crate}: {sum(not entered[n] for n in linked)} of {len(linked)} never entered")
    if not args.quiet:
        print("never entered:")
        for name in never:
            print(f"  {name}")
    for pattern in args.match:
        print(f"functions containing {pattern}:")
        for name in sorted(n for n in entered if pattern in n):
            print(f"  {'entered' if entered[name] else 'never':8} {name}")


if __name__ == "__main__":
    main()
