#!/usr/bin/env python3
"""Resolves SIGPROF sample files (tools/profile/sigprof.cc) to a flat profile.

Usage:

    python3 tools/profile/resolve.py PROFILE [PROFILE ...] [--top N]
        [--lines N] [--expect SUBSTRING]

Each PROFILE is a `<OMEGA_PROF_OUT>.<pid>` file written by the preload. Every
sampled program counter is mapped to its module through the recorded
mappings, turned into a link-time address with the module's LOAD segments
(readelf), and attributed to the function whose symbol (nm, with sizes)
contains it. Only a PC inside a symbol's [address, address + size) range is
attributed to that symbol, so code in a library without symbols is not
credited to the nearest exported name: it is reported once per library, as
`[libname]`. The report is self time per emitted function, plus a total per
module; a function inlined into its caller counts as the caller.

--lines N also lists the N hottest program counters with their innermost
inlined frame and source line (addr2line -i), which needs a build with -g. --expect exits 1 unless
some function whose name contains SUBSTRING got samples; with no samples at
all the script exits 1 too.
"""

import argparse
import bisect
import collections
import os
import subprocess
import sys


def read_profile(path):
    """Returns (mappings, {pc: count}, dropped, cpu seconds) from one file."""
    mappings = []
    counts = collections.Counter()
    dropped = 0
    cpu_s = 0.0
    with open(path) as f:
        for line in f:
            parts = line.split(maxsplit=4)
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "map" and len(parts) == 5:
                mappings.append((int(parts[1], 16), int(parts[2], 16),
                                 int(parts[3], 16), parts[4].strip()))
            elif parts[0] == "pc" and len(parts) == 3:
                counts[int(parts[1], 16)] += int(parts[2])
            elif parts[0] == "dropped" and len(parts) == 2:
                dropped += int(parts[1])
            elif parts[0] == "cpu_s" and len(parts) == 2:
                cpu_s += float(parts[1])
    mappings.sort()
    return mappings, counts, dropped, cpu_s


def run_tool(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              check=False).stdout
    except OSError:
        return ""


class Module:
    """One mapped file: LOAD segments and sized function symbols."""

    def __init__(self, path):
        self.path = path
        self.name = os.path.basename(path)
        self.segments = []  # (file offset, vaddr, file size)
        self.starts = []
        self.symbols = []  # (start, end, demangled name), sorted by start
        if not os.path.isfile(path):
            return
        for line in run_tool(["readelf", "-lW", path]).splitlines():
            fields = line.split()
            if len(fields) >= 5 and fields[0] == "LOAD":
                self.segments.append((int(fields[1], 16), int(fields[2], 16),
                                      int(fields[4], 16)))
        # The static symbol table first; a stripped library may still carry
        # dynamic (exported) symbols.
        for extra in ([], ["-D"]):
            out = run_tool(["nm", "-C", "-S", "--defined-only", *extra, path])
            for line in out.splitlines():
                fields = line.split(maxsplit=3)
                if len(fields) == 4 and fields[2] in "tTwWi":
                    start = int(fields[0], 16)
                    size = int(fields[1], 16)
                    if size > 0:
                        self.symbols.append((start, start + size, fields[3]))
            if self.symbols:
                break
        self.symbols.sort()
        self.starts = [s[0] for s in self.symbols]

    def vaddr(self, file_offset):
        for offset, vaddr, size in self.segments:
            if offset <= file_offset < offset + size:
                return file_offset - offset + vaddr
        return None

    def function(self, vaddr):
        i = -1 if vaddr is None else bisect.bisect_right(self.starts, vaddr) - 1
        if i >= 0 and vaddr < self.symbols[i][1]:
            return self.symbols[i][2]
        return f"[{self.name}]"


def source_line(module, vaddr):
    """'function at file:line' of the innermost inlined frame (addr2line -i)."""
    frames = run_tool(["addr2line", "-f", "-i", "-C", "-e", module.path,
                       hex(vaddr)]).splitlines()
    return " at ".join(frames[:2])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("profiles", nargs="+")
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("--lines", type=int, default=0)
    parser.add_argument("--expect", default=None)
    args = parser.parse_args()

    modules = {}
    by_function = collections.Counter()
    by_module = collections.Counter()
    by_address = collections.Counter()  # (module path, vaddr) -> samples
    total = 0
    dropped = 0
    cpu_s = 0.0
    for path in args.profiles:
        mappings, counts, lost, cpu = read_profile(path)
        dropped += lost
        cpu_s += cpu
        starts = [m[0] for m in mappings]
        for pc, n in counts.items():
            total += n
            i = bisect.bisect_right(starts, pc) - 1
            if i < 0 or pc >= mappings[i][1]:
                by_function["[unmapped]"] += n
                by_module["[unmapped]"] += n
                continue
            start, _, offset, file = mappings[i]
            if file not in modules:
                modules[file] = Module(file)
            module = modules[file]
            vaddr = module.vaddr(pc - start + offset)
            function = module.function(vaddr)
            # Code outside every symbol is already its `[libname]` bucket.
            if not function.startswith("["):
                function = f"{function}  [{module.name}]"
            by_function[function] += n
            by_module[module.name] += n
            if vaddr is not None:
                by_address[(file, vaddr)] += n

    if total == 0:
        print("resolve: no samples", file=sys.stderr)
        return 1
    try:
        print(f"samples: {total} over {cpu_s:.2f} CPU-s "
              f"({total / max(cpu_s, 1e-9):.0f} Hz reached)"
              + (f", dropped {dropped}" if dropped else ""))
        print(f"\n{'self %':>7} {'samples':>9}  function  [module]")
        for key, n in by_function.most_common(args.top):
            print(f"{100.0 * n / total:7.2f} {n:9d}  {key}")
        print(f"\n{'self %':>7} {'samples':>9}  module")
        for name, n in by_module.most_common():
            print(f"{100.0 * n / total:7.2f} {n:9d}  {name}")

        if args.lines > 0:
            print(f"\n{'self %':>7} {'samples':>9}  address  innermost frame")
            for (file, vaddr), n in by_address.most_common(args.lines):
                where = source_line(modules[file], vaddr)
                print(f"{100.0 * n / total:7.2f} {n:9d}  {vaddr:#x}  {where}")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (`| head`): stop printing, and
        # point stdout at /dev/null so the flush at exit cannot fail again.
        # The --expect verdict below still sets the exit code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())

    if args.expect is not None:
        if not any(args.expect in key for key in by_function):
            print(f"resolve: no samples in a function matching "
                  f"'{args.expect}'", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
