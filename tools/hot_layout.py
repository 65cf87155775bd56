#!/usr/bin/env python3
"""Compares where two builds place the hot dispatch-path functions.

  python3 tools/hot_layout.py OLD_BIN NEW_BIN

OLD_BIN and NEW_BIN are two builds of the same program, typically the
perfbench binary (.bench_build/perfbench/ethergrid_perfbench) of a parent
commit and of a change.  For each function on the fig1/grid dispatch path
it prints the address mod 64 (offset within a cache line), the address mod
4096 (offset within a page) and the size in both binaries, and flags it:

  moved    same size, different cache-line or page offset: layout alone
  resized  different size: the function's code changed
  missing  the function is absent from one binary (inlined or renamed)

A wall-time change on a workload whose code did not change (fig1_sweep
runs no shell or observer code) is a layout effect when its hot functions
are flagged `moved` and none `resized`.  Reads symbols with binutils
`nm -C`; exits 1 if either binary has none of the functions.
"""

import re
import subprocess
import sys

# (label, pattern over the demangled name).  `[clone .cold]` parts are
# left out: they hold the unlikely paths, not the dispatch loop.
HOT = (
    ("TimerWheel::pop_due",
     r"^bool ethergrid::sim::internal::TimerWheel::pop_due<"),
    ("Kernel::yield_from_process",
     r"^ethergrid::sim::Kernel::yield_from_process\("),
    ("ethergrid_jump_fcontext", r"^ethergrid_jump_fcontext$"),
    ("Context::sleep", r"^ethergrid::sim::Context::sleep\("),
    ("Kernel::schedule", r"^ethergrid::sim::Kernel::schedule\("),
    ("TimerWheel::place", r"^ethergrid::sim::internal::TimerWheel::place\("),
    ("Schedd::submit", r"^ethergrid::grid::Schedd::submit\([^()]*\)$"),
    ("Schedd::submit_internal",
     r"^ethergrid::grid::Schedd::submit_internal\([^()]*\)$"),
    ("make_submitter body",
     r"^ethergrid::grid::make_submitter\(.*\)::\{lambda\(ethergrid::sim::"
     r"Context&\)#1\}::operator\(\)\(ethergrid::sim::Context&\) const$"),
)
TEXT_TYPES = set("tTwWi")


def hot_symbols(binary):
    """Returns {(label, demangled name): (address, size)}."""
    out = subprocess.run(["nm", "-C", "--defined-only", "--print-size",
                          binary], stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    found = {}
    for line in out.splitlines():
        parts = line.split(" ", 3)
        if len(parts) != 4 or parts[2] not in TEXT_TYPES:
            continue
        address, size, name = int(parts[0], 16), int(parts[1], 16), parts[3]
        if name.endswith("[clone .cold]"):
            continue
        for label, pattern in HOT:
            if re.search(pattern, name):
                found[(label, name)] = (address, size)
    return found


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    old, new = hot_symbols(sys.argv[1]), hot_symbols(sys.argv[2])
    if not old or not new:
        sys.stderr.write("hot_layout: no hot-path symbols in %s\n" %
                         (sys.argv[1] if not old else sys.argv[2]))
        return 1
    print("%-28s %14s %14s %16s  %s" % ("function", "mod 64", "mod 4096",
                                        "size", "flag"))
    counts = {"moved": 0, "resized": 0, "missing": 0}
    for label, _ in HOT:
        names = sorted({n for (l, n) in list(old) + list(new) if l == label})
        if not names:
            print("%-28s %14s %14s %16s  missing" % (label, "-", "-", "-"))
            counts["missing"] += 1
            continue
        for i, name in enumerate(names):
            a, b = old.get((label, name)), new.get((label, name))
            # Overloads and clones of one function are numbered in name
            # order.
            row = label if len(names) == 1 else "%s #%d" % (label, i + 1)
            if a is None or b is None:
                flag = "missing"
            elif a[1] != b[1]:
                flag = "resized"
            elif a[0] % 64 != b[0] % 64 or a[0] % 4096 != b[0] % 4096:
                flag = "moved"
            else:
                flag = ""
            if flag:
                counts[flag] += 1

            def pair(f, width):
                x = f(a) if a else "-"
                y = f(b) if b else "-"
                return ("%s -> %s" % (x, y)).rjust(width)

            print("%-28s %s %s %s  %s" % (
                row, pair(lambda s: s[0] % 64, 14),
                pair(lambda s: s[0] % 4096, 14), pair(lambda s: s[1], 16),
                flag))
    print("moved %d, resized %d, missing %d" %
          (counts["moved"], counts["resized"], counts["missing"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
