#!/usr/bin/env python3
"""Folds a sigprof.<pid>.txt dump into self and inclusive shares.

Each return address is mapped back to its ELF file through the dumped
/proc/self/maps and the file's PT_LOAD headers, then named with
`addr2line -f -i -C`, so functions inlined into a frame count too.

  fold.py sigprof.1234.txt --keep 'engine::Sim<.*>::run' --drop 'handle_routed'

--keep keeps a sample when some function or file:line on its stack
matches; --drop discards it when some function or file:line on its stack
matches. Both match a location, so one phase can be kept alone by the
line that calls it:

  fold.py sigprof.1234.txt --keep 'perf/src/rep\.rs:145$'
"""
import argparse
import bisect
import collections
import re
import subprocess


def load_segments(path):
    """(p_offset, p_vaddr, p_filesz) of each PT_LOAD in `path`."""
    out = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
    segs = []
    for line in out.splitlines():
        f = line.split()
        if f and f[0] == "LOAD":
            segs.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
    return segs


def resolve(path, vaddrs):
    """vaddr -> [(function, file:line)], innermost inline frame first."""
    res = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", path],
        input="\n".join(hex(a) for a in vaddrs),
        capture_output=True,
        text=True,
    ).stdout.splitlines()
    names, cur, i = {}, None, 0
    while i < len(res):
        if res[i].startswith("0x"):
            cur = int(res[i], 16)
            names[cur] = []
            i += 1
        else:
            fn = re.sub(r"::h[0-9a-f]{16}$", "", res[i])
            names[cur].append((fn, res[i + 1] if i + 1 < len(res) else "?"))
            i += 2
    return names


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("dump")
    ap.add_argument("--keep", help="keep samples with a matching function or location")
    ap.add_argument("--drop", help="drop samples with a matching function or location")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    maps, samples = [], []
    for line in open(args.dump):
        kind, rest = line.split(" ", 1)
        if kind == "map":
            f = rest.split()
            if len(f) >= 6 and "x" in f[1]:
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                maps.append((lo, hi, int(f[2], 16), f[5]))
        else:
            # Frame 0 is the signal handler, frame 1 libc's signal-return
            # trampoline; frame 2 is where the tick landed.
            samples.append([int(a, 16) for a in rest.split()][2:])
    maps.sort()
    starts = [m[0] for m in maps]

    segs, wanted, where = {}, collections.defaultdict(set), {}
    for stack in samples:
        for depth, addr in enumerate(stack):
            pc = addr if depth == 0 else addr - 1  # a return address is past its call
            k = bisect.bisect_right(starts, pc) - 1
            if k < 0 or pc >= maps[k][1]:
                continue
            lo, _, off, path = maps[k]
            fo = pc - lo + off
            segs.setdefault(path, load_segments(path))
            for p_off, p_vaddr, p_filesz in segs[path]:
                if p_off <= fo < p_off + p_filesz:
                    where[pc] = (path, fo - p_off + p_vaddr)
                    wanted[path].add(fo - p_off + p_vaddr)
    names = {path: resolve(path, sorted(v)) for path, v in wanted.items()}
    # A shared library without debug info names an address by the nearest
    # exported symbol, which for libc's internals is often a neighbour:
    # tag those names with the library they came from.
    for path, by_va in names.items():
        if ".so" in path:
            lib = path.rsplit("/", 1)[-1]
            for va, chain in by_va.items():
                by_va[va] = [(f"{fn} [{lib}]", loc) for fn, loc in chain]

    def frames(stack):
        for depth, addr in enumerate(stack):
            pc = addr if depth == 0 else addr - 1
            if pc in where:
                path, va = where[pc]
                yield from names[path].get(va, [("??", "?")])

    keep = re.compile(args.keep) if args.keep else None
    drop = re.compile(args.drop) if args.drop else None
    self_n, incl_n, kept = collections.Counter(), collections.Counter(), 0
    for stack in samples:
        fs = list(frames(stack))
        if not fs:
            continue
        if keep and not any(keep.search(fn) or keep.search(loc) for fn, loc in fs):
            continue
        if drop and any(drop.search(fn) or drop.search(loc) for fn, loc in fs):
            continue
        kept += 1
        self_n[fs[0][0]] += 1
        for fn in {fn for fn, _ in fs}:
            incl_n[fn] += 1

    print(f"{kept} of {len(samples)} samples kept")
    # Frames on every kept stack (main, the --keep function) say nothing.
    incl_n = collections.Counter({fn: n for fn, n in incl_n.items() if n < kept})
    for title, counts in (("self", self_n), ("inclusive", incl_n)):
        print(f"\n{title} %")
        for fn, n in counts.most_common(args.top):
            print(f"{100.0 * n / max(kept, 1):6.1f}  {fn}")


if __name__ == "__main__":
    main()
