#!/usr/bin/env python3
"""Statistical PC sampler: ranks where a process spends its host time.

Usage:

    scripts/pc_sample.py [--hz N] [--top N] -- <program> [args...]

Starts <program>, then stops it N times per second (default 500) with
ptrace (PTRACE_SEIZE once, then PTRACE_INTERRUPT / PTRACE_GETREGS /
PTRACE_CONT per sample) and records the program counter of its main
thread. When the program exits, the samples are symbolized with
`addr2line -i -f -C` and two rankings go to stdout:

  * by symbol: the function the sampled instruction was compiled into
               (from the symbol table, via `nm`);
  * by crate:  the crate of that function (`orion_gpu` is the engine);
  * by leaf:   the innermost inlined function at that instruction, with
               its source file;
  * by file:   that source file alone (e.g. `library/alloc/.../binary_heap/mod.rs`
               for BinaryHeap code inlined into a caller).

Needs only Linux x86_64, python3 and binutils (addr2line, nm): no `perf`, no
kernel perf-event permissions. For function names and inline frames, build
the program with line tables, which leaves its code unchanged:

    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \\
        CARGO_TARGET_DIR=.bench_build cargo build --release \\
        --manifest-path perfbench/Cargo.toml
    scripts/pc_sample.py -- .bench_build/release/orion-perfbench \\
        --workload colloc --seed 1 --seconds 10 --trace 0

Only the main thread is sampled. Samples falling outside the program's own
executable (libc, the vDSO) are ranked under the mapped file's name.
"""

import bisect
import collections
import ctypes
import os
import re
import signal
import subprocess
import sys
import time

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
WALL = 0x40000000
# Offset of `rip` in the x86_64 `struct user_regs_struct` (27 u64 fields).
RIP_INDEX = 16

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p]


def ptrace(req, pid, addr=None, data=None):
    if libc.ptrace(req, pid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, "ptrace(%#x): %s" % (req, os.strerror(err)))


def wait_stop(pid):
    """Waits until the tracee stops for our interrupt; forwards any signal
    that stopped it first. Returns False once it has exited."""
    while True:
        _, status = os.waitpid(pid, WALL)
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            return False
        if status >> 16 == PTRACE_EVENT_STOP:
            return True
        # A signal-delivery stop: deliver the signal and keep waiting.
        ptrace(PTRACE_CONT, pid, None, os.WSTOPSIG(status))


def sample(argv, hz):
    child = subprocess.Popen(argv)
    pid = child.pid
    ptrace(PTRACE_SEIZE, pid)
    regs = (ctypes.c_ulonglong * 27)()
    pcs = collections.Counter()
    maps = []
    period = 1.0 / hz
    while True:
        time.sleep(period)
        try:
            if not maps:
                maps = read_maps(pid)
            ptrace(PTRACE_INTERRUPT, pid)
        except OSError:
            break
        if not wait_stop(pid):
            break
        ptrace(PTRACE_GETREGS, pid, None, ctypes.addressof(regs))
        pcs[regs[RIP_INDEX]] += 1
        ptrace(PTRACE_CONT, pid)
    child.wait()
    return pcs, maps


def read_maps(pid):
    """File-backed mappings as (start, end, file offset, path)."""
    out = []
    with open("/proc/%d/maps" % pid) as f:
        for line in f:
            parts = line.split()
            if len(parts) < 6:
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            out.append((start, end, int(parts[2], 16), parts[5]))
    return out


def load_base(maps, path):
    """Load address of `path`: its link-time addresses are relative to it."""
    return min(s - off for s, _, off, p in maps if p == path)


def symbolize(exe, addrs):
    """addr -> list of (demangled function, source file), innermost inline
    frame first."""
    if not addrs:
        return {}
    out = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", exe],
        input="\n".join("%#x" % a for a in addrs), capture_output=True,
        text=True, check=True).stdout.splitlines()
    names, cur = {}, None
    i = 0
    while i < len(out):
        line = out[i]
        if line.startswith("0x"):
            cur = int(line, 16)
            names[cur] = []
            i += 1
            continue
        loc = out[i + 1] if i + 1 < len(out) else "??"
        names[cur].append((strip_hash(line), short_file(loc)))
        i += 2  # function line, then file:line
    return names


def symbol_table(exe):
    """Sorted (address, demangled name) pairs of the defined text symbols."""
    out = subprocess.run(["nm", "-C", "-n", "--defined-only", exe],
                         capture_output=True, text=True, check=True).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwW":
            syms.append((int(parts[0], 16), strip_hash(parts[2])))
    return syms


def short_file(loc):
    """`/any/prefix/crates/gpu-sim/src/engine.rs:12` ->
    `crates/gpu-sim/src/engine.rs`; toolchain sources start at `library/`."""
    path = loc.rsplit(":", 1)[0].split(" ")[0]
    m = re.search(r"((?:crates|library)/.+)$", path) or re.search(
        r"/([^/]+/src/.+)$", path)
    return m.group(1) if m else path


def crate_of(symbol):
    """`<orion_core::world::W as orion_desim::sim::World>::handle` -> `orion_core`."""
    m = re.match(r"[<&\s]*(?:impl\s+)?(?:dyn\s+)?([A-Za-z_]\w*)::", symbol)
    return m.group(1) if m else symbol


def strip_hash(name):
    return re.sub(r"::h[0-9a-f]{16}$", "", name)


def rank(title, counts, total, top):
    print("%s (%d samples)" % (title, total))
    for name, n in counts.most_common(top):
        print("  %5.1f%%  %6d  %s" % (100.0 * n / total, n, name))
    print()


def main():
    args = sys.argv[1:]
    hz, top = 500, 25
    while args and args[0] != "--":
        flag, value = args[0], args[1]
        if flag == "--hz":
            hz = int(value)
        elif flag == "--top":
            top = int(value)
        else:
            sys.exit("unknown option %s" % flag)
        args = args[2:]
    if not args or args[0] != "--" or len(args) < 2:
        sys.exit(__doc__)
    argv = args[1:]
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    pcs, maps = sample(argv, hz)
    total = sum(pcs.values())
    if total == 0:
        sys.exit("no samples taken")
    exe = os.path.realpath(argv[0])
    base = load_base(maps, exe) if any(p == exe for *_, p in maps) else 0
    in_exe = {}
    by_symbol, by_leaf = collections.Counter(), collections.Counter()
    for pc, n in pcs.items():
        mapping = next((p for s, e, _, p in maps if s <= pc < e), "?")
        if mapping == exe:
            in_exe[pc] = n
        else:
            label = "[%s]" % os.path.basename(mapping)
            by_symbol[label] += n
            by_leaf[label] += n
    by_file = collections.Counter(by_leaf)
    by_crate = collections.Counter(by_leaf)
    names = symbolize(exe, [pc - base for pc in in_exe])
    syms = symbol_table(exe)
    starts = [a for a, _ in syms]
    for pc, n in in_exe.items():
        i = bisect.bisect_right(starts, pc - base) - 1
        symbol = syms[i][1] if i >= 0 else "??"
        by_symbol[symbol] += n
        by_crate[crate_of(symbol)] += n
        func, file = (names.get(pc - base) or [("??", "??")])[0]
        by_leaf["%s  @ %s" % (func, file)] += n
        by_file[file] += n
    rank("by symbol", by_symbol, total, top)
    rank("by crate of the symbol", by_crate, total, top)
    rank("by inlined leaf", by_leaf, total, top)
    rank("by source file of the inlined leaf", by_file, total, top)


if __name__ == "__main__":
    main()
