#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <colloc|fleet|llm_serving> \
        --seed <n> --seconds <s> --trace <0|1>

The harness is the Cargo package beside this file. It is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build in the current
directory); build output goes to stderr. The last line on stdout is the
result JSON. With --trace 1 the recorded spans are written to
<target dir>/perfbench/spans-<workload>-<seed>.jsonl.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def arg(name):
    argv = sys.argv[1:]
    return argv[argv.index(name) + 1] if name in argv[:-1] else "unknown"


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit(build.returncode)

    spans_dir = os.path.join(target, "perfbench")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(
        spans_dir, "spans-%s-%s.jsonl" % (arg("--workload"), arg("--seed")))
    # Keep freed memory in-process: otherwise glibc hands large buffers back
    # to the OS and re-faults their pages, timing the kernel's page
    # allocator instead of the simulator.
    env["MALLOC_TRIM_THRESHOLD_"] = "1073741824"
    env["MALLOC_MMAP_THRESHOLD_"] = "1073741824"
    exe = os.path.join(target, "release", "orion-perfbench")
    run = subprocess.run([exe, *sys.argv[1:], "--spans-out", spans], env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
