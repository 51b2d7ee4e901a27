#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 frrbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The build goes to $CARGO_TARGET_DIR (default
`.bench_build`).  With --trace 1 the recorded spans are written to
`<target dir>/frrbench-spans/<workload>-<seed>.jsonl`.  The last line of
standard output is the benchmark's JSON result; the exit code is non-zero
when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def arg(argv, flag, default):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def main(argv):
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("frrbench: build failed", file=sys.stderr)
        return build.returncode or 1
    cmd = [os.path.join(target, "release", "frrbench")] + argv
    if arg(argv, "--trace", "0") == "1":
        name = "%s-%s.jsonl" % (arg(argv, "--workload", "none"), arg(argv, "--seed", "default"))
        cmd += ["--trace-out", os.path.join(target, "frrbench-spans", name)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
