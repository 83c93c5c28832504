#!/usr/bin/env python3
"""Builds the toss executable and the benchmark from source, then runs
one workload of the serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. The build goes to the directory
named by CARGO_TARGET_DIR (default .bench_build); servers, their
databases and trace files go under .bench_run. The last line of
standard output is the result as one JSON object.
"""
import os
import shutil
import subprocess
import sys


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    for need in ("dune-project", "bin/toss.ml", "lib", "perfbench/main.ml"):
        if not os.path.exists(need):
            fail("run from the repository root: %s is missing" % need)
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # no shared build cache: everything the build writes stays in the
    # checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        cmd + ["build", "--root", ".", "--build-dir", build_dir,
               "./bin/toss.exe", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(build_dir, "default")
    bench = subprocess.run(
        [os.path.join(exe, "perfbench", "main.exe"),
         "--toss", os.path.join(exe, "bin", "toss.exe")] + sys.argv[1:])
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
