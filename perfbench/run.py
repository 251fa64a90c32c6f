#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload kv_read --seed 1 --seconds 12 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental.  Build output goes to stderr; the benchmark's last line
of stdout is its JSON result.  Any other arguments (e.g. --selftest) are
passed through to the benchmark binary.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    args = sys.argv[1:]
    traced = False
    for i, a in enumerate(args):
        if a == "--trace" and i + 1 < len(args):
            traced = args[i + 1] == "1"
    exe = os.path.join(build_dir, "perfbench_traced" if traced else "perfbench")
    env = dict(os.environ, PERFBENCH_OUT=build_dir)
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
