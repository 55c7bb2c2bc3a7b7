#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Every call configures and builds perfbench/
(the library sources under src/ plus the benchmark binary) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); after the
first call both steps are incremental. Build output goes to stderr, so the
last line of standard output is the binary's JSON result. Extra arguments
(--small, --corrupt-op k) pass through to the binary. Exits non-zero if the
build or the run fails, or if any checked op failed.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "kylix_perfbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(build_dir, "kylix_perfbench")


def main():
    binary = build()
    if binary is None:
        return 1
    try:
        proc = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
