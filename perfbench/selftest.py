#!/usr/bin/env python3
"""Self-test of the benchmark, at self-test size (16 machines, 2^14 keys).

    python3 perfbench/selftest.py

Run from the repository root. For every workload it runs the untraced and
the traced mode and asserts that the run succeeds, that every metric
BENCHMARK.json names for that mode is printed with its unit, and that
failed_frac is 0. It then corrupts one timed result per workload and asserts
that the op is counted as failed and the command exits non-zero. Prints
"selftest: PASS" and exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
BENCHMARK = os.path.join(HERE, os.pardir, "BENCHMARK.json")


def run(workload, trace, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace), "--small"] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=600)
    lines = proc.stdout.decode().strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines else None


def main():
    with open(BENCHMARK) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        if not ok:
            failures.append(what)
            print("FAIL: " + what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines, result = run(workload, trace)
            where = "%s --trace %d" % (workload, trace)
            check(code == 0, where + ": exit code %d" % code)
            if result is None:
                check(False, where + ": no result line")
                continue
            check(result["correct"] is True, where + ": correct is not true")
            check(result["failed"] == 0, where + ": failed ops")
            check(result["attempted"] >= 1, where + ": nothing attempted")
            check(any(l.split()[1:3] == ["failed_frac", "0.000000"]
                      for l in lines if l.startswith("# failed_frac")),
                  where + ": failed_frac is not 0")
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in wanted},
                  where + ": metric names differ from BENCHMARK.json")
            for m in wanted:
                got = metrics.get(m["name"])
                check(got is not None and got["unit"] == m["unit"] and
                      isinstance(got["value"], (int, float)),
                      where + ": metric %s missing or without unit %s" %
                      (m["name"], m["unit"]))
        code, _, result = run(workload, 0, ["--corrupt-op", "1"])
        where = workload + " --corrupt-op 1"
        check(code != 0, where + ": exit code 0")
        check(result is not None and result["correct"] is False and
              result["failed"] == 1, where + ": corrupted op not counted")
    print("selftest: " + ("FAIL (%d)" % len(failures) if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
