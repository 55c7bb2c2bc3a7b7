#!/usr/bin/env python3
"""Compare two sets of saved benchmark outputs, fingerprint-aware.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the standard output of untraced runs, one file per run
(any file name). Runs are grouped by workload. For every workload and every
end-to-end metric in BENCHMARK.json it prints both medians, the change, and
the base side's quartile spread; a change worse than the metric's bound is
marked REGRESSION, and one inside the base spread is marked unresolved.

If the host or build fingerprints of the two sides differ (CPU, CPU count,
affinity, compiler, flags, build type, engine threads, machines, degrees,
run shape), the comparison is flagged instead of scored and the script
exits 2.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("cpu", "nproc", "affinity", "compiler", "flags", "build_type",
             "engine_threads", "machines", "degrees", "small", "trace",
             "setup_reps", "warmup_ops", "streams_per_op")


def load(directory):
    runs = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as f:
            lines = f.read().strip().splitlines()
        fp = next((json.loads(l[len("# fingerprint "):]) for l in lines
                   if l.startswith("# fingerprint ")), None)
        if fp is None or not lines[-1].startswith("{"):
            sys.exit("compare: %s/%s is not a benchmark output" %
                     (directory, name))
        runs.setdefault(fp["workload"], []).append((fp, json.loads(lines[-1])))
    return runs


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    flagged = False
    for workload in sorted(set(base) & set(new)):
        host = {k: {fp.get(k) for fp, _ in base[workload] + new[workload]}
                for k in HOST_KEYS}
        differ = [k for k, v in host.items() if len(v) > 1]
        if differ:
            flagged = True
            print("%s: FLAGGED, fingerprints differ on %s; not scored" %
                  (workload, ", ".join(differ)))
            continue
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for _, r in base[workload]]
            b = [r["metrics"][m["name"]]["value"] for _, r in new[workload]]
            ma, mb = statistics.median(a), statistics.median(b)
            spread = 0.0
            if len(a) >= 2 and ma:
                q = statistics.quantiles(a, n=4)
                spread = (q[2] - q[0]) / abs(ma)
            change = (mb - ma) / abs(ma) if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = ("REGRESSION" if worse > m["bound"] else
                       "unresolved" if abs(change) <= spread else "ok")
            print("%-15s %-18s base %12.4f new %12.4f %-6s change %+7.2f%% "
                  "base-spread %6.2f%% bound %5.1f%% %s (n=%d/%d)" %
                  (workload, m["name"], ma, mb, m["unit"], 100 * change,
                   100 * spread, 100 * m["bound"], verdict, len(a), len(b)))
    return 2 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
