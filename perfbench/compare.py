#!/usr/bin/env python3
"""Collect benchmark runs, measure their spread, and compare two sets.

    python3 perfbench/compare.py collect --out a.jsonl [--workload W ...]
        [--seeds 1-10] [--seconds S]
    python3 perfbench/compare.py spread a.jsonl
    python3 perfbench/compare.py diff base.jsonl new.jsonl

`collect` runs perfbench/run.py untraced once per workload and seed and
appends one line per run: {"workload", "seed", "result"}. `spread` prints,
per workload and end-to-end metric, the median and the distance between the
first and third quartile as a share of the median, and fails when a spread
exceeds the metric's bound in BENCHMARK.json. `diff`
fails when a metric's median in the new set is worse than in the base set
by more than its bound, or when a run of either set was incorrect.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, spec


def load_runs(path):
    runs = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def by_workload(runs):
    """{workload: {metric: [values]}}, plus the runs that were incorrect."""
    table, bad = {}, []
    for r in runs:
        res = r["result"]
        if not res["correct"] or res["failed"]:
            bad.append("%s seed %s" % (r["workload"], r["seed"]))
        per = table.setdefault(r["workload"], {})
        for name, m in res["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return table, bad


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def worse_share(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def cmd_collect(args):
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    _, spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    with open(args.out, "a", encoding="utf-8") as out:
        for w in workloads:
            for s in seeds:
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", w, "--seed", str(s),
                       "--seconds", str(seconds), "--trace", "0"]
                done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True, check=False)
                if done.returncode != 0:
                    sys.stderr.write(done.stdout + done.stderr)
                    print("run failed: " + " ".join(cmd), file=sys.stderr)
                    return 1
                result = json.loads(done.stdout.strip().splitlines()[-1])
                out.write(json.dumps({"workload": w, "seed": s,
                                      "result": result}) + "\n")
                out.flush()
                print("%s seed %d: correct=%s" % (w, s, result["correct"]))
    return 0


def cmd_spread(args):
    bounds, _ = load_spec()
    table, bad = by_workload(load_runs(args.runs))
    failures = list(bad)
    print("%-20s %-22s %14s %8s %7s %s" %
          ("workload", "metric", "median", "spread", "bound", "n"))
    for w, metrics in table.items():
        for name, values in metrics.items():
            med, sp = spread(values)
            bound = bounds[name]["bound"]
            flag = ""
            if sp > bound:
                flag = "  OVER BOUND"
                failures.append("%s %s spread %.3f > %.3f" %
                                (w, name, sp, bound))
            elif sp > bound / 3:
                flag = "  over bound/3"
            print("%-20s %-22s %14.6g %8.3f %7.3f %d%s" %
                  (w, name, med, sp, bound, len(values), flag))
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


def compare(base_runs, new_runs, bounds):
    """List of (workload, metric, base median, new median, worse share,
    bound, flagged) plus the list of incorrect runs."""
    base, bad_a = by_workload(base_runs)
    new, bad_b = by_workload(new_runs)
    rows = []
    for w, metrics in base.items():
        for name, values in metrics.items():
            if name not in new.get(w, {}) or name not in bounds:
                continue
            b = statistics.median(values)
            n = statistics.median(new[w][name])
            ws = worse_share(b, n, bounds[name]["better"])
            rows.append((w, name, b, n, ws, bounds[name]["bound"],
                         ws > bounds[name]["bound"]))
    return rows, bad_a + bad_b


def cmd_diff(args):
    bounds, _ = load_spec()
    rows, bad = compare(load_runs(args.base), load_runs(args.new), bounds)
    print("%-20s %-22s %14s %14s %8s %7s" %
          ("workload", "metric", "base", "new", "worse", "bound"))
    flagged = 0
    for w, name, b, n, ws, bound, flag in rows:
        flagged += flag
        print("%-20s %-22s %14.6g %14.6g %8.3f %7.3f%s" %
              (w, name, b, n, ws, bound, "  REGRESSION" if flag else ""))
    for b in bad:
        print("INCORRECT " + b)
    return 1 if flagged or bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--workload", action="append")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=int, default=0)
    s = sub.add_parser("spread")
    s.add_argument("runs")
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("new")
    args = p.parse_args()
    return {"collect": cmd_collect, "spread": cmd_spread,
            "diff": cmd_diff}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
