#!/usr/bin/env python3
"""Repeatability and bounds check for the node-path benchmark.

Run from the repository root:

  python3 bench/node/repeat.py                   # 5 runs per workload
  python3 bench/node/repeat.py --runs 10 --sets 2

Each run is a fresh run.py process; run i of every set uses seed --seed+i.
A set runs every workload in turn, and the second set starts after the
first has ended. Per workload and end-to-end metric it prints the median,
the interquartile range and the largest run-to-run spread, both as a share
of the median, and flags:

  iqr>bound     the IQR exceeds the metric's bound in BENCHMARK.json, so
                the metric cannot resolve a change of that size;
  iqr>bound/3   the IQR exceeds a third of the bound, the steadiness target;
  outlier runs  a run in which two or more metrics sit more than twice
                their bound from the median: a whole process ran on a
                slower host;
  sets differ   with --sets 2, the second set's median is worse than the
                first's by more than the bound.

It also lists, per parallel engine, the runs in the slow mode, where the
engine's node.<engine>.busy_cpus (from node_bench's own output) stays below
1.2: its pool's workers got no CPU, so it validated at sequential speed,
and flags "modes differ" when only some runs of a set were slow.

The exit code is 1 when a bound is exceeded (iqr>bound, sets differ, or a
failed run), else 0.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "bench" / "node" / "run.py"


SLOW_MODE_CPUS = 1.2


def run_once(workload, seed, seconds):
    """One run.py process: its end-to-end metrics and each parallel
    engine's busy_cpus, or None when the run failed."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        return None
    # run.py passes node_bench's "name value unit" lines on to stderr.
    busy = {}
    for line in proc.stderr.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0].endswith(".busy_cpus"):
            busy[parts[0].split(".")[1]] = float(parts[1])
    return {name: m["value"] for name, m in result["metrics"].items()}, busy


def worse_by(metric, base, other):
    """Relative change from base to other in the metric's worse direction."""
    change = (other - base) / base
    return change if metric["better"] == "lower" else -change


def summarize(metrics, runs, seeds):
    """Per-metric statistics of one workload's runs, plus outlier runs."""
    rows, bad = {}, False
    for m in metrics:
        values = [r[m["name"]] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / med
        flags = []
        if iqr > m["bound"]:
            flags.append("iqr>bound")
            bad = True
        elif iqr > m["bound"] / 3:
            flags.append("iqr>bound/3")
        rows[m["name"]] = {"median": med, "iqr": iqr,
                           "spread": (max(values) - min(values)) / med,
                           "flags": flags}
    outliers = []
    for seed, run in zip(seeds, runs):
        off = [m["name"] for m in metrics
               if abs(run[m["name"]] / rows[m["name"]]["median"] - 1)
               > 2 * m["bound"]]
        if len(off) >= 2:
            outliers.append({"seed": seed, "metrics": off})
    return rows, outliers, bad


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    metrics = spec["end_to_end"]

    report, bad = {}, False
    for s in range(args.sets):
        for w in (w["name"] for w in spec["workloads"]):
            seeds, runs, slow = [], [], {}
            for seed in range(args.seed, args.seed + args.runs):
                result = run_once(w, seed, args.seconds)
                print(f"set {s + 1} {w} seed {seed}: "
                      f"{'ok' if result else 'FAILED'}", file=sys.stderr)
                if result is None:
                    bad = True
                    continue
                values, busy = result
                seeds.append(seed)
                runs.append(values)
                for engine, cpus in busy.items():
                    if cpus < SLOW_MODE_CPUS:
                        slow.setdefault(engine, []).append(seed)
                    else:
                        slow.setdefault(engine, [])
            if len(runs) < 2:
                continue
            rows, outliers, over = summarize(metrics, runs, seeds)
            bad |= over
            report.setdefault(w, []).append(
                {"seeds": seeds, "metrics": rows, "outliers": outliers,
                 "slow": slow})

    for w, sets in report.items():
        print(f"\n== {w}: {args.runs} runs per set, {args.seconds:g} s each")
        print(f"{'metric':28} {'bound':>6} {'median':>12} {'iqr':>7} "
              f"{'spread':>7}  flags")
        for i, data in enumerate(sets):
            print(f"-- set {i + 1}, seeds {data['seeds'][0]}..{data['seeds'][-1]}")
            for m in metrics:
                row = data["metrics"][m["name"]]
                print(f"{m['name']:28} {m['bound']:6.2f} {row['median']:12.5g} "
                      f"{row['iqr']:7.3f} {row['spread']:7.3f}  "
                      f"{' '.join(row['flags'])}")
            for o in data["outliers"]:
                print(f"  outlier run (set {i + 1}, seed {o['seed']}): "
                      f"{', '.join(o['metrics'])}")
            for engine, slow_seeds in data["slow"].items():
                mixed = 0 < len(slow_seeds) < len(data["seeds"])
                print(f"  {engine} in the slow mode in {len(slow_seeds)} of "
                      f"{len(data['seeds'])} runs {slow_seeds}"
                      f"{'  modes differ' if mixed else ''}")
            if i == 1:
                print("  set 2 vs set 1 (worse by):")
                for m in metrics:
                    first = sets[0]["metrics"][m["name"]]["median"]
                    change = worse_by(m, first,
                                      data["metrics"][m["name"]]["median"])
                    flag = "sets differ" if change > m["bound"] else ""
                    bad |= change > m["bound"]
                    print(f"    {m['name']:28} {change:+7.3f}  {flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
