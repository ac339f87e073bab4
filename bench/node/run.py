#!/usr/bin/env python3
"""Build node_bench from source and run the node-path benchmark.

Run from the repository root:

  python3 bench/node/run.py --workload eth-vm --seed 7 --seconds 20 --trace 0
  python3 bench/node/run.py            # every workload, one process each

The build goes to .bench_build/. A single-workload run ends its output with
one JSON line, {"correct", "attempted", "failed", "metrics"}: with --trace 0
the metrics are BENCHMARK.json's end_to_end set, with --trace 1 its
per_layer set, and the run also writes the Chrome trace
.bench_build/trace-<workload>-<seed>.json. Without --workload every workload
runs in its own process (so peak_rss_mb is per workload) and the last line
is one JSON object keyed by workload. The exit code is 0 only when every
correctness check passed.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "node_bench"


def build():
    """Bring node_bench up to date; quick when nothing changed."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    subprocess.run(["cmake", "-S", str(ROOT / "bench" / "node"),
                    "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "node_bench",
                    "-j", jobs], check=True, **quiet)


def run_workload(spec, workload, seed, seconds, trace):
    """One node_bench process; returns the object that main() prints."""
    result_path = BUILD / f"result-{workload}-{seed}.json"
    result_path.unlink(missing_ok=True)
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--json={result_path}"]
    if trace:
        cmd.append(f"--trace={BUILD / f'trace-{workload}-{seed}.json'}")
    code = subprocess.run(cmd, stdout=sys.stderr).returncode
    if not result_path.exists():
        raise SystemExit(f"node_bench exited with {code} and wrote no result")
    raw = json.loads(result_path.read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in raw["metrics"]]
    correct = raw["correct"] and code == 0 and not missing
    if raw["correct"] and missing:
        print(f"run.py: node_bench did not report {missing}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: raw["metrics"][m["name"]]
                    for m in wanted if m["name"] in raw["metrics"]},
    }


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    if args.workload:
        out = run_workload(spec, args.workload, args.seed, args.seconds,
                           args.trace)
        ok = out["correct"]
    else:
        out = {w: run_workload(spec, w, args.seed, args.seconds, args.trace)
               for w in names}
        ok = all(r["correct"] for r in out.values())
    print(json.dumps(out))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
