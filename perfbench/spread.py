"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload paper_fit tomo_batch --seeds 1 2 3 4 5 \
        [--trace 0] [--out DIR]

Runs go seed by seed, and within a seed workload by workload, so a slow
phase of the machine lasting minutes is shared out over the workloads
instead of falling on one workload's set. For every workload and metric it
prints the median, the quartiles (``statistics.quantiles`` with ``n=4``) and
the spread, the distance between the quartiles as a share of the median,
next to the metric's bound from ``BENCHMARK.json``. With ``--out`` it also
writes every run's result and the summary to ``DIR/<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    context = next(json.loads(line[len("context "):]) for line in lines if line.startswith("context "))
    return {"seed": seed, "wall_s": time.perf_counter() - t0, "context": context,
            "result": json.loads(lines[-1])}


def summarize(runs: list[dict], spec: dict, kind: str) -> dict:
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    summary = {}
    for name in bounds:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        mid = median(values)
        summary[name] = {
            "median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else 0.0, "bound": bounds[name],
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    runs = {workload: [] for workload in args.workload}
    for seed in args.seeds:
        for workload in args.workload:
            runs[workload].append(run_once(workload, seed, spec["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[workload][-1]["result"]["metrics"].items()
            )[:400], flush=True)
    for workload, done in runs.items():
        summary = summarize(done, spec, "per_layer" if args.trace else "end_to_end")
        print(workload)
        for name, s in summary.items():
            bound = "" if s["bound"] is None else f"  bound {s['bound']:.2f}"
            print(f"  {name:45s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.3f}{bound}")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, f"{workload}.json"), "w", encoding="utf-8") as fh:
                json.dump({"workload": workload, "runs": done, "summary": summary}, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
