"""Steadiness check: do two independent sets of runs of one commit agree?

Usage, from the root of a checkout:

    python3 perfbench/steady.py                          # every workload
    python3 perfbench/steady.py --workloads relations    # a subset

For each workload this makes two sets of ten runs, each run
``perfbench/run.py --workload W --seed S --trace 0`` with a seed of its
own and the ``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end
metric it prints each set's median and quartiles and the spread (quartile
distance over the median), then says whether the sets agree: every
spread within the metric's bound, and the second set's median within the
bound of the first set's, in either direction.  Exits 0 when they agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS_PER_SET = 10


def quartiles(values: list) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def worsening(first: float, later: float, better: str) -> float:
    """By what share ``later`` is worse than ``first`` (negative when better)."""
    return (later - first) / first if better == "lower" else (first - later) / first


def one_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs not correct: {result}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None, help="comma-separated; default every workload")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    specs = bench["end_to_end"]
    agree = True
    for name in names:
        sets = []
        for k in range(SETS):
            runs = []
            for seed in range(1 + k * RUNS_PER_SET, 1 + (k + 1) * RUNS_PER_SET):
                runs.append(one_run(name, seed))
                print(f"{name} set {k + 1} seed {seed}: "
                      + " ".join(f"{m}={v['value']:.6g}" for m, v in runs[-1]["metrics"].items()),
                      file=sys.stderr, flush=True)
            sets.append({s["name"]: [r["metrics"][s["name"]]["value"] for r in runs] for s in specs})
        print(f"workload {name}: {SETS} sets of {RUNS_PER_SET} runs")
        for spec in specs:
            metric, bound = spec["name"], spec["bound"]
            first_median = quartiles(sets[0][metric])[1]
            for k, values in enumerate(s[metric] for s in sets):
                q1, q2, q3 = quartiles(values)
                sp = spread(values)
                ok = sp <= bound
                agree &= ok
                line = (f"  {metric:14s} set {k + 1}: median {q2:.6g} {spec['unit']}  "
                        f"q1 {q1:.6g}  q3 {q3:.6g}  spread {sp:.4f} (bound {bound})"
                        + ("  ok" if ok else "  TOO WIDE"))
                if ok and sp >= bound / 3:
                    line += " (above a third of the bound)"
                if k > 0:
                    ok = abs(q2 - first_median) / first_median <= bound
                    agree &= ok
                    line += (f"  vs set 1: {worsening(first_median, q2, spec['better']):+.4f} worse"
                             + ("" if ok else " OUTSIDE THE BOUND"))
                print(line)
    print("sets agree within the bounds" if agree else "sets do NOT agree within the bounds")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
