"""Verification benchmark for superbraid.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload relations --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all           # every workload in turn

A workload is a fixed list of ``superbraid verify`` suites
(``perfbench/workloads.json``).  The seed only permutes their order.  Each
pass starts one fresh single-threaded interpreter (``child.py``) that
imports the package from ``src/`` and runs the suites one after another
through ``superbraid.cli.main`` (a closed loop with one client).  Passes
repeat until ``--seconds`` is used up; figures are medians over passes.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
reported; with ``--trace 1`` traced and untraced passes alternate and the
per-layer metrics are reported, including the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
# Import-only interpreters before the first pass and after every pass (after
# one discarded warm-up).  Import time moves with the host's load more than a
# pass does, so the samples are spread over the whole run.
SETUP_SAMPLES = 10
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def load_spec() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    with open(HERE / "workloads.json") as fh:
        workloads = json.load(fh)["workloads"]
    return bench, workloads


def suite_order(suites: list, seed: int) -> list:
    """The workload's suites in the order the seed picks."""
    order = list(suites)
    random.Random(seed).shuffle(order)
    return order


def child_env() -> dict:
    """Environment for a pass: no inherited cap, a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if k not in ("SUPERBRAID_CAP", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(job: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(SRC), json.dumps(job)],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(suites: list, seconds: int, trace: bool, deadline: float, spans_out=None) -> dict:
    """Passes until ``seconds`` would be overrun, with set-up samples around each."""

    def sample_setup():
        if not trace:
            setup.extend(run_child({}, deadline)["setup_s"] for _ in range(SETUP_SAMPLES))

    run_child({}, deadline)  # warm-up: byte-compiles the package on a fresh checkout
    setup, passes = [], []
    start = time.monotonic()
    while True:
        sample_setup()
        traced = trace and len(passes) % 2 == 0
        job = {"suites": suites, "trace": traced}
        if traced and spans_out is not None:
            job["spans_out"] = str(spans_out)
        passes.append(run_child(job, deadline))
        passes[-1]["traced"] = traced
        setup.append(passes[-1]["setup_s"])
        elapsed = time.monotonic() - start
        projected = elapsed * (len(passes) + 1) / len(passes)
        if len(passes) >= (2 if trace else 1) and projected > seconds:
            break
    sample_setup()
    return {"setup": setup, "passes": passes}


def summarize(run: dict, trace: bool, bench: dict) -> dict:
    passes = run["passes"]
    attempted = sum(len(p["suites"]) for p in passes)
    failed = sum(1 for p in passes for s in p["suites"] if not s["ok"])
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    med = statistics.median
    if not trace:
        values = {
            "verify_s": med(p["verify_s"] for p in plain),
            "setup_s": med(run["setup"]),
            "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
            "checks_passed": min(sum(s["passed"] for s in p["suites"]) for p in plain),
        }
        specs = bench["end_to_end"]
    else:
        values = {"trace.overhead_s": med(p["verify_s"] for p in traced) - med(p["verify_s"] for p in plain)}
        for spec in bench["per_layer"]:
            values.setdefault(spec["name"], med(layer_value(spec["name"], p) for p in traced))
        specs = bench["per_layer"]
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_value(name: str, p: dict):
    """One per-layer metric read off a traced pass (0 where the pass never entered the layer)."""
    if name == "trace.verify_s":
        return p["verify_s"]
    if name == "trace.spans":
        return p["spans"]
    if name in p["counts"]:
        return p["counts"][name]
    if name.startswith("cli.") and name.endswith("_s"):
        return p["layers"].get(name[: -len("_s")], {}).get("total_s", 0.0)
    span, _, field = name.rpartition(".")
    return p["layers"].get(span, {}).get(field, 0)


def report(name: str, seed: int, suites: list, run: dict, result: dict, trace: bool) -> None:
    passes = run["passes"]
    order = ", ".join(s["argv"][1] for s in suites)
    print(f"workload {name}  seed {seed}  order: {order}  trace {int(trace)}")
    print("  verify_s of each pass: " + ", ".join(
        f"{p['verify_s']:.3f}{' (traced)' if p['traced'] else ''}" for p in passes))
    for key, m in result["metrics"].items():
        print(f"  {key:42s} {m['value']:>14.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':42s} {frac:>14.6g} ratio  ({result['failed']} of {result['attempted']} suites)")
    for p in passes:
        for s in p["suites"]:
            if not s["ok"]:
                print(f"  FAILED verify {s['kind']}: {s['reason']}")
    plain = [p for p in passes if not p["traced"]]
    if plain:
        for kind in dict.fromkeys(s["kind"] for s in plain[0]["suites"]):
            secs = statistics.median(s["seconds"] for p in plain for s in p["suites"] if s["kind"] == kind)
            print(f"  {'cli.verify_' + kind + '_s (untraced)':42s} {secs:>14.6g} s")
    traced = [p for p in passes if p["traced"]]
    if traced:
        total, layers = traced[0]["verify_s"], traced[0]["layers"]
        print(f"  shares of the first traced pass ({total:.3f} s):  self  total  calls")
        for span, agg in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])[:12]:
            print(f"    {span:40s} {100 * agg['self_s'] / total:5.1f}% {100 * agg['total_s'] / total:5.1f}%  {agg['calls']}")


def run_workload(name: str, seed: int, seconds: int, trace: bool, bench: dict, workloads: dict, deadline: float) -> dict:
    suites = suite_order(workloads[name]["suites"], seed)
    spans_out = SPANS_DIR / f"spans-{name}.json" if trace else None
    run = measure(suites, seconds, trace, deadline, spans_out)
    result = summarize(run, trace, bench)
    report(name, seed, suites, run, result, trace)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    if not (SRC / "superbraid" / "cli.py").is_file():
        print(f"no superbraid sources under {SRC}", file=sys.stderr)
        return 2
    bench, workloads = load_spec()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.workload == "all":
        names = list(workloads)
    elif args.workload in workloads:
        names = [args.workload]
    else:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)} or all", file=sys.stderr)
        return 2
    results = {}
    for k, name in enumerate(names):
        deadline = start + RUN_LIMIT_S * (k + 1)
        try:
            results[name] = run_workload(name, args.seed, seconds, bool(args.trace), bench, workloads, deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"workload {name}: {exc}", file=sys.stderr)
            return 1
    correct = all(r["correct"] for r in results.values())
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
