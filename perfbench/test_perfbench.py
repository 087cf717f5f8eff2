"""Tests of the benchmark harness itself.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from superbraid.cli import main as cli_main  # noqa: E402

import run  # noqa: E402
from child import run_suite  # noqa: E402
from tracer import Tracer, aggregate  # noqa: E402

TINY = ["verify", "braid", "--n", "1", "--m", "1", "--d", "2", "--fmt", "json"]


def test_passing_suite_counts_checks():
    res = run_suite(cli_main, TINY, 28)
    assert res == {"exit": 0, "checks": 28, "passed": 28, "ok": True, "reason": None}


def test_check_count_mismatch_is_failure():
    res = run_suite(cli_main, TINY, 29)
    assert not res["ok"] and "expected 29" in res["reason"]


def test_must_fail_suite_is_failure():
    argv = ["verify", "hecke", "--a", "1", "--p", "1", "--b", "1", "--q", "1",
            "--n", "2", "--m", "1", "--d", "2", "--check-params", "2,1,1,1", "--fmt", "json"]
    res = run_suite(cli_main, argv, 5)
    assert res["exit"] == 1 and not res["ok"]


def test_usage_errors_are_failures():
    missing = run_suite(cli_main, ["verify", "braid", "--n", "2", "--fmt", "json"], 1)
    assert missing["exit"] == 2 and not missing["ok"]
    unknown = run_suite(cli_main, ["verify", "nosuch", "--fmt", "json"], 1)
    assert unknown["exit"] == 2 and not unknown["ok"]


def test_zero_check_report_is_failure():
    res = run_suite(cli_main, ["verify", "braid", "--n", "1", "--m", "1", "--d", "-1", "--fmt", "json"], 0)
    assert res["exit"] == 0 and res["checks"] == 0 and not res["ok"]


def test_crash_is_failure():
    def boom(argv):
        raise RuntimeError("internal inconsistency")

    res = run_suite(boom, TINY, 28)
    assert res["exit"] == 1 and "internal inconsistency" in res["reason"]


def test_self_time_on_nested_fake_spans():
    # root [0,10] > a [1,4] > b [2,3]; root > c [5,9] > c [6,8] (recursion)
    spans = [
        ("root", -1, 0, 0.0, 10.0),
        ("a", 0, 0, 1.0, 4.0),
        ("b", 1, 0, 2.0, 3.0),
        ("c", 0, 0, 5.0, 9.0),
        ("c", 3, 0, 6.0, 8.0),
    ]
    agg = aggregate(spans)
    assert agg["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert agg["a"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert agg["b"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert agg["c"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


def test_self_time_merges_overlapping_children():
    spans = [("p", -1, 0, 0.0, 10.0), ("x", 0, 0, 1.0, 5.0), ("y", 0, 0, 4.0, 12.0)]
    assert aggregate(spans)["p"]["self_s"] == 1.0


def test_tracer_records_parent_and_root():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4 and outer(2) == 6
    names = [(s[0], s[1], s[2]) for s in tracer.spans]
    assert names == [("outer", -1, 0), ("inner", 0, 0), ("outer", -1, 2), ("inner", 2, 2)]


def test_seed_permutes_order_deterministically():
    suites = [{"argv": ["verify", k], "checks": 1} for k in ("a", "b", "c", "d")]
    first = run.suite_order(suites, 7)
    assert first == run.suite_order(suites, 7)
    assert sorted(s["argv"][1] for s in first) == ["a", "b", "c", "d"]
    orders = {tuple(s["argv"][1] for s in run.suite_order(suites, seed)) for seed in range(20)}
    assert len(orders) > 1
    assert suites[0]["argv"][1] == "a"  # the recorded list is left alone


def test_child_env_drops_inherited_cap(monkeypatch):
    monkeypatch.setenv("SUPERBRAID_CAP", "10")
    assert "SUPERBRAID_CAP" not in run.child_env()


def test_recorded_counts_cover_every_workload():
    bench, workloads = run.load_spec()
    assert [w["name"] for w in bench["workloads"]] == list(workloads)
    for spec in workloads.values():
        assert spec["suites"] and all(s["checks"] > 0 for s in spec["suites"])


def test_count_hooks_are_charged_to_no_span():
    tracer = Tracer()

    def slow_hook(args, result):
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass

    inner = tracer.wrap("inner", lambda: None, slow_hook)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    agg = aggregate(tracer.spans)
    assert agg["outer"]["total_s"] < 0.01 and agg["outer"]["self_s"] < 0.01
