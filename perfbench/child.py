"""One benchmark pass, run in a fresh single-threaded interpreter.

Usage: ``python3 perfbench/child.py SRC_DIR JOB_JSON``

Times ``import superbraid.cli`` first, before anything else is imported,
so the figure is the package's own import cost.  Then, unless the job is
import-only, it runs the job's suites in order through
``superbraid.cli.main([... , "--fmt", "json"])``, checks every report, and
prints one JSON object on standard output.  With ``"trace": true`` the
suites run under the span tracer and the spans are aggregated at the end.
"""

import sys
import time


def run_suite(main, argv, expected_checks) -> dict:
    """Run one suite through ``main`` and judge its report.

    The suite fails on an exit status other than 0, a report that does not
    parse or is not ok, a report with no checks, or a check count other
    than ``expected_checks``.
    """
    # imported here, not at the top, so that none of them is loaded before the timed import
    import io
    import json
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    reason = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects usage this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash inside a suite is a failed suite, not a dead benchmark
            code = 1
            reason = f"{type(exc).__name__}: {exc}"
    checks = passed = 0
    if code != 0:
        reason = reason or f"exit status {code}: {err.getvalue().strip()[-200:]}"
    else:
        try:
            payload = json.loads(out.getvalue())
            checks = len(payload["checks"])
            passed = sum(1 for c in payload["checks"] if c["status"] == "pass")
            ok = payload["ok"] is True
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"unparseable report: {exc}"
        else:
            if not ok or passed != checks:
                reason = f"report not ok: {passed} of {checks} checks passed"
            elif checks == 0:
                reason = "report has no checks"
            elif checks != expected_checks:
                reason = f"{checks} checks, expected {expected_checks}"
    return {"exit": code, "checks": checks, "passed": passed, "ok": reason is None, "reason": reason}


def run_pass(main, suites, tracer=None) -> dict:
    """Run ``suites`` in order; ``verify_s`` spans the first call to the last parsed report."""
    clock = time.perf_counter
    results = []
    start = clock()
    for suite in suites:
        call = main
        if tracer is not None:
            call = tracer.wrap("cli.verify_" + suite["argv"][1], main)
        t0 = clock()
        res = run_suite(call, suite["argv"] + ["--fmt", "json"], suite["checks"])
        res["kind"] = suite["argv"][1]
        res["seconds"] = clock() - t0
        results.append(res)
    return {"verify_s": clock() - start, "suites": results}


def main() -> int:
    src = sys.argv[1]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import superbraid.cli

    setup_s = time.perf_counter() - t0

    import json
    import os
    import resource

    if not os.path.abspath(superbraid.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"superbraid was imported from {superbraid.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    job = json.loads(sys.argv[2])
    result = {"setup_s": setup_s}
    if job.get("suites"):
        tracer = None
        if job.get("trace"):
            from tracer import Tracer, aggregate

            tracer = Tracer()
            tracer.install()
        result.update(run_pass(superbraid.cli.main, job["suites"], tracer))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = aggregate(tracer.spans)
            result["counts"] = tracer.counts
            result["spans"] = len(tracer.spans)
            if job.get("spans_out"):
                os.makedirs(os.path.dirname(job["spans_out"]), exist_ok=True)
                with open(job["spans_out"], "w") as fh:
                    json.dump({"fields": ["name", "parent", "root", "start", "end"], "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
