"""One benchmark pass, run in a fresh interpreter by run.py.

Usage: python3 passrun.py SPEC.json

SPEC names the checkout's ``src`` directory, the op list, the result file,
the monotonic time at which the parent spawned this process, and whether
to trace or only to set up.  Ops run one at a time (a closed loop with one
client).  The result file holds each op's latency and raw outcome; the
parent judges them.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an uncaught exception is an outcome to record
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return seconds, code, error, out.getvalue()


def _report_passes(obj):
    return bool(obj.get("pass")) and all(c["pass"] for c in obj.get("checks", ()))


def _api_call(op):
    from qgcalc import bicharacter, coactions, homviews, serialize, tensorleg
    from qgcalc.qgroup import EQUATION_TOL

    arrows = []
    for path in op["files"]:
        obj = serialize.load_json(path)
        source, target, v = serialize.bicharacter_parts_from_obj(obj, os.path.dirname(path))
        arrows.append(bicharacter.check_bicharacter(v, source, target))
    if op["call"] == "compose_functors_check":
        first, second = (homviews.right_from_bicharacter(v) for v in arrows)
        residual = coactions.compose_functors_check(first, second)
    else:
        (v,) = arrows
        regular = coactions.check_corepresentation(v.source.W, v.source)
        pushed = coactions.pushforward_corep(regular, v)
        residual = tensorleg.residual_between(pushed.X, v.V)
    return residual <= EQUATION_TOL


def run_op(op):
    """Execute one op; returns its raw record."""
    from qgcalc import cli

    if op["kind"] == "api":
        t0 = time.perf_counter()
        verdict, error = None, None
        try:
            verdict = _api_call(op)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        return {"id": op["id"], "seconds": time.perf_counter() - t0, "exit": None,
                "error": error, "verdict": verdict}
    seconds, code, error, stdout = _run_cli(cli, op["argv"])
    record = {"id": op["id"], "seconds": seconds, "exit": code, "error": error, "verdict": None}
    if error is None and stdout.strip():
        try:
            report = json.loads(stdout)
        except ValueError:
            return record
        if op["kind"] == "suite":
            record["subjects"] = [
                {"subject": s["subject"], "seconds": s["wallTime"], "verdict": _report_passes(s)}
                for s in report["subjects"]
            ]
        else:
            record["verdict"] = _report_passes(report)
    return record


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import qgcalc
    import qgcalc.cli

    with open(spec["ops"], encoding="utf-8") as fh:
        ops = json.load(fh)
    recorder = None
    if spec["trace"]:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    first = time.monotonic()
    result = {"setup_s": first - spec["spawned"], "qgcalc": qgcalc.__file__, "records": []}
    if not spec["setup_only"]:
        t0 = time.perf_counter()
        for op in ops:
            if recorder is not None:
                recorder.start_op(op["id"])
            result["records"].append(run_op(op))
        result["pass_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        result["trace"] = recorder.dump()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
