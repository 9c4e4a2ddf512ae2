"""qgcalc benchmark: one workload, one run, one JSON line of metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus|dense|homs --seed N \
        --seconds S --trace 0|1

The run generates the workload's inputs from the seed, then issues a fixed
number of passes (see workloads.plan_passes), each in a fresh interpreter
with the BLAS thread pools pinned to one thread.  A pass runs its ops one
at a time.  With ``--trace 0`` the last line carries the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` one untraced and one traced pass give
the per-layer metrics and the tracing overhead.  Every verdict and every
produced file is checked; ``correct`` is false when an op other than a
known defect has a wrong outcome.  Exits 2 without a result when the
checkout has no qgcalc sources.
"""

import argparse
import hashlib
import io
import contextlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

import metrics

PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PINS)  # before numpy loads, here and in every pass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DEADLINE_S = 170.0
SETUP_PROBES = 3


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_checkout():
    if not os.path.isfile(os.path.join(SRC, "qgcalc", "__init__.py")):
        _fail(f"no qgcalc sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import qgcalc

    if os.path.dirname(os.path.abspath(qgcalc.__file__)) != os.path.join(SRC, "qgcalc"):
        _fail(f"imported qgcalc from {qgcalc.__file__}, not from {SRC}")


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "pins": PINS,
    }


class Runner:
    """Spawns passes and keeps the run inside its deadline."""

    def __init__(self, work, ops_file, started):
        self.work = work
        self.ops_file = ops_file
        self.deadline = started + DEADLINE_S
        self.count = 0

    def spawn(self, trace=False, setup_only=False):
        self.count += 1
        spec = os.path.join(self.work, f"pass{self.count}.spec.json")
        result = os.path.join(self.work, f"pass{self.count}.result.json")
        spawned = time.monotonic()
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"src": SRC, "ops": self.ops_file, "result": result, "trace": trace,
                       "setup_only": setup_only, "spawned": spawned}, fh)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            _fail_run("out of time before a pass")
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "passrun.py"), spec],
                                  env=dict(os.environ, PYTHONHASHSEED="0"), cwd=self.work,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            _fail_run("a pass ran past the deadline")
        if proc.returncode != 0:
            _fail_run(f"pass process exited {proc.returncode}:\n{proc.stderr}")
        with open(result, encoding="utf-8") as fh:
            out = json.load(fh)
        if os.path.dirname(out["qgcalc"]) != os.path.join(SRC, "qgcalc"):
            _fail_run(f"a pass imported qgcalc from {out['qgcalc']}, not from {SRC}")
        return out


def _fail_run(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(1)


def _flip_adjoint(v, dims):
    d1, d2 = dims
    return v.conj().T.reshape(d1, d2, d1, d2).transpose(1, 0, 3, 2).reshape(d1 * d2, d1 * d2)


class Rechecker:
    """Checks produced files; each distinct file content is checked once."""

    def __init__(self):
        self.seen = {}

    def __call__(self, op):
        with open(op["out"], "rb") as fh:
            key = (op["recheck"], op.get("source"), hashlib.sha1(fh.read()).hexdigest())
        if key not in self.seen:
            self.seen[key] = self._check(op)
        return self.seen[key]

    @staticmethod
    def _check(op):
        from qgcalc import cli, serialize

        if op["recheck"] == "dual":
            out, src = serialize.load_json(op["out"]), serialize.load_json(op["source"])
            dims = (out["source"]["dim"], out["target"]["dim"])
            back = _flip_adjoint(serialize.matrix_from_obj(out["V"]), dims)
            return bool((back == serialize.matrix_from_obj(src["V"])).all())
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify", op["out"], op["recheck"]])
        report = json.loads(buf.getvalue())
        return code == 0 and report["pass"] and all(c["pass"] for c in report["checks"])


def judge_pass(ops, result, recheck):
    by_id = {op["id"]: op for op in ops}
    rows = []
    for record in result["records"]:
        op = by_id[record["id"]]
        ok = True
        if op.get("out") and op.get("recheck"):
            ok = os.path.isfile(op["out"]) and recheck(op)
        rows.extend(metrics.expand(op, record, ok))
    return rows


def per_layer(spec, traced, plain, traced_rows, plain_rows):
    calls, totals, selfs = metrics.layer_stats(traced["trace"]["spans"])
    counters = traced["trace"]["counters"]
    ok_rate = lambda result, rows: sum(1 for r in rows if r[2]) / result["pass_s"]
    builds = calls.get("qgroup.build_from_unitary", 0)
    lookups = counters["groups.qg_from_group.hits"] + counters["groups.qg_from_group.misses"]
    values = {
        "qgroup.build_from_unitary.useful_share":
            counters["qgroup.build_from_unitary.distinct_w"] / builds if builds else 0.0,
        "groups.qg_from_group.hit_share":
            counters["groups.qg_from_group.hits"] / lookups if lookups else 0.0,
        "trace.ok_ops_per_s_ratio": ok_rate(traced, traced_rows) / ok_rate(plain, plain_rows),
    }
    for name in ("tensorleg.embed_on_legs.bytes_computed", "serialize.bytes_read",
                 "serialize.bytes_written"):
        values[name] = counters[name]
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        stem, _, field = name.rpartition(".")
        if name in values:
            value = values[name]
        elif field == "calls":
            value = calls.get(stem, 0)
        elif field == "total_s":
            value = totals.get(stem, 0.0)
        elif field == "self_s":
            value = selfs.get(stem, 0.0)
        else:
            _fail_run(f"no rule computes the per-layer metric {name}")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def _terminate(signum, frame):
    # raising here makes subprocess.run kill and reap the running pass
    raise SystemExit(128 + signum)


def main():
    started = time.monotonic()
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        _fail("BENCHMARK.json not found; run from the root of a checkout")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    _import_checkout()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ops = workloads.generate(args.workload, args.seed, work)
    ops_file = os.path.join(work, "ops.json")
    with open(ops_file, "w", encoding="utf-8") as fh:
        json.dump(ops, fh)
    env = environment()
    runner = Runner(work, ops_file, started)
    recheck = Rechecker()

    def run_pass(trace=False):
        result = runner.spawn(trace=trace)
        return result, judge_pass(ops, result, recheck)

    if args.trace:
        plain, plain_rows = run_pass()
        traced, traced_rows = run_pass(trace=True)
        rows = plain_rows + traced_rows
        values = per_layer(spec, traced, plain, traced_rows, plain_rows)
        extra = {"pass_s": [round(plain["pass_s"], 3), round(traced["pass_s"], 3)],
                 "spans": len(traced["trace"]["spans"])}
    else:
        setups = [runner.spawn(setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
        passes, pass_rows = [], []
        for _ in range(workloads.plan_passes(args.workload, args.seconds)):
            result, judged = run_pass()
            passes.append(result)
            pass_rows.append(judged)
            setups.append(result["setup_s"])
        rows = [r for judged in pass_rows for r in judged]
        e2e, extra = metrics.end_to_end(passes, pass_rows, setups)
        extra["pass_s"] = [round(p["pass_s"], 3) for p in passes]
        values = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                  for m in spec["end_to_end"]}

    failed = [r for r in rows if not r[2]]
    extra["failed_share"] = metrics.failed_share(rows)
    unexpected = sorted({r[0] for r in failed if r[3] is None})
    defects = sorted({f"{r[0]} ({r[3]})" for r in failed if r[3] is not None})
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"ops {len(rows)} failed {len(failed)} " + json.dumps(extra, sort_keys=True))
    for name, m in values.items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    for line in defects:
        print(f"  known defect, failed: {line}")
    for line in unexpected:
        print(f"  WRONG OUTCOME: {line}")
    print(json.dumps({"correct": not unexpected, "attempted": len(rows),
                      "failed": len(failed), "metrics": values}))


if __name__ == "__main__":
    main()
