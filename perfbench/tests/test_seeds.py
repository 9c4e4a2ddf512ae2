"""Seed handling: another seed changes the data, never the work.

Two seeds must give the same op mix, the same verdicts and identical work
counts.  The runs are real traced benchmark runs (about a minute per
workload), so this file is meant for changes to the benchmark itself:

    python3 -m pytest perfbench/tests/test_seeds.py

corpus is left out: it reads only the shipped corpus and ignores the seed.
The serialize byte counts are left out too, because the length of a
float's JSON text depends on its value.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORK_COUNTS = ("calls", "useful_share", "hit_share", "bytes_computed")
SAMPLE_FILE = {"homs": "v_q42_c0.json", "dense": "w_c0.json"}


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = out.stdout.strip().splitlines()
    verdicts = sorted(line.strip() for line in lines if line.startswith("  known defect"))
    return json.loads(lines[-1]), verdicts


@pytest.fixture(scope="module", autouse=True)
def checkout_sources():
    sys.path.insert(0, str(ROOT / "src"))


@pytest.mark.parametrize("workload", ["homs", "dense"])
def test_op_mix_does_not_depend_on_the_seed(tmp_path, workload):
    import workloads

    mixes, data = [], []
    for seed in (1, 2):
        work = tmp_path / "work"
        shutil.rmtree(work, ignore_errors=True)
        ops = workloads.generate(workload, seed, str(work))
        mixes.append(ops)
        with open(work / SAMPLE_FILE[workload], "rb") as fh:
            data.append(fh.read())
    assert mixes[0] == mixes[1]
    assert data[0] != data[1]


@pytest.mark.parametrize("workload", ["homs", "dense"])
def test_verdicts_and_work_counts_do_not_depend_on_the_seed(workload):
    (first, defects1), (second, defects2) = traced_run(workload, 1), traced_run(workload, 2)
    assert defects1 == defects2
    for key in ("correct", "attempted", "failed"):
        assert first[key] == second[key]
    counts = [name for name in first["metrics"] if name.rsplit(".", 1)[-1] in WORK_COUNTS]
    assert counts
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_run_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "homs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
