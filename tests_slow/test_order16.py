"""Order-16 tier: the whole `verify … qg` battery on a dense d = 16 unitary.

Outside the default test paths because one run takes seconds; run it with

    PYTHONPATH=src python -m pytest -q tests_slow

The battery runs in a child process, so that its peak resident set is its
own and not whatever this test process reached before.
"""

import json
import os
import subprocess
import sys

import numpy as np

from qgcalc.groups import cyclic_group, group_unitary
from qgcalc.serialize import matrix_to_obj, write_json

# Every three-leg check streams its d^3 x d^3 operators slab by slab; forming
# one whole takes 268 MB at d = 16, and the battery used to peak at 1.1 GB.
MAX_RSS_MB = 500

_CHILD = """
import resource, sys
from qgcalc.cli import main
code = main(["verify", sys.argv[1], "qg"])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
raise SystemExit(code)
"""


def _haar_unitary(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_gauged_z16_function_picture_passes_the_qg_battery(tmp_path):
    d = 16
    uu = np.kron(*[_haar_unitary(d, np.random.default_rng(1616))] * 2)
    w = uu @ group_unitary(cyclic_group(d)) @ uu.conj().T
    path = tmp_path / "z16_c0.json"
    write_json(str(path), {"dim": d, "W": matrix_to_obj(w)})
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    report = json.loads(child.stdout)
    failed = [c for c in report["checks"] if not c["pass"]]
    assert child.returncode == 0 and not failed, (failed, child.stderr)
    names = {c["name"] for c in report["checks"]}
    assert {
        "pentagon",
        "comultMembership",
        "coassociativity",
        "intertwinerDimensionOne",
        "coinvariantDimensionOne",
        "manageability",
    } <= names
    # ru_maxrss is in kilobytes on Linux
    peak_mb = int(child.stderr.strip().splitlines()[-1]) / 1024
    assert peak_mb <= MAX_RSS_MB, f"peak RSS {peak_mb:.0f} MB"
