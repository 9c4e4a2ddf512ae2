"""Order-16 tier: the whole `verify … qg` battery on dense d = 16 unitaries,
gauged Z16, Z4xZ4 and Z2^4 in both pictures.

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
import pytest

from qgcalc.groups import cyclic_group, group_unitary, product_group
from qgcalc.serialize import matrix_to_obj, write_json
from qgcalc.tensorleg import LegSpace, flip_adjoint

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


GROUPS = {
    "Z16": lambda: cyclic_group(16),
    "Z4xZ4": lambda: product_group(cyclic_group(4), cyclic_group(4)),
    "Z2^4": lambda: product_group(*[product_group(cyclic_group(2), cyclic_group(2))] * 2),
}


@pytest.mark.parametrize("picture", ["c0", "cstar"])
@pytest.mark.parametrize("name", list(GROUPS))
def test_gauged_order16_group_passes_the_qg_battery(tmp_path, name, picture):
    d = 16
    w = group_unitary(GROUPS[name]())
    if picture == "cstar":
        # the dual picture's unitary, as FiniteQuantumGroup.dual makes it
        w = flip_adjoint(w, LegSpace((d, d)))
    uu = np.kron(*[_haar_unitary(d, np.random.default_rng(1616))] * 2)
    w = uu @ w @ uu.conj().T
    path = tmp_path / "w.json"
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
