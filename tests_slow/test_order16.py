"""Order-16 tier: the whole `verify … qg` battery on a dense d = 16 unitary.

Outside the default test paths because one run takes seconds and about a
gigabyte; run it with

    PYTHONPATH=src python -m pytest -q tests_slow
"""

import json

import numpy as np

from qgcalc.cli import main
from qgcalc.groups import cyclic_group, group_unitary
from qgcalc.serialize import matrix_to_obj, write_json


def _haar_unitary(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_gauged_z16_function_picture_passes_the_qg_battery(tmp_path, capsys):
    d = 16
    uu = np.kron(*[_haar_unitary(d, np.random.default_rng(1616))] * 2)
    w = uu @ group_unitary(cyclic_group(d)) @ uu.conj().T
    path = tmp_path / "z16_c0.json"
    write_json(str(path), {"dim": d, "W": matrix_to_obj(w)})
    code = main(["verify", str(path), "qg"])
    report = json.loads(capsys.readouterr().out)
    failed = [c for c in report["checks"] if not c["pass"]]
    assert code == 0 and not failed, failed
    names = {c["name"] for c in report["checks"]}
    assert {
        "pentagon",
        "comultMembership",
        "coassociativity",
        "intertwinerDimensionOne",
        "coinvariantDimensionOne",
        "manageability",
    } <= names
