"""Order-16 tier: the whole `verify … qg` battery on dense d = 16 unitaries,
gauged Z16, Z4xZ4 and Z2^4 in both pictures, the right and left homs of
the gauged Z16 identity arrow, and `verify` on their hom files, which
extracts the bicharacter, with `induce` along the right one, the
conjugate-transpose construction on the gauged Z16, the composite of its
identity arrow with itself, and the rejection of a 1e-6 rotation of that
arrow.

Outside the default test paths because one run takes seconds; run it with

    PYTHONPATH=src python -m pytest -q tests_slow

Each run is a child process, so that its peak resident set is its own and
not whatever this test process reached before.  A child reports its VmHWM:
its ru_maxrss would start from the peak of the process that spawned it.
The rejection runs in this process instead, and has no peak bound.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qgcalc.bicharacter import check_bicharacter
from qgcalc.errors import BicharacterViolation
from qgcalc.groups import cyclic_group, group_unitary, product_group
from qgcalc.homviews import LeftQGHom, RightQGHom
from qgcalc.qgroup import EQUATION_TOL, PENTAGON_TOL
from qgcalc.serialize import load_qg, matrix_to_obj, write_json
from qgcalc.tensorleg import LegSpace, flip_adjoint

# No check in this tier forms a d^3 x d^3 operator whole; one takes 268 MB at
# d = 16, and the battery used to peak at 1.1 GB.  The children peak at 57-62 MB
# (the qg battery, the transpose and the homs, which form no image stack),
# 110 MB (compose) and 188 MB (the hom files and induce, most of it parsing the
# files), so a whole d^3 x d^3 operator exceeds this.
MAX_RSS_MB = 300

QG_CHILD = """
import sys
from qgcalc.cli import main
code = main(["verify", sys.argv[1], "qg"])
with open("/proc/self/status") as status:
    print(status.read().split("VmHWM:")[1].split()[0], file=sys.stderr)
raise SystemExit(code)
"""


# the homs of the identity arrow at W; the bicharacter they are made from
# is W itself, so no extraction is run
_HOM_CHILD = """
import json, sys
from qgcalc.bicharacter import identity
from qgcalc.homviews import left_from_bicharacter, right_from_bicharacter
from qgcalc.serialize import load_qg
v = identity(load_qg(sys.argv[1]))
homs = {"right": right_from_bicharacter(v), "left": left_from_bicharacter(v)}
print(json.dumps({kind: hom.residuals for kind, hom in homs.items()}))
with open("/proc/self/status") as status:
    print(status.read().split("VmHWM:")[1].split()[0], file=sys.stderr)
"""


# the right and left hom files of the identity arrow at W, written from the
# maps (id (x) f)Delta and (f (x) id)Delta of its homs, which read F off W's
# slices and need no check of V; each file verified through the CLI, whose
# hom is the file's coefficients and which reads F back from them by least
# squares; then the comultiplication coaction induced along the right hom
_HOM_FILES_CHILD = """
import contextlib, io, json, os, sys
from qgcalc.bicharacter import Bicharacter
from qgcalc.cli import main
from qgcalc.coactions import comultiplication_coaction
from qgcalc.homviews import left_from_bicharacter, right_from_bicharacter
from qgcalc.serialize import coaction_to_obj, hom_to_obj, load_qg, write_json
c = load_qg(sys.argv[1])
v = Bicharacter(c, c, c.W, {})
work = os.path.dirname(sys.argv[1])
files = {name: os.path.join(work, name + ".json") for name in ("right", "left", "co")}
write_json(files["right"], hom_to_obj("right", c, c, right_from_bicharacter(v).deltaR))
write_json(files["left"], hom_to_obj("left", c, c, left_from_bicharacter(v).deltaL))
write_json(files["co"], coaction_to_obj(comultiplication_coaction(c)))
del c, v
reports = {}
for name, argv in (
    ("right", ["verify", files["right"], "hom"]),
    ("left", ["verify", files["left"], "hom"]),
    ("induce", ["induce", files["co"], files["right"]]),
):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    reports[name] = dict(json.loads(out.getvalue()), code=code)
print(json.dumps(reports))
with open("/proc/self/status") as status:
    print(status.read().split("VmHWM:")[1].split()[0], file=sys.stderr)
"""


# the identity arrow at W composed with itself through the CLI, the
# composite verified from its file and compared with W
_COMPOSE_CHILD = """
import contextlib, io, json, os, sys
import numpy as np
from qgcalc.bicharacter import Bicharacter
from qgcalc.cli import main
from qgcalc.serialize import bicharacter_to_obj, load_json, load_qg, matrix_from_obj, write_json
c = load_qg(sys.argv[1])
work = os.path.dirname(sys.argv[1])
files = {name: os.path.join(work, name + ".json") for name in ("v", "o")}
write_json(files["v"], bicharacter_to_obj(Bicharacter(c, c, c.W, {})))
reports = {}
for name, argv in (
    ("compose", ["compose", files["v"], files["v"], "--out", files["o"]]),
    ("verify", ["verify", files["o"], "bicharacter"]),
):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    reports[name] = dict(json.loads(out.getvalue()), code=code)
composite = matrix_from_obj(load_json(files["o"])["V"])
reports["distance"] = float(np.max(np.abs(composite - c.W)))
print(json.dumps(reports))
with open("/proc/self/status") as status:
    print(status.read().split("VmHWM:")[1].split()[0], file=sys.stderr)
"""


# the conjugate-transpose construction on W: Cbar, a build of its own for a
# complex W, its dual, and the two equations the witness must satisfy
_TRANSPOSE_CHILD = """
import json, sys
from qgcalc.qgroup import transpose_qg
from qgcalc.serialize import load_qg
qg = load_qg(sys.argv[1])
cbar, bic = transpose_qg(qg)
print(json.dumps(dict(bic.residuals, conjugateBuilt=cbar is not qg)))
with open("/proc/self/status") as status:
    print(status.read().split("VmHWM:")[1].split()[0], file=sys.stderr)
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


def gauged_file(tmp_path, group, picture):
    """A w.json of the Haar-gauged unitary of group in picture, d = its order."""
    d = group.order
    w = group_unitary(group)
    if picture == "cstar":
        # the dual picture's unitary, as FiniteQuantumGroup.dual makes it
        w = flip_adjoint(w, LegSpace((d, d)))
    uu = np.kron(*[_haar_unitary(d, np.random.default_rng(1616))] * 2)
    w = uu @ w @ uu.conj().T
    path = tmp_path / "w.json"
    write_json(str(path), {"dim": d, "W": matrix_to_obj(w)})
    return path


def run_child(code, path):
    """Run code on path in a child process: the finished child, its JSON
    output and its peak RSS in MB."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path_var)
    child = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    # VmHWM is in kB
    peak_mb = int(child.stderr.strip().splitlines()[-1]) / 1024
    return child, json.loads(child.stdout), peak_mb


def assert_qg_battery_passes(tmp_path, group, picture, max_rss_mb):
    """verify … qg on the gauged group in a child: exit 0, every check
    passing, the structural checks all present, and a peak within bound."""
    child, report, peak_mb = run_child(QG_CHILD, gauged_file(tmp_path, group, picture))
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
    assert peak_mb <= max_rss_mb, f"peak RSS {peak_mb:.0f} MB"


@pytest.mark.parametrize("picture", ["c0", "cstar"])
@pytest.mark.parametrize("name", list(GROUPS))
def test_gauged_order16_group_passes_the_qg_battery(tmp_path, name, picture):
    assert_qg_battery_passes(tmp_path, GROUPS[name](), picture, MAX_RSS_MB)


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_gauged_order16_identity_arrow_gives_right_and_left_homs(tmp_path, picture):
    """right_from_bicharacter and left_from_bicharacter on the gauged Z16
    identity arrow: every residual of both homs passes its gate."""
    path = gauged_file(tmp_path, GROUPS["Z16"](), picture)
    child, residuals, peak_mb = run_child(_HOM_CHILD, path)
    assert child.returncode == 0, child.stderr
    tables = {
        "right": RightQGHom.gates,
        "left": LeftQGHom.gates + (("sliceIdentity", EQUATION_TOL, ""),),
    }
    for kind, table in tables.items():
        got = residuals[kind]
        assert set(got) == {key for key, _, _ in table}, kind
        failed = [
            key
            for key, tol, _ in table
            if not (got[key] is True if tol is None else got[key] <= tol)
        ]
        assert not failed, (kind, got)
    assert peak_mb <= MAX_RSS_MB, f"peak RSS {peak_mb:.0f} MB"


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_gauged_order16_hom_files_verify_and_induce(tmp_path, picture):
    """verify on the right and left hom files of the gauged Z16 identity
    arrow, extraction included, then induce of the comultiplication
    coaction along the right hom, all through the CLI in one child: every
    check passes, within the peak bound.  The extraction used to form the
    d^3 x d^3 product, 268 MB at d = 16, and the induce system had
    16.7M x 256 entries."""
    path = gauged_file(tmp_path, GROUPS["Z16"](), picture)
    child, reports, peak_mb = run_child(_HOM_FILES_CHILD, path)
    assert child.returncode == 0, child.stderr
    for name, report in reports.items():
        failed = [c for c in report["checks"] if not c["pass"]]
        assert report["code"] == 0 and not failed, (name, failed)
    for kind in ("right", "left"):
        assert "extraction" in {c["name"] for c in reports[kind]["checks"]}, kind
    assert {"solve", "uniqueRank"} <= {c["name"] for c in reports["induce"]["checks"]}
    assert peak_mb <= MAX_RSS_MB, f"peak RSS {peak_mb:.0f} MB"


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_gauged_order16_identity_arrow_composes_with_itself(tmp_path, picture):
    """compose of the gauged Z16 identity arrow's file with itself, then
    verify of the composite's file, through the CLI in one child: both exit
    0 with every check passing, the composite is W, within the peak bound."""
    path = gauged_file(tmp_path, GROUPS["Z16"](), picture)
    child, reports, peak_mb = run_child(_COMPOSE_CHILD, path)
    assert child.returncode == 0, child.stderr
    assert reports.pop("distance") <= 1e-12
    for name, report in reports.items():
        failed = [c for c in report["checks"] if not c["pass"]]
        assert report["code"] == 0 and not failed, (name, failed)
    assert "extraction" in {c["name"] for c in reports["compose"]["checks"]}
    assert peak_mb <= MAX_RSS_MB, f"peak RSS {peak_mb:.0f} MB"


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_gauged_order16_transpose_passes_both_equations(tmp_path, picture):
    """transpose_qg on the gauged Z16, whose complex W makes Cbar a build of
    its own: both equations pass their gate, within the peak bound."""
    path = gauged_file(tmp_path, GROUPS["Z16"](), picture)
    child, residuals, peak_mb = run_child(_TRANSPOSE_CHILD, path)
    assert child.returncode == 0, child.stderr
    assert residuals.pop("conjugateBuilt") is True
    assert set(residuals) == {"dualSideEquation", "flippedComultEquation"}
    assert all(value <= PENTAGON_TOL for value in residuals.values()), residuals
    assert peak_mb <= MAX_RSS_MB, f"peak RSS {peak_mb:.0f} MB"


def test_a_rotated_gauged_order16_identity_arrow_is_rejected_without_streaming(tmp_path):
    """A 1e-6 rotation of the gauged Z16 identity arrow is off the slice
    spans: check_bicharacter rejects it in this process, on the certified
    bounds of the slice forms, which stream nothing (no qgcalc module binds
    a streamed residual: tests/test_cli.py::test_the_suite_streams_no_identity)."""
    qg = load_qg(str(gauged_file(tmp_path, GROUPS["Z16"](), "c0")))
    rng = np.random.default_rng(1617)
    h = rng.standard_normal(qg.W.shape) + 1j * rng.standard_normal(qg.W.shape)
    ev, vecs = np.linalg.eigh((h + h.conj().T) / np.linalg.norm(h + h.conj().T))
    rotated = (vecs * np.exp(1e-6j * ev)) @ vecs.conj().T @ qg.W
    with pytest.raises(BicharacterViolation) as exc:
        check_bicharacter(rotated, qg, qg)
    assert exc.value.residual > EQUATION_TOL
