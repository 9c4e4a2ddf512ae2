"""Order-32 tier: the whole `verify … qg` battery on the Haar-gauged Z32,
d = 32, in both pictures, `verify … bicharacter` on its identity arrow,
and the rejection of a 1e-6 rotation of its W, each in a child process as
in test_order16.py.  Run it with

    PYTHONPATH=src python -m pytest -q tests_slow
"""

import pytest

from qgcalc.groups import cyclic_group
from qgcalc.qgroup import PENTAGON_TOL
from qgcalc.serialize import load_json, write_json
from test_order16 import assert_qg_battery_passes, gauged_file, run_child

# A run peaks at about 405 MB, 277 MB of it while reading the 77 MB file of
# W (its JSON text and one Python pair per entry).  The build reads Delta off W's
# slice coefficients, with d^4-entry temporaries (17 MB each); the images
# W(b_k (x) 1)W* it used to form were an n x d^2 x d^2 stack of 537 MB.
MAX_RSS_MB = 500

# `verify … bicharacter` on the identity arrow reads two 77 MB files, W's
# and the arrow's, which names W's by path and holds V = W, and peaks at about
# 539 MB while both are parsed (2 CPUs, one BLAS thread: about 5.5 s).  It
# builds no dual: building the dual took it to 7.6 s and 555 MB.
BICHARACTER_MAX_RSS_MB = 600

_BICHARACTER_CHILD = """
import sys, time
from qgcalc.cli import main
start = time.perf_counter()
code = main(["verify", sys.argv[1], "bicharacter"])
print(f"{time.perf_counter() - start:.2f}", file=sys.stderr)
with open("/proc/self/status") as status:
    print(status.read().split("VmHWM:")[1].split()[0], file=sys.stderr)
raise SystemExit(code)
"""


# The rotated W's slices span all d^2 dimensions, and the build rejects it
# on the tail of its slice stack past rank d: one pivoted QR and one SVD of
# the 1024 x 1024 stack, about 1.5-1.7 s (2 CPUs, one BLAS thread), where
# the one-slab pentagon it replaced took 6.6-7.6 s.  The child makes W
# itself, reading no file, and peaks at about 180 MB.
REJECTION_MAX_S = 2.0
REJECTION_MAX_RSS_MB = 220

_REJECTION_CHILD = """
import json, sys, time
import numpy as np
from qgcalc.errors import PentagonViolation
from qgcalc.groups import cyclic_group, group_unitary
from qgcalc.qgroup import build_from_unitary
rng = np.random.default_rng(3232)
z = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
u, r = np.linalg.qr(z)
uu = np.kron(*[u * (np.diag(r) / np.abs(np.diag(r)))] * 2)
w = uu @ group_unitary(cyclic_group(32)) @ uu.conj().T
h = rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)
ev, vecs = np.linalg.eigh((h + h.conj().T) / np.linalg.norm(h + h.conj().T))
bad = (vecs * np.exp(1e-6j * ev)) @ vecs.conj().T @ w
del h, vecs
start = time.perf_counter()
try:
    build_from_unitary(bad, 32)
    out = {"error": None}
except PentagonViolation as exc:
    out = {"error": type(exc).__name__, "residual": exc.residual, "message": str(exc)}
out["seconds"] = time.perf_counter() - start
out["distance"] = float(np.linalg.norm(bad - w) / np.linalg.norm(bad))
print(json.dumps(out))
with open("/proc/self/status") as status:
    print(status.read().split("VmHWM:")[1].split()[0], file=sys.stderr)
"""


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_gauged_order32_group_passes_the_qg_battery(tmp_path, picture):
    assert_qg_battery_passes(tmp_path, cyclic_group(32), picture, MAX_RSS_MB)


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_gauged_order32_identity_arrow_verifies_as_a_bicharacter(tmp_path, picture):
    """`verify … bicharacter` on the identity arrow of the gauged Z32, V = W
    with both endpoints W's file: exit 0, every check passing, rInvariance
    among them, within the peak bound."""
    path = gauged_file(tmp_path, cyclic_group(32), picture)
    arrow = tmp_path / "arrow.json"
    ends = {"path": path.name}
    write_json(str(arrow), {"source": ends, "target": ends, "V": load_json(str(path))["W"]})
    child, report, peak_mb = run_child(_BICHARACTER_CHILD, arrow)
    failed = [c for c in report["checks"] if not c["pass"]]
    assert child.returncode == 0 and not failed, (failed, child.stderr)
    assert "rInvariance" in {c["name"] for c in report["checks"]}
    assert peak_mb <= BICHARACTER_MAX_RSS_MB, f"peak RSS {peak_mb:.0f} MB"


def test_a_rotated_gauged_order32_w_is_rejected_on_its_slice_rank_tail():
    """A 1e-6 rotation of the Haar-gauged Z32 W: PentagonViolation, its
    residual above the tolerance and within the distance from the gauged W,
    in at most REJECTION_MAX_S and within the peak bound."""
    child, out, peak_mb = run_child(_REJECTION_CHILD, "-")
    assert child.returncode == 0, child.stderr
    assert out["error"] == "PentagonViolation", out
    assert out["message"].startswith("leg-1 slices span 10"), out
    assert " > d = 32 dimensions; " in out["message"], out
    assert PENTAGON_TOL < out["residual"] <= out["distance"], out
    assert out["seconds"] <= REJECTION_MAX_S, out
    assert peak_mb <= REJECTION_MAX_RSS_MB, f"peak RSS {peak_mb:.0f} MB"
