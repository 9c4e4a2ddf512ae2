"""Order-32 tier: the whole `verify … qg` battery on the Haar-gauged Z32,
d = 32, in both pictures, and `verify … bicharacter` on its identity
arrow, each in a child process as in test_order16.py.  Run it with

    PYTHONPATH=src python -m pytest -q tests_slow
"""

import pytest

from qgcalc.groups import cyclic_group
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
