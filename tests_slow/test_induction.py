"""The conjugation coaction of C*(Z8)'s regular corepresentation induced
along Z8 -> Z4 (mod 4): induce_coaction, Psi = P F in closed form, against
the image system of tests/conftest.py, whose 65536 x 256 system takes
seconds and about 700 MB, so it runs here, in a child process as in
test_order16.py, rather than with the other 23 inductions of
tests/test_coactions.py.  The 1.0 s bound times the whole induce_coaction
call, and the closed form takes about 8 ms of it: the rest is the
check_coaction of the induced coaction, mostly its star_hom_residuals over
the n^2 products of images, so the bound watches that check.  Run it with

    PYTHONPATH=src python -m pytest -q tests_slow
"""

import os

from test_order16 import run_child

TESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests")

_CHILD = """
import json, sys, time
import numpy as np
import qgcalc as q
from qgcalc.coactions import check_corepresentation, conjugation_coaction, induce_coaction
from qgcalc.homviews import right_from_bicharacter
sys.path.insert(0, sys.argv[1])
from conftest import image_system_pushed_through
z8, z4 = q.cyclic_group(8), q.cyclic_group(4)
phi = q.group_hom(z8, z4, tuple(i % 4 for i in range(8)))
v = q.from_hopf_hom(q.hom_to_hopf(phi, "cstar"))
dr = right_from_bicharacter(v)
co = conjugation_coaction(check_corepresentation(v.source.W, v.source))
start = time.perf_counter()
out = induce_coaction(co, dr)
seconds = time.perf_counter() - start
images, worst, unique = image_system_pushed_through(co.gamma, co.algebraD, dr)
print(json.dumps({
    "n": len(co.algebraD),
    "diff": float(np.max(np.abs(out.gamma.images - images))),
    "unique": [out.residuals["uniqueRank"], unique],
    "solve": [out.residuals["solve"], worst],
    "seconds": seconds,
}))
with open("/proc/self/status") as status:
    print(status.read().split("VmHWM:")[1].split()[0], file=sys.stderr)
"""


def test_regular_conjugation_of_cstar_z8_induces_as_the_image_system():
    child, got, _ = run_child(_CHILD, TESTS)
    assert child.returncode == 0, child.stderr
    assert got["n"] == 64
    assert got["diff"] <= 1e-14
    assert got["unique"] == [True, True]
    solve, worst = got["solve"]
    assert solve >= worst - 1e-14
    # the checks of the induced coaction included (0.18 s on 2 CPUs with
    # one BLAS thread, where the image system alone took 4.2-4.4 s)
    assert got["seconds"] <= 1.0, got["seconds"]
