"""Order-32 tier: the whole `verify … qg` battery on the Haar-gauged Z32,
d = 32, in both pictures, each in a child process as in test_order16.py.
Run it with

    PYTHONPATH=src python -m pytest -q tests_slow
"""

import pytest

from qgcalc.groups import cyclic_group
from test_order16 import assert_qg_battery_passes

# A run peaks at about 405 MB, 277 MB of it while reading the 77 MB file of
# W (its JSON text and one Python pair per entry).  The build reads Delta off W's
# slice coefficients, with d^4-entry temporaries (17 MB each); the images
# W(b_k (x) 1)W* it used to form were an n x d^2 x d^2 stack of 537 MB.
MAX_RSS_MB = 500


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_gauged_order32_group_passes_the_qg_battery(tmp_path, picture):
    assert_qg_battery_passes(tmp_path, cyclic_group(32), picture, MAX_RSS_MB)
