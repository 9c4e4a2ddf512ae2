"""Order-24 tier: the whole `verify … qg` battery on dense d = 24 unitaries,
Haar-gauged Z24 and Z4xZ6 in both pictures, each in a child process as in
test_order16.py.  Run it with

    PYTHONPATH=src python -m pytest -q tests_slow
"""

import pytest

from qgcalc.groups import cyclic_group, product_group
from test_order16 import assert_qg_battery_passes

# A run peaks at about 165 MB.  The build reads Delta off W's slice
# coefficients, with d^4-entry temporaries (9 MB each); it used to form the
# images W(b_k (x) 1)W* of the comultiplication, an n x d^2 x d^2 stack
# (127 MB), and peaked at 370 MB, so one such stack exceeds this.
MAX_RSS_MB = 250

GROUPS = {
    "Z24": lambda: cyclic_group(24),
    "Z4xZ6": lambda: product_group(cyclic_group(4), cyclic_group(6)),
}


@pytest.mark.parametrize("picture", ["c0", "cstar"])
@pytest.mark.parametrize("name", list(GROUPS))
def test_gauged_order24_group_passes_the_qg_battery(tmp_path, name, picture):
    assert_qg_battery_passes(tmp_path, GROUPS[name](), picture, MAX_RSS_MB)
