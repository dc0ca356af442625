"""Numeric kernels: point distances and the incomplete beta function.

The k-means distances are array code in :mod:`pcageom.varcluster`;
here they are checked on single pairs of vectors.  The incomplete beta
function is compared against its pure-Python fallback (``fn.py_func``)
when numba is available; the two may differ by a few ulps because of
fused multiply-adds in compiled code.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from pcageom._jit import NUMBA_ENABLED
from pcageom.kernels import betainc_reg
from pcageom.varcluster import DIST_COSINE, DIST_L1, DIST_L2, DIST_LINF, pairwise_distance


# -- distances ------------------------------------------------------------


def point_distance(x, c, code):
    return float(pairwise_distance(x[None, :], c[None, :], code)[0, 0])


def test_distance_codes_are_distinct():
    assert sorted({DIST_L1, DIST_L2, DIST_LINF, DIST_COSINE}) == [0, 1, 2, 3]


def test_point_distance_semantics():
    x = np.array([1.0, -2.0, 3.0])
    c = np.array([0.5, 1.0, -1.0])
    d = x - c
    assert point_distance(x, c, DIST_L1) == pytest.approx(np.abs(d).sum(), abs=1e-15)
    # the l2 code returns the squared distance, not its root
    assert point_distance(x, c, DIST_L2) == pytest.approx(float(d @ d), abs=1e-15)
    assert point_distance(x, c, DIST_LINF) == pytest.approx(np.abs(d).max(), abs=1e-15)
    cos = float(x @ c) / (np.linalg.norm(x) * np.linalg.norm(c))
    assert point_distance(x, c, DIST_COSINE) == pytest.approx(1.0 - cos, abs=1e-12)


def test_cosine_distance_edge_cases():
    z = np.zeros(2)
    assert point_distance(z, np.array([1.0, 0.0]), DIST_COSINE) == 1.0
    assert point_distance(np.array([1.0, 0.0]), z, DIST_COSINE) == 1.0
    # parallel vectors can round 1 - cos slightly negative; it is clamped
    x = np.array([0.1, 0.2, 0.3])
    assert point_distance(x, 7.0 * x, DIST_COSINE) >= 0.0


# -- regularized incomplete beta -------------------------------------------


def test_betainc_reg_closed_forms():
    for x in np.linspace(0.0, 1.0, 21):
        assert betainc_reg(1.0, 1.0, float(x)) == pytest.approx(x, abs=1e-12)
        want = 2.0 / math.pi * math.asin(math.sqrt(x))
        assert betainc_reg(0.5, 0.5, float(x)) == pytest.approx(want, abs=1e-12)


def test_betainc_reg_endpoints_and_symmetry():
    assert betainc_reg(74.0, 0.5, 0.0) == 0.0
    assert betainc_reg(74.0, 0.5, 1.0) == 1.0
    for x in (0.001, 0.25, 0.7, 0.999):
        a, b = 3.5, 0.5
        assert betainc_reg(a, b, x) == pytest.approx(1.0 - betainc_reg(b, a, 1.0 - x), abs=1e-12)


def test_betainc_reg_monotone_in_x():
    xs = np.linspace(0.0, 1.0, 200)
    vals = [betainc_reg(74.0, 0.5, float(x)) for x in xs]
    assert all(u <= v + 1e-15 for u, v in zip(vals, vals[1:]))


# -- compiled path vs fallback ----------------------------------------------


@pytest.mark.skipif(not NUMBA_ENABLED, reason="compiled path disabled or unavailable")
def test_compiled_betainc_matches_fallback():
    for x in np.linspace(1e-9, 1.0 - 1e-9, 300):
        got = betainc_reg(74.0, 0.5, float(x))
        ref = betainc_reg.py_func(74.0, 0.5, float(x))
        assert got == pytest.approx(ref, abs=1e-13)


def test_disable_flag_forces_plain_path():
    code = (
        "from pcageom._jit import NUMBA_ENABLED; "
        "print(NUMBA_ENABLED); "
        "from pcageom.kernels import betainc_reg; "
        "print(abs(betainc_reg(1.0, 1.0, 0.25) - 0.25) < 1e-12)"
    )
    env = dict(os.environ, PCAGEOM_DISABLE_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["False", "True"]
