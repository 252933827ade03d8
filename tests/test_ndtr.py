"""The Cephes ndtr/ndtri port against scipy.special, bit for bit.

Every value, nan payloads included, must be the double SciPy returns, for
scalars, 0-d arrays, lists and arrays of any mix of branches.  The inputs
are random doubles over the whole range plus every branch edge and its
neighbours a few ulps away.
"""

import math

import numpy as np
import pytest
from scipy import special

from quantloc.noise import ndtr, ndtri

N_RANDOM = 100_000


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def _around(points, ulps=3):
    """Each point and its neighbours up to ``ulps`` away on either side."""
    out = []
    for p in points:
        lo = hi = p
        out.append(p)
        for _ in range(ulps):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            out += [lo, hi]
    return out


def _random_doubles(rng, lo_bits, hi_bits, n):
    """Doubles whose bit patterns are uniform in [lo_bits, hi_bits]: every
    binade, subnormals included, is sampled alike."""
    return rng.integers(lo_bits, hi_bits, n, dtype=np.uint64, endpoint=True).view(np.float64)


ONE_BITS = int(np.float64(1.0).view(np.uint64))
MAX_BITS = int(np.float64(np.finfo(float).max).view(np.uint64))

NDTRI_EDGES = _around(
    [
        math.exp(-2.0),  # central band, lower end
        1.0 - math.exp(-2.0),  # central band, upper end
        math.exp(-32.0),  # tail split at x = 8, lower tail
        1.0 - math.exp(-32.0),  # the same split, upper tail
        0.5,
        0.0,
        1.0,
        5e-324,
        2.2250738585072014e-308,  # smallest normal
        1.0 - 2.0**-53,
        0.25,
    ]
) + [-0.0, math.nan, -math.nan, math.inf, -math.inf, -1.0, 2.0, -1e-300, 1e300]

NDTR_EDGES = _around(
    [
        v
        for a in (
            1.0,  # |a| sqrt(1/2) = sqrt(1/2): erf or erfc
            math.sqrt(2.0),  # erfc's own erf branch ends at 1
            8.0 * math.sqrt(2.0),  # erfc's P/Q against R/S at 8
            math.sqrt(2.0 * 7.09782712893383996732e2),  # erfc's MAXLOG underflow
            38.5,
            40.0,
            0.0,
        )
        for v in (a, -a)
    ]
) + [-0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e300, -1e300]


@pytest.fixture(scope="module")
def ndtri_inputs():
    rng = np.random.default_rng(20170531)
    n = N_RANDOM // 4
    return np.concatenate(
        [
            _random_doubles(rng, 0, ONE_BITS, n),  # every binade of [0, 1]
            rng.random(n),
            np.exp(-rng.random(n) * 745.0),  # lower tail into the subnormals
            1.0 - np.exp(-rng.random(n) * 37.0),  # upper tail up to 1 - 1e-16
            NDTRI_EDGES,
        ]
    )


@pytest.fixture(scope="module")
def ndtr_inputs():
    rng = np.random.default_rng(20170601)
    n = N_RANDOM // 4
    finite = _random_doubles(rng, 0, MAX_BITS, n)
    finite[rng.random(n) < 0.5] *= -1.0
    return np.concatenate(
        [
            finite,  # every binade, both signs
            rng.uniform(-40.0, 40.0, n),
            rng.standard_normal(n),
            rng.uniform(-1.5, 1.5, n),
            NDTR_EDGES,
        ]
    )


def test_ndtri_arrays_match_scipy(ndtri_inputs):
    assert _bits(ndtri(ndtri_inputs)) == _bits(special.ndtri(ndtri_inputs))


def test_ndtr_arrays_match_scipy(ndtr_inputs):
    assert _bits(ndtr(ndtr_inputs)) == _bits(special.ndtr(ndtr_inputs))


def test_ndtri_scalars_match_scipy(ndtri_inputs):
    for q in ndtri_inputs.tolist():
        out = ndtri(q)
        assert type(out) is float and _bits(out) == _bits(special.ndtri(q)), q


def test_ndtr_scalars_match_scipy(ndtr_inputs):
    for a in ndtr_inputs.tolist():
        out = ndtr(a)
        assert type(out) is float and _bits(out) == _bits(special.ndtr(a)), a


def test_all_central_arrays_take_the_vectorized_branch_alone():
    # the fast path skips the masks: every estimator frequency sits near 1/2
    rng = np.random.default_rng(7)
    q = rng.uniform(0.487, 0.519, 500)
    assert _bits(ndtri(q)) == _bits(special.ndtri(q))
    a = rng.uniform(-0.99, 0.99, 500)
    assert _bits(ndtr(a)) == _bits(special.ndtr(a))


def test_mixed_shapes_and_argument_kinds():
    q = np.array([[0.3, 1e-20, 0.5], [1.0 - 1e-12, math.nan, 0.0]])
    out = ndtri(q)
    assert out.shape == q.shape and _bits(out) == _bits(special.ndtri(q))
    a = np.array([[-40.0, 0.2], [3.0, math.inf]])
    out = ndtr(a)
    assert out.shape == a.shape and _bits(out) == _bits(special.ndtr(a))
    # strided views, lists, integer input and 0-d arrays
    wide = np.linspace(-12.0, 12.0, 101)
    assert _bits(ndtr(wide[::3])) == _bits(special.ndtr(wide[::3]))
    assert _bits(ndtri([0.1, 0.5, 0.999])) == _bits(special.ndtri([0.1, 0.5, 0.999]))
    assert _bits(ndtr([-3, 0, 2])) == _bits(special.ndtr([-3, 0, 2]))
    for zero_d, f, g in ((np.array(0.01), ndtri, special.ndtri), (np.array(-2.5), ndtr, special.ndtr)):
        out = f(zero_d)
        assert type(out) is float and _bits(out) == _bits(g(zero_d))
    assert type(ndtri(np.float64(0.3))) is float
    assert type(ndtr(1)) is float and _bits(ndtr(1)) == _bits(special.ndtr(1))


def test_empty_arrays_pass_through():
    for f in (ndtr, ndtri):
        out = f(np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,) and out.dtype == float
