"""Gaussian sensor noise: density, CDF, inverse CDF.

Every sensor's raw sample is its received power plus Gaussian noise.  The
sensing model needs three things from that law: the density f, the
distribution function F and its inverse.  The extreme values of f over an
interval, which enter the distortion floor and the estimator's conversion
factor, are taken in ``scenario.SensorConstants``: f is unimodal, so they
have a closed form.

F and its inverse rest on ``ndtr`` and ``ndtri`` below, ports of the Cephes
routines (S. L. Moshier, *Methods and Programs for Mathematical Functions*,
Prentice-Hall, 1989) that SciPy ships as ``scipy.special.ndtr``/``ndtri``.
They keep Cephes' coefficients, branch points and Horner order
(``polevl``/``p1evl``), so every value is the double SciPy returns, and
numpy is the only runtime dependency.  Two rules keep them bit-exact:

- every log and exp comes from Python's ``math`` module, which calls the
  same C library (libm) that SciPy's C code calls; numpy's SIMD ``log`` and
  ``exp`` differ from libm in the last bit on some inputs;
- arrays evaluate only the pure-arithmetic central branch vectorized, with
  separate multiply and add ufuncs (IEEE-rounded, no fused multiply-add),
  and send each tail element through the scalar code.  When every element
  is central, as every estimator input near F = 1/2 is, no mask is built.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["GaussianNoise", "ndtr", "ndtri"]

# Cephes ndtri.c.  P0/Q0: exp(-2) < y <= 1 - exp(-2), in y - 1/2.  P1/Q1 and
# P2/Q2: the tails, in 1/x with x = sqrt(-2 ln y), below 8 and from 8.
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
# Cephes ndtr.c.  T/U: erf on |x| <= 1.  P/Q: erfc on 1 <= x < 8.  R/S: x >= 8.
_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_ONE_M_EXP_M2 = 1.0 - _EXP_M2  # rounded once, as C folds the constant
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_SQRT1_2 = 0.70710678118654752440  # sqrt(1/2)
_MAXLOG = 7.09782712893383996732e2  # ln(DBL_MAX): erfc underflows to 0 past it


def _polevl(x, coef):
    """Horner's rule, highest power first.

    Floats and arrays alike: the in-place steps rebind a float and update
    the array the first product made, never the caller's x.
    """
    ans = coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """``_polevl`` with an implicit leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _ndtri_central(y):
    """ndtri on exp(-2) < y <= 1 - exp(-2); floats and arrays alike.

    Cephes' y + y * (y2 * P0(y2) / Q0(y2)) times sqrt(2 pi), one IEEE
    operation at a time (products commute exactly).
    """
    y = y - 0.5
    y2 = y * y
    x = _polevl(y2, _P0)
    x *= y2
    x /= _p1evl(y2, _Q0)
    x *= y
    x += y
    x *= _S2PI
    return x


def _erf_small(x):
    """erf on |x| <= 1, x * T(x^2) / U(x^2); floats and arrays alike."""
    z = x * x
    out = _polevl(z, _T)
    out *= x
    out /= _p1evl(z, _U)
    return out


def _ndtri_scalar(y0: float) -> float:
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:
        return math.nan  # a nan argument runs on, as in Cephes, keeping its payload
    y, negate = y0, True
    if y > _ONE_M_EXP_M2:
        y, negate = 1.0 - y, False
    if y > _EXP_M2:
        return _ndtri_central(y)
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


def _erfc_scalar(a: float) -> float:
    """Cephes erfc for a >= sqrt(1/2), the only arguments ndtr passes."""
    if a < 1.0:
        return 1.0 - _erf_small(a)
    z = -a * a
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if a < 8.0:
        return z * _polevl(a, _P) / _p1evl(a, _Q)
    return z * _polevl(a, _R) / _p1evl(a, _S)


def _ndtr_scalar(a: float) -> float:
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf_small(x)
    y = 0.5 * _erfc_scalar(z)
    return 1.0 - y if x > 0.0 else y


def _float_array(value, name: str) -> np.ndarray:
    """``np.asarray(value, dtype=float)``, raising DomainError that names the
    argument for an int past the float range."""
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise DomainError(f"{name} holds an integer past the float range") from None


def ndtri(y):
    """Inverse of the standard normal CDF, as SciPy's ``ndtri``, bit for bit.

    -inf at 0, +inf at 1, nan outside [0, 1] and at nan.  A scalar (or 0-d
    array) gives a float; anything else a float64 array of its shape.  An
    int past the float range raises DomainError.
    """
    if type(y) is float:
        return _ndtri_scalar(y)
    y = _float_array(y, "y")
    if y.ndim == 0:
        return _ndtri_scalar(float(y))
    if y.size and _EXP_M2 < y.min() and y.max() <= _ONE_M_EXP_M2:
        return _ndtri_central(y)
    central = (y > _EXP_M2) & (y <= _ONE_M_EXP_M2)
    out = np.empty_like(y)
    out[central] = _ndtri_central(y[central])
    out[~central] = [_ndtri_scalar(v) for v in y[~central].tolist()]
    return out


def ndtr(a):
    """Standard normal CDF, as SciPy's ``ndtr``, bit for bit.

    A scalar (or 0-d array) gives a float; anything else a float64 array of
    its shape.  nan maps to nan, and an int past the float range raises
    DomainError.
    """
    if type(a) is float:
        return _ndtr_scalar(a)
    a = _float_array(a, "a")
    if a.ndim == 0:
        return _ndtr_scalar(float(a))
    x = a * _SQRT1_2
    z = np.abs(x)
    if z.size and z.max() < _SQRT1_2:
        return 0.5 + 0.5 * _erf_small(x)
    central = z < _SQRT1_2
    out = np.empty_like(x)
    out[central] = 0.5 + 0.5 * _erf_small(x[central])
    out[~central] = [_ndtr_scalar(v) for v in a[~central].tolist()]
    return out


def is_finite(value) -> bool:
    """``math.isfinite``, reading an int past the float range as not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _index(value, name: str) -> int:
    """An integer, numpy integers included, as a Python int; else DomainError
    naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def shown(value) -> str:
    """``value`` as an error message prints it, except that an int past the
    float range is named instead: past 4,300 digits Python will not print it."""
    if isinstance(value, int) and not is_finite(value):
        return "an integer past the float range"
    return str(value)


def _density(x, location, scale):
    """The N(location, scale^2) density at x; floats and arrays alike."""
    z = (x - location) / scale
    return np.exp(-0.5 * z * z) / (scale * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class GaussianNoise:
    """Gaussian noise with the given location and scale.

    cdf/inv_cdf hand scalars and arrays alike to this module's Cephes
    ndtr/ndtri, which return SciPy's doubles bit for bit (module docstring)
    and whose absolute error is well below 1e-12 over the whole double
    range; every downstream probability inherits that accuracy.  A scalar
    argument gives a float, an array an array.  inv_cdf returns
    ndtri(q) * scale + location and raises DomainError unless every q lies
    in the open interval (0, 1), so 0, 1, values outside [0, 1], inf and
    nan all raise.  inv_cdf(cdf(x)) = x within
    1e-10 wherever cdf(x) is not within 1e-12 of 0 or 1.
    """

    location: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (self.scale > 0.0 and is_finite(self.scale)):
            raise DomainError(f"scale must be positive and finite, got {shown(self.scale)}")
        if not is_finite(self.location):
            raise DomainError(f"location must be finite, got {shown(self.location)}")
        # Stored as Python floats, so scalar cdf/inv_cdf results are floats
        # whatever numeric type the constants arrived as.
        object.__setattr__(self, "location", float(self.location))
        object.__setattr__(self, "scale", float(self.scale))

    def density(self, x):
        try:
            out = _density(np.asarray(x, dtype=float), self.location, self.scale)
        except OverflowError:  # an int past the float range, maybe in a list
            raise DomainError("x must be finite, got an integer past the float range") from None
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        try:
            return ndtr((x - self.location) / self.scale)
        except OverflowError:  # an int past the float range
            raise DomainError("x must be finite, got an integer past the float range") from None

    def inv_cdf(self, q):
        try:
            z = ndtri(q)
        except DomainError:  # an int past the float range, maybe in a list
            raise DomainError(
                "quantile argument must lie in (0, 1), got an integer past the float range"
            ) from None
        # ndtri is -inf at 0, +inf at 1 and nan outside [0, 1] or at nan, so
        # q lies in (0, 1) exactly where z is finite.
        if not (math.isfinite(z) if type(z) is float else np.isfinite(z).all()):
            raise DomainError(f"quantile argument must lie in (0, 1), got {q}")
        return z * self.scale + self.location
