"""Gaussian sensor noise: density, CDF, inverse CDF, interval extrema.

Every sensor's raw sample is its received power plus Gaussian noise.  The
sensing model needs four things from that law: the density f, the
distribution function F, its inverse, and the extreme values of f over an
interval (those extrema enter the separation constant and the estimator's
sensitivity factor).  The density is unimodal, so interval extrema have a
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError

__all__ = ["GaussianNoise", "standard_gaussian"]


@dataclass(frozen=True)
class GaussianNoise:
    """Gaussian noise with the given location and scale.

    cdf/inv_cdf hand scalars and arrays alike straight to scipy's
    ndtr/ndtri, whose absolute error is well below 1e-12 over the whole
    double range; every downstream probability inherits that accuracy.
    inv_cdf returns ndtri(q) * scale + location and raises DomainError
    unless every q lies in the open interval (0, 1), so 0, 1, values
    outside [0, 1], inf and nan all raise.  inv_cdf(cdf(x)) = x within
    1e-10 wherever cdf(x) is not within 1e-12 of 0 or 1.
    """

    location: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise DomainError(f"scale must be positive and finite, got {self.scale}")
        if not math.isfinite(self.location):
            raise DomainError(f"location must be finite, got {self.location}")

    def density(self, x):
        z = (np.asarray(x, dtype=float) - self.location) / self.scale
        out = np.exp(-0.5 * z * z) / (self.scale * math.sqrt(2.0 * math.pi))
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        out = ndtr((x - self.location) / self.scale)
        return float(out) if out.ndim == 0 else out

    def inv_cdf(self, q):
        z = ndtri(q)
        # ndtri is -inf at 0, +inf at 1 and nan outside [0, 1] or at nan, so
        # q lies in (0, 1) exactly where z is finite.
        scalar = z.ndim == 0
        if not (math.isfinite(z) if scalar else np.isfinite(z).all()):
            raise DomainError(f"quantile argument must lie in (0, 1), got {q}")
        out = z * self.scale + self.location
        return float(out) if scalar else out

    def mode(self) -> float:
        """Location of the density maximum."""
        return self.location

    def density_extremum(self, lo: float, hi: float, mode: str) -> float:
        """Exact sup or inf of the density over [lo, hi].

        The supremum sits at the mode if the interval contains it, else at
        the endpoint nearest the mode; the infimum is always at an endpoint.

        mode: "sup" or "inf".
        """
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise DomainError(f"invalid interval [{lo}, {hi}]")
        f_lo = self.density(lo)
        f_hi = self.density(hi)
        if f_lo <= 0.0 or f_hi <= 0.0:
            raise DomainError(
                f"interval [{lo}, {hi}] leaves the positive-density region"
            )
        if mode == "sup":
            m = self.mode()
            if lo <= m <= hi:
                return self.density(m)
            return max(f_lo, f_hi)
        if mode == "inf":
            return min(f_lo, f_hi)
        raise DomainError(f"mode must be 'sup' or 'inf', got {mode!r}")


def standard_gaussian() -> GaussianNoise:
    return GaussianNoise(0.0, 1.0)
