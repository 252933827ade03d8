"""Error exponents and exponential bounds for the geometric detector.

False-alarm and miss probabilities decay like 12 e^{-eta K} in the record
length K.  Every exponent is a Chernoff rate of a sensor's zero-bit
frequency, and every Chernoff rate of a Bernoulli frequency with mean p
reaching q is the relative entropy D(q || p), evaluated by one function,
``bernoulli_kl``.  Per sensor four such rates enter:

  * q = p + t and q = p - t, the frequency overshooting or undershooting
    its mean by t = delta / (2 Xi_j), where Xi_j converts a frequency
    deviation into a distance deviation;
  * q = eps_L and q = eps_U, the frequency escaping the bracket on which
    that conversion is valid.

Xi_j, eps_L and eps_U are columns of the scenario's ``SensorConstants``.

A deviation to an impossible frequency (q outside [0, 1]) has infinite
rate, and 0 * ln 0 = 0 at q = 0 and q = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .attacks import AttackAssignment
from .detector import DetectorConfig
from .errors import DomainError
from .measurement import prob_zero
from .noise import _index, is_finite, shown
from .scenario import ScenarioConfig

__all__ = [
    "SensorRates",
    "RateReport",
    "bernoulli_kl",
    "composite_exponents",
]

INF = math.inf

PREFACTOR = 12.0


def bernoulli_kl(q: float, p: float) -> float:
    """Relative entropy D(q || p) of Bernoulli(q) from Bernoulli(p).

    The Chernoff rate of a frequency with mean p reaching q.  Takes
    0 * ln 0 = 0, returns inf for q outside [0, 1] and raises DomainError
    for p outside (0, 1).  Written in the relative deviations
    x = (q - p) / p and y = (p - q) / (1 - p), whose weighted sum
    p x + (1 - p) y is zero, as

        D = p phi(x) + (1 - p) phi(y),   phi(x) = (1 + x) ln(1 + x) - x,

    both terms are non-negative, so nothing cancels however close q is
    to p.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must lie in (0, 1), got {p}")
    if not (0.0 <= q <= 1.0):
        if q != q:  # nan; math.isnan would overflow on an int past the float range
            raise DomainError("q must be a number, got nan")
        return INF
    gap = q - p
    return p * _phi(gap / p) + (1.0 - p) * _phi(-gap / (1.0 - p))


# Below this |x| phi is summed as a series; 16 terms reach double precision.
_PHI_SERIES_MAX = 0.1


def _phi(x: float) -> float:
    """phi(x) = (1 + x) ln(1 + x) - x for x >= -1, with phi(-1) = 1 (0 ln 0 = 0).

    Near 0, phi is the series sum_{k >= 2} (-x)^k / (k (k - 1)), free of
    the cancellation between (1 + x) ln(1 + x) and x.
    """
    if x <= -1.0:
        return 1.0
    if abs(x) >= _PHI_SERIES_MAX:
        return (1.0 + x) * math.log1p(x) - x
    total, power = 0.0, x * x
    for k in range(2, 18):
        total += power / (k * (k - 1))
        power *= -x
    return total


class SensorRates(NamedTuple):
    """The four escape rates for one sensor at one zero-probability.

    The tuple is the bound's four terms; ``min(rates)`` is the least.
    """

    eta1: float
    eta2: float
    eta_eps_lower: float
    eta_eps_upper: float


def _sensor_rates(
    p: float, t: float, eps_l: float, eps_u: float
) -> SensorRates:
    """Rates at zero-probability p for deviation t and bracket [eps_L, eps_U].

    Requires the strict ordering 0 < eps_L < p < eps_U < 1: escape in
    either direction must be a deviation from the mean, otherwise no decay
    is possible.
    """
    if not (0.0 < eps_l < p < eps_u < 1.0):
        raise DomainError(
            f"need 0 < eps_l < p < eps_u < 1, got eps_l={eps_l}, p={p}, "
            f"eps_u={eps_u}"
        )
    return SensorRates(
        eta1=bernoulli_kl(p + t, p),
        eta2=bernoulli_kl(p - t, p),
        eta_eps_lower=bernoulli_kl(eps_l, p),
        eta_eps_upper=bernoulli_kl(eps_u, p),
    )


def _sum_exp(terms: tuple[float, ...], k: int) -> float:
    return sum(0.0 if r == INF else math.exp(-r * k) for r in terms)


@dataclass(frozen=True)
class RateReport:
    """All exponents for a scenario, attack assignment, and delta.

    fa_exponent bounds every unattacked sensor's false-alarm probability,
    miss_exponent every attacked sensor's miss probability (None when no
    sensor is attacked), and err_exponent the network average error:

        FA <= 12 exp(-fa_exponent * K),  and so on.

    The raw_* methods evaluate the 12-term sums the single-exponent bounds
    compress, which are tighter at small K.
    """

    delta: float
    plain: Mapping[int, SensorRates]
    tilde: Mapping[int, SensorRates]
    secure_ids: tuple[int, int]
    attacked_ids: tuple[int, ...]
    fa_exponents: Mapping[int, float]
    miss_exponents: Mapping[int, float]

    @property
    def unsecure_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.fa_exponents))

    @property
    def fa_exponent(self) -> float:
        attacked = set(self.attacked_ids)
        return min(
            (eta for j, eta in self.fa_exponents.items() if j not in attacked),
            default=INF,
        )

    @property
    def miss_exponent(self) -> float | None:
        if not self.attacked_ids:
            return None
        return min(self.miss_exponents[j] for j in self.attacked_ids)

    @property
    def err_exponent(self) -> float:
        return min(
            min(self.fa_exponents[j], self.miss_exponents[j])
            for j in self.fa_exponents
        )

    def fa_bound(self, k: int) -> float:
        eta = self.fa_exponent
        return 0.0 if eta == INF else PREFACTOR * math.exp(-eta * k)

    def miss_bound(self, k: int) -> float | None:
        eta = self.miss_exponent
        if eta is None:
            return None
        return PREFACTOR * math.exp(-eta * k)

    def err_bound(self, k: int) -> float:
        return PREFACTOR * math.exp(-self.err_exponent * k)

    def raw_fa_bound(self, j: int, k: int) -> float:
        """Exact 12-term sum bounding sensor j's false-alarm probability."""
        s1, s2 = self.secure_ids
        return _sum_exp(self.plain[j] + self.plain[s1] + self.plain[s2], k)

    def raw_miss_bound(self, j: int, k: int) -> float:
        """Exact 12-term sum bounding sensor j's miss probability."""
        s1, s2 = self.secure_ids
        return _sum_exp(self.tilde[j] + self.plain[s1] + self.plain[s2], k)

    def to_table(self, k_grid: Sequence[int]) -> str:
        k_grid = _k_grid(k_grid)
        header = ["sensor_id", "eta0", "eta1"]
        header += [f"fa_bound_K{k}" for k in k_grid]
        header += [f"miss_bound_K{k}" for k in k_grid]
        lines = ["\t".join(header)]
        for j in self.unsecure_ids:
            cells = [str(j), f"{self.fa_exponents[j]:.6e}", f"{self.miss_exponents[j]:.6e}"]
            cells += [
                f"{PREFACTOR * math.exp(-self.fa_exponents[j] * k):.6e}"
                for k in k_grid
            ]
            cells += [
                f"{PREFACTOR * math.exp(-self.miss_exponents[j] * k):.6e}"
                for k in k_grid
            ]
            lines.append("\t".join(cells))
        return "\n".join(lines) + "\n"


def _k_grid(k_grid: Sequence[int]) -> tuple[int, ...]:
    """Record lengths as Python ints, each an integer, finite and >= 1; a bad
    entry raises DomainError naming ``k_grid[i]``."""
    try:
        entries = tuple(k_grid)
    except TypeError:
        raise DomainError(f"k_grid must be a sequence, got {k_grid!r}") from None
    out = []
    for i, k in enumerate(entries):
        k = _index(k, f"k_grid[{i}]")
        if not is_finite(k):
            raise DomainError(f"k_grid[{i}] must be finite, got {shown(k)}")
        if k < 1:
            raise DomainError(f"k_grid entries must be >= 1: k_grid[{i}] must be >= 1, got {k}")
        out.append(k)
    return tuple(out)


def composite_exponents(
    s: ScenarioConfig,
    assignment: AttackAssignment,
    cfg: DetectorConfig,
) -> RateReport:
    """Evaluate every exponent for the given attack assignment and delta.

    Per unsecure sensor j the false-alarm exponent is the minimum escape
    rate among j and the two secure sensors at their true probabilities;
    the miss exponent substitutes j's post-attack probability (identical
    when j is unattacked).  Secure sensors always contribute their plain
    rates: their records are tamper-proof by construction.
    """
    s1, s2 = s.secure_pair()
    delta = cfg.delta

    c = s.constants()
    plain: dict[int, SensorRates] = {}
    tilde: dict[int, SensorRates] = {}
    for sensor, eps_l, eps_u, xi in zip(
        s.sensors, c.eps_l.tolist(), c.eps_u.tolist(), c.xi.tolist()
    ):
        j = sensor.id
        p = prob_zero(s, j)
        t = delta / (2.0 * xi)
        plain[j] = _sensor_rates(p, t, eps_l, eps_u)
        if not sensor.secure:
            spec = assignment.spec_for(j)
            tp = spec.shift(p, sensor.noise)
            try:
                tilde[j] = plain[j] if tp == p else _sensor_rates(tp, t, eps_l, eps_u)
            except DomainError as exc:
                raise DomainError(f"sensor {j} under {spec!r}: {exc}") from None

    secure_min = min(*plain[s1.id], *plain[s2.id])
    fa_exponents = {j: min(*plain[j], secure_min) for j in tilde}
    miss_exponents = {j: min(*tilde[j], secure_min) for j in tilde}
    return RateReport(
        delta=delta,
        plain=plain,
        tilde=tilde,
        secure_ids=(s1.id, s2.id),
        attacked_ids=assignment.attacked_ids(),
        fa_exponents=fa_exponents,
        miss_exponents=miss_exponents,
    )
