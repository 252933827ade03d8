"""Geometric kernel: clipped circles, rings, and their intersection tests.

The detector asks one geometric question: does the circle of estimated
radius around a sensor pass through the common area of the two anchor
rings?  Two answers are provided.  ``circle_meets_region_discretized``
walks M evenly spaced points along the circle and tests each against the
region, which is the reference formulation.  It takes the unit-circle
cos/sin table from a small cache of per-(M, chunk) read-only arrays, and
prunes as it goes: the first ring is tested on every point of a chunk, the
second ring and then each distinct clip only on the points still in.
Every surviving point goes through the same float expressions as an
unpruned walk, so the verdicts are identical, not merely close.
``circle_meets_region_analytic`` maps every constraint to closed arcs of
the circle's angle parameter and intersects the arc systems exactly,
removing M as an accuracy knob.

All region inequalities are closed: a point exactly on a ring edge or on
the clip line is inside, and a tangent circle intersects.  Interval
arithmetic inflates arcs by ANGLE_TOL radians, so ties break toward
"intersects".
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NoIntersection, TangentDegenerate
from .scenario import DistanceBounds, Point

__all__ = [
    "HalfSpace",
    "ClippedCircle",
    "Ring",
    "ring_member",
    "circle_circle_intersection",
    "phi_bound",
    "circle_meets_region_discretized",
    "circle_meets_region_analytic",
    "containment_oracle",
    "OracleReport",
]

# Tolerance (radians) used when intersecting angle intervals.
ANGLE_TOL = 1e-12
# Slack on cosine bounds before an arc is declared empty; keeps tangent
# configurations on the "intersects" side of floating point noise.
COS_TOL = 1e-12

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class HalfSpace:
    """Closed half-space on one side of the line through a and b.

    ``side`` is +1 or -1 and selects the sign of the cross product
    (b - a) x (p - a) that counts as inside.  Points on the line belong to
    the half-space regardless of side.
    """

    a: Point
    b: Point
    side: int

    def __post_init__(self) -> None:
        if (self.a.x, self.a.y) == (self.b.x, self.b.y):
            raise DomainError("half-space anchors must differ")
        if self.side not in (-1, 1):
            raise DomainError(f"side must be +1 or -1, got {self.side}")

    def contains(self, p: Point) -> bool:
        return self.signed(p.x, p.y) >= 0.0

    def signed(self, x, y):
        """side * cross product; >= 0 means inside (vectorizes over x, y)."""
        ux, uy = self.b.x - self.a.x, self.b.y - self.a.y
        return self.side * (ux * (y - self.a.y) - uy * (x - self.a.x))


@dataclass(frozen=True)
class ClippedCircle:
    center: Point
    radius: float
    clip: HalfSpace

    def __post_init__(self) -> None:
        if not (self.radius >= 0.0 and math.isfinite(self.radius)):
            raise DomainError(f"radius must be finite and >= 0, got {self.radius}")


@dataclass(frozen=True)
class Ring:
    """Half-space-clipped annulus: radius +- half_width around center.

    radius - half_width may go negative; the ring then degenerates to the
    clipped disc of radius radius + half_width (the lower distance bound is
    max(0, radius - half_width)).
    """

    center: Point
    radius: float
    half_width: float
    clip: HalfSpace

    def __post_init__(self) -> None:
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise DomainError(f"ring radius must be positive, got {self.radius}")
        if not (self.half_width >= 0.0 and math.isfinite(self.half_width)):
            raise DomainError(f"half_width must be >= 0, got {self.half_width}")

    @property
    def r_inner(self) -> float:
        return max(0.0, self.radius - self.half_width)

    @property
    def r_outer(self) -> float:
        return self.radius + self.half_width


def ring_member(p: Point, r1: Ring, r2: Ring) -> bool:
    """Whether p lies in both clipped rings (closed inequalities)."""
    for ring in (r1, r2):
        if not ring.clip.contains(p):
            return False
        d = math.hypot(p.x - ring.center.x, p.y - ring.center.y)
        if not (-ring.half_width <= d - ring.radius <= ring.half_width):
            return False
    return True


def circle_circle_intersection(
    c1: Point, r1: float, c2: Point, r2: float, clip: HalfSpace
) -> Point:
    """The intersection point of two circles on the clip side.

    Closed form in the frame where c1 is the origin and c2 sits on the
    positive x axis at distance d: x' = (r1^2 - r2^2 + d^2) / (2 d),
    y' = sqrt(r1^2 - x'^2), mapped back to the original frame.  Of the two
    mirror-image solutions the one inside the clip half-space is returned.

    Raises NoIntersection when |r1 - r2| <= d <= r1 + r2 fails; warns with
    TangentDegenerate when the two solutions coincide (y' = 0).
    """
    d = math.hypot(c2.x - c1.x, c2.y - c1.y)
    if d == 0.0:
        raise NoIntersection("concentric circles have no unique intersection")
    if d > r1 + r2 or d < abs(r1 - r2):
        raise NoIntersection(
            f"circles do not intersect: d={d}, r1={r1}, r2={r2}"
        )
    xp = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    y_sq = r1 * r1 - xp * xp
    if y_sq <= 0.0:
        # Tangent (or a hair past it from rounding): the solutions coincide.
        y_sq = 0.0
        warnings.warn(
            "circle pair is tangent; intersection points coincide",
            TangentDegenerate,
            stacklevel=2,
        )
    yp = math.sqrt(y_sq)
    ex = ((c2.x - c1.x) / d, (c2.y - c1.y) / d)
    ey = (-ex[1], ex[0])
    cand_a = Point(c1.x + xp * ex[0] + yp * ey[0], c1.y + xp * ex[1] + yp * ey[1])
    if yp == 0.0:
        return cand_a
    cand_b = Point(c1.x + xp * ex[0] - yp * ey[0], c1.y + xp * ex[1] - yp * ey[1])
    sa = clip.signed(cand_a.x, cand_a.y)
    sb = clip.signed(cand_b.x, cand_b.y)
    return cand_a if sa >= sb else cand_b


def phi_bound(bounds: DistanceBounds, upsilon: float, delta: float) -> float:
    """Radius of the ball guaranteed to contain the ring intersection.

    Phi(delta) = sqrt(2 d_upper + upsilon)
                 * sqrt(((2 d_upper + upsilon) / d_secure)
                        * (upsilon / d_secure + 1) + 2)
                 * sqrt(delta),
    valid for 0 < delta < upsilon.
    """
    if not (0.0 < delta < upsilon):
        raise DomainError(
            f"phi_bound requires 0 < delta < upsilon, got delta={delta}, "
            f"upsilon={upsilon}"
        )
    du, ds = bounds.d_upper, bounds.d_secure
    lead = 2.0 * du + upsilon
    return math.sqrt(lead) * math.sqrt((lead / ds) * (upsilon / ds + 1.0) + 2.0) * math.sqrt(delta)


# -- discretized region test ---------------------------------------------

# 128 KiB per float64 temporary.  With 256 KiB temporaries glibc's malloc
# trimmed the heap top and faulted it back in on every chunk: a walk at
# M = 2e5 took 3.3 ms on a 2-core x86 host, 1.4 ms with MALLOC_TRIM_THRESHOLD_
# raised, and 1.6 ms at this size with default malloc settings.
_CHUNK = 1 << 14


@lru_cache(maxsize=14)
def _unit_circle_chunk(m_points: int, start: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the angles 2 pi m / M for m in [start, start + _CHUNK).

    Read-only, since every walk at this M shares them.  maxsize is one more
    than the 13 chunks of the default M = 2e5, so a full walk at that M stays
    cached (3.2 MB) while a much longer walk (64 M in criterion 09's refine
    step) evicts its own chunks instead of pinning its whole table.
    """
    ang = (_TWO_PI / m_points) * np.arange(start, min(start + _CHUNK, m_points))
    cos, sin = np.cos(ang), np.sin(ang)
    cos.flags.writeable = False
    sin.flags.writeable = False
    return cos, sin


def circle_meets_region_discretized(
    circle: ClippedCircle, r1: Ring, r2: Ring, m_points: int
) -> bool:
    """Reference test: M evenly spaced circle points against the region.

    Point m (1-based) sits at angle 2 pi (m - 1) / M.  Returns True on the
    first chunk holding a point that lies inside both rings and in every
    clip half-space.  Distances are compared squared; the loop is chunked
    so the early exit still applies.

    The cos/sin table comes from a small per-(M, chunk) cache.  Each chunk
    tests the first ring on every point, the second ring only on the points
    still in, then each distinct clip (keyed on (a, b, side)) on what is
    left.  A surviving point is evaluated with the same float expressions
    as testing every constraint on every point, and the verdict is an AND
    over constraints followed by an any over points, so pruning changes
    which points are computed, never the verdict.
    """
    if m_points < 3:
        raise DomainError(f"need at least 3 circle points, got {m_points}")
    cx, cy, r0 = circle.center.x, circle.center.y, circle.radius
    rings = (
        (r1.center.x, r1.center.y, r1.r_inner**2, r1.r_outer**2),
        (r2.center.x, r2.center.y, r2.r_inner**2, r2.r_outer**2),
    )
    clips = {(c.a, c.b, c.side): c for c in (circle.clip, r1.clip, r2.clip)}.values()

    for start in range(0, m_points, _CHUNK):
        cos, sin = _unit_circle_chunk(m_points, start)
        x = cx + r0 * cos
        y = cy + r0 * sin
        for qx, qy, lo_sq, hi_sq in rings:
            dsq = (x - qx) ** 2 + (y - qy) ** 2
            keep = np.flatnonzero((dsq >= lo_sq) & (dsq <= hi_sq))
            x, y = x[keep], y[keep]
        for clip in clips:
            keep = np.flatnonzero(clip.signed(x, y) >= 0.0)
            x, y = x[keep], y[keep]
        if x.size:
            return True
    return False


# -- analytic region test -------------------------------------------------
#
# Arcs are closed intervals [lo, hi] of the angle parameter, kept with
# lo <= hi on the universal cover; intervals may wrap past 2 pi and are cut
# at the 0 / 2 pi seam before intersection.


def _cos_band_arcs(alpha: float, lo: float, hi: float) -> list[tuple[float, float]] | None:
    """Arcs where cos(phi - alpha) lies in [lo, hi].

    Returns None for "all angles" and [] for "no angles".
    """
    if lo > 1.0 + COS_TOL or hi < -1.0 - COS_TOL:
        return []
    if lo <= -1.0 and hi >= 1.0:
        return None
    a = math.acos(min(1.0, max(-1.0, hi)))   # inner limit, 0 when hi >= 1
    b = math.acos(min(1.0, max(-1.0, lo)))   # outer limit, pi when lo <= -1
    if a == 0.0:
        return [(alpha - b, alpha + b)]
    if b == math.pi:
        # complement of the open cone |phi - alpha| < a
        return [(alpha + a, alpha + _TWO_PI - a)]
    return [(alpha + a, alpha + b), (alpha - b, alpha - a)]


def _cut_at_seam(arcs: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Normalize arcs into [0, 2 pi], splitting any that cross the seam."""
    out = []
    for lo, hi in arcs:
        width = hi - lo
        if width >= _TWO_PI:
            return [(0.0, _TWO_PI)]
        lo = lo % _TWO_PI
        hi = lo + width
        if hi <= _TWO_PI:
            out.append((lo, hi))
        else:
            out.append((lo, _TWO_PI))
            out.append((0.0, hi - _TWO_PI))
    return out


def _intersect_unions(
    u: list[tuple[float, float]], v: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    out = []
    for alo, ahi in u:
        for blo, bhi in v:
            lo = max(alo, blo)
            hi = min(ahi, bhi)
            if hi >= lo:
                out.append((lo, hi))
    return out


def circle_meets_region_analytic(circle: ClippedCircle, r1: Ring, r2: Ring) -> bool:
    """Exact test: arc-interval intersection of all region constraints.

    A point of the circle at angle phi has squared distance
    d_i^2 + r0^2 + 2 r0 d_i cos(phi - beta_i) to a ring center at distance
    d_i from the circle center, so each ring bound becomes a band on
    cos(phi - beta_i); the half-space is a single cosine bound.  The
    verdict is whether the intersection of all resulting arc unions is
    nonempty.  Agrees with the discretized test in the large-M limit.
    """
    cx, cy, r0 = circle.center.x, circle.center.y, circle.radius

    if r0 == 0.0:
        return circle.clip.contains(circle.center) and ring_member(
            circle.center, r1, r2
        )

    constraint_arcs: list[list[tuple[float, float]]] = []

    clips = {(c.a, c.b, c.side): c for c in (circle.clip, r1.clip, r2.clip)}
    for clip in clips.values():
        ux, uy = clip.b.x - clip.a.x, clip.b.y - clip.a.y
        norm = math.hypot(ux, uy)
        # signed(x, y) = side * (ux (y - ay) - uy (x - ax)); on the circle it
        # is A + r0 * n . u(phi) with n = side * (-uy, ux).
        nx, ny = clip.side * -uy, clip.side * ux
        a_const = clip.signed(cx, cy)
        # cos(phi - alpha_n) >= -A / (r0 |n|)
        w = -a_const / (r0 * norm)
        arcs = _cos_band_arcs(math.atan2(ny, nx), w, 1.0)
        if arcs == []:
            return False
        if arcs is not None:
            constraint_arcs.append(arcs)

    for ring in (r1, r2):
        dx, dy = ring.center.x - cx, ring.center.y - cy
        d_i = math.hypot(dx, dy)
        lo_r, hi_r = ring.r_inner, ring.r_outer
        if d_i == 0.0:
            if not (lo_r <= r0 <= hi_r):
                return False
            continue
        # distance^2 = d_i^2 + r0^2 + 2 r0 d_i cos(phi - beta), with beta the
        # direction from the ring center to the circle center.  The squared
        # bounds are factored through hypot to dodge cancellation at large
        # radii: R^2 - d^2 - r0^2 = (R - h)(R + h) with h = hypot(d, r0).
        h = math.hypot(d_i, r0)
        denom = 2.0 * r0 * d_i
        lo = (lo_r - h) * (lo_r + h) / denom
        hi = (hi_r - h) * (hi_r + h) / denom
        beta = math.atan2(-dy, -dx)  # direction of (circle center - ring center)
        # p(phi) - ring.center = (c0 - c_i) + r0 u(phi); the cosine term uses
        # the angle of (c0 - c_i), which is beta.
        arcs = _cos_band_arcs(beta, lo, hi)
        if arcs == []:
            return False
        if arcs is not None:
            constraint_arcs.append(arcs)

    if not constraint_arcs:
        return True

    # Inflate by the angular tolerance, cut at the seam, then fold together.
    current = [(0.0, _TWO_PI)]
    for arcs in constraint_arcs:
        inflated = [(lo - ANGLE_TOL, hi + ANGLE_TOL) for lo, hi in arcs]
        current = _intersect_unions(current, _cut_at_seam(inflated))
        if not current:
            return False
    return True


# -- containment oracle ---------------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    """Brute-force check of the two-sided containment around the target.

    upper_ok: every sampled point of the ring intersection is within
    phi_delta of the target.  lower_ok: a grid of the clipped delta-ball
    around the target (with true-radius rings) lies inside both rings.
    assumptions_ok reflects the separation condition computable from the
    distance bounds alone; when False the bound carries no guarantee.
    """

    upper_ok: bool
    lower_ok: bool
    max_intersection_distance: float
    phi_delta: float
    sample_count: int
    assumptions_ok: bool
    note: str


def _intersection_samples(
    r1: Ring, r2: Ring, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the clipped ring intersection in radius coordinates.

    A point of the intersection is determined by its distances (rho1, rho2)
    to the two ring centers together with the clip side, so sampling the
    rectangle [r_inner, r_outer]^2 (corners included) and mapping through
    the two-circle closed form sweeps the whole region, including the
    extremal-radius corners where the farthest points live.  Infeasible
    pairs (violating the triangle inequality) are rejected.
    """
    c1, c2 = r1.center, r2.center
    d = math.hypot(c2.x - c1.x, c2.y - c1.y)
    rho1 = rng.uniform(r1.r_inner, r1.r_outer, size=n)
    rho2 = rng.uniform(r2.r_inner, r2.r_outer, size=n)
    corners1, corners2 = np.meshgrid(
        [r1.r_inner, r1.radius, r1.r_outer], [r2.r_inner, r2.radius, r2.r_outer]
    )
    rho1 = np.concatenate([rho1, corners1.ravel()])
    rho2 = np.concatenate([rho2, corners2.ravel()])

    feasible = (np.abs(rho1 - rho2) <= d) & (rho1 + rho2 >= d)
    rho1, rho2 = rho1[feasible], rho2[feasible]

    xp = (rho1**2 - rho2**2 + d * d) / (2.0 * d)
    y_sq = np.maximum(rho1**2 - xp**2, 0.0)
    yp = np.sqrt(y_sq)
    ex = ((c2.x - c1.x) / d, (c2.y - c1.y) / d)
    ey = (-ex[1], ex[0])

    x_plus = c1.x + xp * ex[0] + yp * ey[0]
    y_plus = c1.y + xp * ex[1] + yp * ey[1]
    x_minus = c1.x + xp * ex[0] - yp * ey[0]
    y_minus = c1.y + xp * ex[1] - yp * ey[1]
    use_plus = r1.clip.signed(x_plus, y_plus) >= r1.clip.signed(x_minus, y_minus)
    x = np.where(use_plus, x_plus, x_minus)
    y = np.where(use_plus, y_plus, y_minus)
    inside = r1.clip.signed(x, y) >= 0.0
    return x[inside], y[inside]


def containment_oracle(
    bounds: DistanceBounds,
    upsilon: float,
    delta: float,
    r1: Ring,
    r2: Ring,
    target: Point,
    samples: int,
    seed: int = 0,
) -> OracleReport:
    """Sample-based verification of the containment chain around the target.

    The given rings may carry radii perturbed within +-delta of the true
    target distances; the lower check rebuilds rings at the true radii.
    """
    phi = phi_bound(bounds, upsilon, delta)
    rng = np.random.default_rng(seed)

    x, y = _intersection_samples(r1, r2, samples, rng)
    if x.size:
        dist = np.hypot(x - target.x, y - target.y)
        max_dist = float(dist.max())
    else:
        max_dist = 0.0
    upper_ok = max_dist <= phi

    d1 = math.hypot(target.x - r1.center.x, target.y - r1.center.y)
    d2 = math.hypot(target.x - r2.center.x, target.y - r2.center.y)
    true1 = Ring(r1.center, d1, delta, r1.clip)
    true2 = Ring(r2.center, d2, delta, r2.clip)
    # Grid the clipped delta-ball; points exactly on the sphere boundary sit
    # exactly on a ring edge, so the closed comparison gets a small absolute
    # slack scaled to the ring radius.
    g = max(8, math.isqrt(max(1, samples // 10)))
    axis = np.linspace(-delta, delta, 2 * g + 1)
    gx, gy = np.meshgrid(axis, axis)
    in_ball = gx**2 + gy**2 <= delta * delta
    px = target.x + gx[in_ball]
    py = target.y + gy[in_ball]
    in_clip = true1.clip.signed(px, py) >= 0.0
    px, py = px[in_clip], py[in_clip]
    lower_ok = True
    for ring in (true1, true2):
        dist_r = np.hypot(px - ring.center.x, py - ring.center.y)
        slack = 1e-9 * (1.0 + ring.radius)
        lower_ok &= bool(
            np.all((dist_r >= ring.r_inner - slack) & (dist_r <= ring.r_outer + slack))
        )

    separation_ok = bounds.d_secure > bounds.d_upper - bounds.d_lower + 2.0 * upsilon
    note = (
        "separation condition holds for the supplied margin"
        if separation_ok
        else "assumptions unmet; bound not guaranteed"
    )
    return OracleReport(
        upper_ok=upper_ok,
        lower_ok=lower_ok,
        max_intersection_distance=max_dist,
        phi_delta=phi,
        sample_count=int(x.size),
        assumptions_ok=separation_ok,
        note=note,
    )
