"""Geometric kernel: clipped rings, circle crossings, and the region tests.

The detector asks one geometric question: does the circle of estimated
radius around a sensor pass through R, the common area of the two anchor
rings on the ROI side of the anchor line?  Two answers are provided, both
taking the circle as its center ``Point`` and its radius (finite and >= 0,
else DomainError), so a detection builds no object per sensor.
``circle_meets_region_discretized`` walks M evenly spaced points along the
circle and tests each against the region, which is the reference
formulation and accepts any ring clips.  Each ring or clip constraint is
a sinusoid along the circle, so the walk cuts the circle where one crosses
a limit and walks, in angle order, each run no constraint rules out,
testing every point it reaches with the float expressions of an unpruned
walk: the verdicts are identical, not merely close.
``circle_meets_region_analytic`` needs both rings clipped by the line
through their centers, as the detector builds them.  R is then connected,
so the distances from the circle's center to R fill an interval
[dmin, dmax], and the circle meets R exactly when its radius lies in it.
The interval's ends come from a few closed-form candidate points, which
removes M as an accuracy knob.  R's corners, like every two-circle
crossing here, come from the one kernel ``_crossing``.

All region inequalities are closed: a point exactly on a ring edge or on
the clip line is inside, and a tangent circle intersects.  The analytic
test widens membership and the interval by a relative slack of 1e-12, so
ties break toward "intersects".
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoIntersection, TangentDegenerate
from .noise import _index, is_finite, shown
from .scenario import DistanceBounds, Point

__all__ = [
    "HalfSpace",
    "Ring",
    "circle_circle_intersection",
    "phi_bound",
    "circle_meets_region_discretized",
    "circle_meets_region_analytic",
    "containment_oracle",
    "OracleReport",
]

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
            raise DomainError(f"side must be +1 or -1, got {shown(self.side)}")

    def contains(self, p: Point) -> bool:
        return self.signed(p.x, p.y) >= 0.0

    def signed(self, x, y):
        """side * cross product; >= 0 means inside (vectorizes over x, y)."""
        ux, uy = self.b.x - self.a.x, self.b.y - self.a.y
        return self.side * (ux * (y - self.a.y) - uy * (x - self.a.x))


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
        if not (self.radius > 0.0 and is_finite(self.radius)):
            raise DomainError(f"ring radius must be positive, got {shown(self.radius)}")
        if not (self.half_width >= 0.0 and is_finite(self.half_width)):
            raise DomainError(f"half_width must be >= 0, got {shown(self.half_width)}")

    @property
    def r_inner(self) -> float:
        return max(0.0, self.radius - self.half_width)

    @property
    def r_outer(self) -> float:
        return self.radius + self.half_width


def _crossing(r1, r2, d):
    """(x', y'), y' >= 0: where circles of radii r1 and r2 around (0, 0) and
    (d, 0) cross, the other crossing being (x', -y').  Floats and arrays alike."""
    x = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    y_sq = (r1 - x) * (r1 + x)
    if type(y_sq) is float:
        return x, math.sqrt(max(y_sq, 0.0))
    return x, np.sqrt(np.maximum(y_sq, 0.0))


def _clip_side(c1: Point, c2: Point, d: float, x, y, clip: HalfSpace):
    """Of the crossings (x, +-y) in the frame of c1 and c2 at distance d, the one
    deeper in the clip half-space, in world coordinates; (x, y) wins a tie."""
    ex, ey = (c2.x - c1.x) / d, (c2.y - c1.y) / d
    px, py = c1.x + x * ex, c1.y + x * ey
    ax, ay, bx, by = px - y * ey, py + y * ex, px + y * ey, py - y * ex
    first = clip.signed(ax, ay) >= clip.signed(bx, by)
    return np.where(first, ax, bx), np.where(first, ay, by)


def circle_circle_intersection(
    c1: Point, r1: float, c2: Point, r2: float, clip: HalfSpace
) -> Point:
    """The intersection point of two circles on the clip side.

    Closed form in the frame where c1 is the origin and c2 sits on the
    positive x axis at distance d: x' = (r1^2 - r2^2 + d^2) / (2 d),
    y' = sqrt(r1^2 - x'^2), mapped back to the original frame.  Of the two
    mirror-image solutions the one deeper in the clip half-space is returned.

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
    x, y = _crossing(r1, r2, d)
    if y == 0.0:
        # Tangent (or a hair past it from rounding): the solutions coincide.
        warnings.warn(
            "circle pair is tangent; intersection points coincide",
            TangentDegenerate,
            stacklevel=2,
        )
    px, py = _clip_side(c1, c2, d, x, y, clip)
    return Point(float(px), float(py))


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

# The most points one piece of a walk holds.  It bounds the trig
# temporaries (128 KiB per float64 array) and the lists ``tolist()`` makes
# of them, and the cos and sin taken past a piece's first hit, which the
# walk never reads.
_CHUNK = 1 << 14


def check_m_points(m_points) -> int:
    """M as a Python int: an integer (numpy integers included) of at least 3,
    within the float range."""
    m = _index(m_points, "m_points")
    if m < 3:
        raise DomainError(f"m_points must be >= 3, got {shown(m)}")
    if m > sys.float_info.max:
        raise DomainError(f"m_points must lie within the float range, got {shown(m)}")
    return m


# The walk skips every run of points (the whole circle, or a run between two
# cuts) in which some constraint fails at every point.  On the circle
# c + r0 e(theta) each constraint is an exact sinusoid, base + amp cos(theta - phase):
#   ring:  |p - q|^2 = |c - q|^2 + r0^2 + 2 r0 |c - q| cos(theta - phi),
#          phi the direction of c - q;
#   clip:  signed(p) = signed(c) + r0 |u| cos(theta - psi),
#          u = b - a and psi the direction of the clip's inward normal.
# Over the whole circle it spans [base - amp, base + amp].  Over a run's arc
# [mid - h, mid + h], with off = |mid - phase| wrapped into [0, pi],
# cos(theta - phase) spans exactly [cos(min(pi, off + h)), cos(max(0, off - h))].
#
# The walk's value at a point differs from the sinusoid's only by rounding:
# the angle and its cos/sin (a few ulps of 2 pi), c + r0 cos at the
# magnitude of the coordinates, the difference to q or a, and the squares or
# products.  With L the sum of the absolute coordinates involved plus r0,
# that is a few ulps of L (|c - q| + r0) for a ring's squared distance and of
# L |u| for a clip's signed value, and the bound's own rounding is smaller.
# The limits are widened by _SKIP_SLACK = 1e-9 of those products, about
# 4.5e6 ulps, so a run is skipped only when every point of the walk fails
# the constraint as well.
_SKIP_SLACK = 1e-9
_PAD = 2


def _live_runs(cx, cy, r0, rings, clips, m_points):
    """Yield [first, end) for each run of points that no constraint rules out,
    in angle order, bounding a run only when the caller asks for the next.

    Constraint k holds where base + amp cos(theta - phase) lies in [lo, hi],
    its limits widened by the rounding margin.  When one fails on the whole
    circle, nothing is yielded and no phase is computed.  A constraint
    crosses a limit L at theta = phase +- acos((L - base) / amp).  Runs are
    cut _PAD points either side of each crossing, so a live run is mostly a
    crossing's run, holding a hit _PAD points in.  A misplaced cut leaves a
    run live: a longer walk, never another verdict.
    """
    rows = []  # (base, amp, lo, hi, y, x), the phase being atan2(y, x)
    for qx, qy, lo_sq, hi_sq in rings:
        dx, dy = cx - qx, cy - qy
        dist = math.hypot(dx, dy)
        tol = _SKIP_SLACK * (abs(cx) + abs(cy) + abs(qx) + abs(qy) + r0) * (dist + r0)
        base, amp = dist * dist + r0 * r0, 2.0 * r0 * dist
        if base + amp < lo_sq - tol or base - amp > hi_sq + tol:
            return
        rows.append((base, amp, lo_sq - tol, hi_sq + tol, dy, dx))
    for clip in clips:
        ux, uy = clip.b.x - clip.a.x, clip.b.y - clip.a.y
        scale = abs(cx) + abs(cy) + abs(clip.a.x) + abs(clip.a.y) + r0
        tol = _SKIP_SLACK * scale * (abs(ux) + abs(uy))
        base, amp = clip.signed(cx, cy), r0 * math.hypot(ux, uy)
        if base + amp < -tol:
            return
        rows.append((base, amp, -tol, math.inf, clip.side * ux, -clip.side * uy))
    rows = [(base, amp, math.atan2(y, x), lo, hi) for base, amp, lo, hi, y, x in rows]
    step = _TWO_PI / m_points
    cuts = {0, m_points}
    for base, amp, phase, lo, hi in rows:
        for limit in (lo, hi):
            if -amp < limit - base < amp:
                t = math.acos((limit - base) / amp)
                for theta in (phase - t, phase + t):
                    m = int(theta % _TWO_PI / step) + 1  # the first point past it
                    cuts.update(((m - _PAD) % m_points, (m + _PAD) % m_points))
    cuts = sorted(cuts)
    for first, end in zip(cuts, cuts[1:]):
        half = (0.5 * step) * (end - 1 - first)
        mid = (0.5 * step) * (first + end - 1)
        for base, amp, phase, lo, hi in rows:
            off = abs((mid - phase + math.pi) % _TWO_PI - math.pi)
            if base + amp * math.cos(max(off - half, 0.0)) < lo:
                break
            if hi < math.inf and base + amp * math.cos(min(off + half, math.pi)) > hi:
                break
        else:
            yield first, end


def _walk(cx, cy, r0, rings, clips, cos, sin) -> bool:
    """Whether some point c + r0 (cos, sin) lies in both rings and every clip.

    Each point is tested in Python floats, returning on the first that
    passes: x = cx + r0 cos, the squared distance dx * dx + dy * dy in the
    closed [lo_sq, hi_sq], and ``HalfSpace.signed``'s expression >= 0.
    """
    clips = [(c.a.x, c.a.y, c.b.x - c.a.x, c.b.y - c.a.y, c.side) for c in clips]
    for c, s in zip(cos.tolist(), sin.tolist()):
        x = cx + r0 * c
        y = cy + r0 * s
        for qx, qy, lo_sq, hi_sq in rings:
            dx, dy = x - qx, y - qy
            if not lo_sq <= dx * dx + dy * dy <= hi_sq:
                break
        else:
            for ax, ay, ux, uy, side in clips:
                if not side * (ux * (y - ay) - uy * (x - ax)) >= 0.0:
                    break
            else:
                return True
    return False


def circle_meets_region_discretized(
    center: Point, radius: float, r1: Ring, r2: Ring, m_points: int
) -> bool:
    """Reference test: M evenly spaced points of the circle of ``radius``
    around ``center`` against the region.

    The radius must be finite and >= 0, else DomainError.  Point m
    (1-based) sits at angle 2 pi (m - 1) / M.  Returns True on the
    first walked point that lies inside both rings and in both rings'
    clip half-spaces.  Distances are compared squared.

    The whole circle is bounded first, before any phase or numpy call.
    Then runs are cut two points either side of each angle where a
    constraint crosses one of its limits, and bounded in angle order: a run
    is skipped at the first constraint whose exact range on it misses its
    limits by more than 1e-9 of the walk's magnitudes, far beyond rounding,
    and a live run is walked at once, so a hit returns before any later run
    is bounded.  A run is walked in pieces of at most 16,384 points, their
    cos and sin taken at once in numpy, and each point is tested in Python
    floats with the float operations of a walk over the whole circle, so
    the verdict is that of an unpruned walk.
    """
    try:
        finite = math.isfinite(radius)
    except OverflowError:  # an int past the float range
        finite = False
    if not (radius >= 0.0 and finite):
        raise DomainError(f"radius must be finite and >= 0, got {shown(radius)}")
    m_points = check_m_points(m_points)
    cx, cy, r0 = center.x, center.y, radius
    rings = (
        (r1.center.x, r1.center.y, r1.r_inner**2, r1.r_outer**2),
        (r2.center.x, r2.center.y, r2.r_inner**2, r2.r_outer**2),
    )
    clips = (r1.clip,) if r2.clip == r1.clip else (r1.clip, r2.clip)
    step = _TWO_PI / m_points
    for first, end in _live_runs(cx, cy, r0, rings, clips, m_points):
        for lo in range(first, end, _CHUNK):
            ang = step * np.arange(lo, min(lo + _CHUNK, end))
            if _walk(cx, cy, r0, rings, clips, np.cos(ang), np.sin(ang)):
                return True
    return False


# -- analytic region test -------------------------------------------------

# Relative slack on membership in R and on the verdict, so that tangent and
# corner cases break toward "intersects".
_SLACK = 1e-12


class _AnchorFrame:
    """R, the rings' common area, in the frame of the rings' shared clip line.

    Ring 1's center is the origin, u runs along the clip line, v is the
    distance into the clip side, and ring 2's center sits at (x2, 0).
    ``corners`` holds R's ring-ring and ring-line corners, found once per
    ring pair and kept only if they lie in R.
    """

    def __init__(self, r1: Ring, r2: Ring) -> None:
        clip = r1.clip
        if r2.clip != clip:
            raise DomainError("the analytic region test needs both rings to share one clip")
        ux, uy = clip.b.x - clip.a.x, clip.b.y - clip.a.y
        norm = math.hypot(ux, uy)
        self.ox, self.oy = r1.center.x, r1.center.y
        self.eux, self.euy = ux / norm, uy / norm
        self.evx, self.evy = -clip.side * self.euy, clip.side * self.eux
        x2 = (r2.center.x - self.ox) * self.eux + (r2.center.y - self.oy) * self.euy
        self.scale = abs(x2) + r1.r_outer + r2.r_outer
        self.tol = _SLACK * self.scale
        for ring in (r1, r2):
            if abs(clip.signed(ring.center.x, ring.center.y)) > self.tol * norm:
                raise DomainError(
                    "the analytic region test needs the clip line to pass "
                    "through both ring centers"
                )
        self.rings = ((0.0, r1.r_inner, r1.r_outer), (x2, r2.r_inner, r2.r_outer))

        points = [(xc + rho, 0.0) for xc, lo, hi in self.rings for rho in (-hi, -lo, lo, hi)]
        if x2 != 0.0:
            for rho1 in (r1.r_inner, r1.r_outer):
                for rho2 in (r2.r_inner, r2.r_outer):
                    points.append(_crossing(rho1, rho2, x2))
        self.corners = tuple(p for p in points if self.contains(*p))

    def contains(self, u: float, v: float) -> bool:
        tol = self.tol
        if v < -tol:
            return False
        for xc, lo, hi in self.rings:
            rho = math.hypot(u - xc, v)
            if rho < lo - tol or rho > hi + tol:
                return False
        return True

    def ray_points(self, cu: float, cv: float, sign: float) -> list[tuple[float, float]]:
        """Each ring circle's point on the ray from its center through c.

        sign +1 gives the points nearest c, -1 the farthest.  When c is a
        ring's center every point of that circle is equally far, and the
        corners already hold the ones in R.
        """
        points = []
        for xc, lo, hi in self.rings:
            n = math.hypot(cu - xc, cv)
            du, dv = ((cu - xc) / n, cv / n) if n else (1.0, 0.0)
            points += [(xc + sign * rho * du, sign * rho * dv) for rho in (lo, hi)]
        return points


# The last (ring1, ring2, frame), matched by identity: a detection tests
# every sensor against one ring pair.  Threads read or replace the whole
# tuple, so need no lock.
_last_frame: tuple = (None, None, None)


def circle_meets_region_analytic(center: Point, radius: float, r1: Ring, r2: Ring) -> bool:
    """Exact test: whether ``radius`` lies in R's distance interval from ``center``.

    The circle is given by its center c and its radius, which must be
    finite and >= 0, else DomainError.  R is the rings' common area on
    their clip side.  The rings must share one clip whose line passes
    through both centers, as the detector's anchor rings do; anything else
    raises DomainError.  On the closed clip half-plane, a point maps
    one-to-one and continuously onto its distances (rho1, rho2) to the two
    centers, and the image is the convex set |rho1 - rho2| <= d <= rho1 +
    rho2.  R is the preimage of a rectangle of radii cut by that set, so R
    is connected, and the distances from c to R fill one interval
    [dmin, dmax].  The circle meets R exactly when dmin <= radius <= dmax.

    Both ends lie on R's boundary, which is made of arcs of the four ring
    circles and segments of the clip line, so they are among these
    candidates in R: R's corners (ring-ring and ring-line crossings), the
    nearest (for dmin) and farthest (for dmax) point of each ring circle on
    the ray from its center through c, and, for dmin, the foot of c on the
    clip line.  dmin is 0 when c lies in R.  The corners bracket the
    interval, their nearest and farthest found in one pass, so the other
    candidates are needed only on the side where the radius falls outside
    that bracket.  A candidate counts as in R with a slack of 1e-12 of R's
    size, and the interval is widened by 1e-12 of R's size plus the radius,
    so tangent and corner ties read as "intersects".

    When c lies on the clip line, as every sensor the detector places on
    its anchor line does, the foot of c is c itself and the ray points are
    line points the frame already built, bit for bit; those in R are
    corners.  So a radius that clears the corners' distances by the slack
    is decided right after the test of c, with no other candidate.
    """
    try:
        finite = math.isfinite(radius)
    except OverflowError:  # an int past the float range
        finite = False
    if not (radius >= 0.0 and finite):
        raise DomainError(f"radius must be finite and >= 0, got {shown(radius)}")
    global _last_frame
    last_r1, last_r2, f = _last_frame
    if last_r1 is not r1 or last_r2 is not r2:
        f = _AnchorFrame(r1, r2)
        _last_frame = (r1, r2, f)
    if not f.corners:
        # every ring circle crosses the clip line, so a nonempty R has a corner
        return False
    px, py = center.x - f.ox, center.y - f.oy
    cu = px * f.eux + py * f.euy
    cv = px * f.evx + py * f.evy
    tol = _SLACK * (f.scale + radius)
    nearest, farthest = math.inf, 0.0
    for u, v in f.corners:
        dist = math.hypot(u - cu, v - cv)
        nearest = dist if dist < nearest else nearest
        farthest = dist if dist > farthest else farthest
    if radius < nearest - tol:
        if f.contains(cu, cv):
            return True
        # On the line the candidates below are corners or c; none is within
        # radius + tol unless rounding let a corner through the bracket above.
        if cv == 0.0 and radius + tol < nearest:
            return False
        near = [(cu, 0.0), *f.ray_points(cu, cv, 1.0)]
        return any(
            math.hypot(u - cu, v - cv) <= radius + tol for u, v in near if f.contains(u, v)
        )
    if radius > farthest + tol:
        if cv == 0.0 and farthest < radius - tol:
            return False
        return any(
            math.hypot(u - cu, v - cv) >= radius - tol
            for u, v in f.ray_points(cu, cv, -1.0)
            if f.contains(u, v)
        )
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

    x, y = _clip_side(c1, c2, d, *_crossing(rho1, rho2, d), r1.clip)
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
