"""Clipped rings, circle intersections, and the region membership tests."""

import functools
import math
import sys
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_region_trial
from quantloc import (
    DetectorConfig,
    DistanceBounds,
    DomainError,
    HalfSpace,
    NoIntersection,
    Point,
    Ring,
    build_paper_setup,
    circle_circle_intersection,
    circle_meets_region_analytic,
    circle_meets_region_discretized,
    containment_oracle,
    detect_all,
    generate_dataset,
    phi_bound,
)
from quantloc import detector, geometry
from quantloc.geometry import _CHUNK, _PAD, _SLACK, _AnchorFrame

# the M grids keep point counts around 1024, a block size the walk once had
_BLOCK = 1 << 10

PHI_BOUND_REF = 3.11367949538805294166

UPPER = HalfSpace(Point(0.0, 0.0), Point(1.0, 0.0), side=1)
LOWER = HalfSpace(Point(0.0, 0.0), Point(1.0, 0.0), side=-1)
# a clip far below everything in these tests, effectively no constraint
OPEN = HalfSpace(Point(-1.0, -100.0), Point(1.0, -100.0), side=1)


def test_half_space_validation_and_membership():
    with pytest.raises(DomainError):
        HalfSpace(Point(1.0, 1.0), Point(1.0, 1.0), side=1)
    with pytest.raises(DomainError):
        HalfSpace(Point(0.0, 0.0), Point(1.0, 0.0), side=0)
    assert UPPER.contains(Point(0.0, 1.0))
    assert not UPPER.contains(Point(0.0, -1.0))
    assert LOWER.contains(Point(0.0, -1.0))
    # the boundary line belongs to both closed half-spaces
    assert UPPER.contains(Point(5.0, 0.0))
    assert LOWER.contains(Point(5.0, 0.0))
    signed = UPPER.signed(np.array([0.0, 0.0]), np.array([2.0, -2.0]))
    assert signed.tolist() == [2.0, -2.0]


def test_ring_and_circle_validation():
    with pytest.raises(DomainError):
        Ring(Point(0.0, 0.0), 0.0, 1.0, UPPER)
    with pytest.raises(DomainError):
        Ring(Point(0.0, 0.0), 1.0, -0.1, UPPER)
    wide = Ring(Point(0.0, 0.0), 1.0, 3.0, UPPER)
    assert wide.r_inner == 0.0
    assert wide.r_outer == 4.0
    r1, r2 = _sym_rings()
    with pytest.raises(DomainError):
        circle_meets_region_analytic(Point(0.0, 0.0), -1.0, r1, r2)
    assert not circle_meets_region_analytic(Point(0.0, 0.0), 0.0, r1, r2)


def test_circle_intersection_hand_case():
    p = circle_circle_intersection(Point(0.0, 0.0), 5.0, Point(8.0, 0.0), 5.0, UPPER)
    assert (p.x, p.y) == pytest.approx((4.0, 3.0), abs=1e-12)
    q = circle_circle_intersection(Point(0.0, 0.0), 5.0, Point(8.0, 0.0), 5.0, LOWER)
    assert (q.x, q.y) == pytest.approx((4.0, -3.0), abs=1e-12)


def test_circle_intersection_rejects_infeasible_pairs():
    with pytest.raises(NoIntersection):
        circle_circle_intersection(Point(0.0, 0.0), 1.0, Point(0.0, 0.0), 2.0, UPPER)
    with pytest.raises(NoIntersection):
        circle_circle_intersection(Point(0.0, 0.0), 1.0, Point(10.0, 0.0), 2.0, UPPER)
    with pytest.raises(NoIntersection):
        circle_circle_intersection(Point(0.0, 0.0), 5.0, Point(1.0, 0.0), 1.0, UPPER)


def test_circle_intersection_tangent_is_the_one_crossing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = circle_circle_intersection(
            Point(0.0, 0.0), 2.0, Point(5.0, 0.0), 3.0, UPPER
        )
    assert (p.x, p.y) == pytest.approx((2.0, 0.0), abs=1e-9)


def test_phi_bound_frozen_value_and_domain():
    bounds = DistanceBounds(1.0, 3.0, 10.0)
    assert phi_bound(bounds, 1.0, 0.5) == pytest.approx(PHI_BOUND_REF, rel=1e-15)
    with pytest.raises(DomainError):
        phi_bound(bounds, 1.0, 1.0)
    with pytest.raises(DomainError):
        phi_bound(bounds, 1.0, 0.0)
    # monotone in delta on its domain
    assert phi_bound(bounds, 1.0, 0.25) < phi_bound(bounds, 1.0, 0.5)


def _sym_rings(half_width=0.5, clip=UPPER):
    r = math.sqrt(125.0)
    return (
        Ring(Point(-10.0, 0.0), r, half_width, clip),
        Ring(Point(10.0, 0.0), r, half_width, clip),
    )


def test_region_membership_hand_cases():
    r1, r2 = _sym_rings()
    origin = Point(0.0, 0.0)
    for test in (circle_meets_region_analytic, lambda c, r, a, b: circle_meets_region_discretized(c, r, a, b, 100_000)):
        assert test(origin, 5.0, r1, r2)
        assert not test(origin, 3.0, r1, r2)


_REGION_TESTS = {
    "analytic": circle_meets_region_analytic,
    "discretized": lambda c, r, a, b: circle_meets_region_discretized(c, r, a, b, 4096),
}


@pytest.mark.parametrize("test", _REGION_TESTS.values(), ids=_REGION_TESTS.keys())
@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
def test_region_tests_reject_a_radius_that_is_negative_or_not_finite(test, bad):
    r1, r2 = _sym_rings()
    with pytest.raises(DomainError, match="radius"):
        test(Point(0.0, 5.0), bad, r1, r2)


@pytest.mark.parametrize("test", _REGION_TESTS.values(), ids=_REGION_TESTS.keys())
def test_region_tests_accept_a_zero_radius(test):
    r1, r2 = _sym_rings()
    assert test(Point(0.0, 5.0), 0.0, r1, r2)
    assert not test(Point(0.0, 0.0), 0.0, r1, r2)


def test_region_membership_zero_radius_circle():
    r1, r2 = _sym_rings()
    assert circle_meets_region_analytic(Point(0.0, 5.0), 0.0, r1, r2)
    assert not circle_meets_region_analytic(Point(0.0, 0.0), 0.0, r1, r2)


def test_region_membership_concentric_ring_branch():
    # the sensor sits at ring 1's center, so every circle point is
    # equidistant from it and the rays through that center are undefined
    clip = HalfSpace(Point(0.0, 0.0), Point(0.0, 3.0), side=1)
    r1 = Ring(Point(0.0, 0.0), 5.0, 0.5, clip)
    r2 = Ring(Point(0.0, 3.0), 4.0, 2.0, clip)
    c = Point(0.0, 0.0)
    assert circle_meets_region_analytic(c, 5.0, r1, r2)
    assert circle_meets_region_discretized(c, 5.0, r1, r2, 100_000)
    assert not circle_meets_region_analytic(c, 2.0, r1, r2)
    assert not circle_meets_region_discretized(c, 2.0, r1, r2, 100_000)


def test_region_membership_discretized_rejects_tiny_grids():
    r1, r2 = _sym_rings()
    c = Point(0.0, 0.0)
    for bad in (2, 2e5, "4096"):
        with pytest.raises(DomainError, match="m_points"):
            circle_meets_region_discretized(c, 5.0, r1, r2, bad)
    assert circle_meets_region_discretized(c, 5.0, r1, r2, np.int64(4096))


def test_region_membership_analytic_needs_the_anchor_line_clip():
    r1, r2 = _sym_rings()
    c = Point(0.0, 0.0)
    # each ring clipped to its own side of the anchor line
    with pytest.raises(DomainError, match="share one clip"):
        circle_meets_region_analytic(c, 5.0, r1, _sym_rings(clip=LOWER)[1])
    # a shared clip whose line misses the ring centers
    with pytest.raises(DomainError, match="pass through both ring centers"):
        circle_meets_region_analytic(c, 5.0, *_sym_rings(clip=OPEN))
    # the anchor line through two other points, clipped to its lower side
    below = HalfSpace(Point(-40.0, 0.0), Point(-30.0, 0.0), side=-1)
    assert circle_meets_region_analytic(c, 5.0, *_sym_rings(clip=below))
    assert not circle_meets_region_analytic(Point(0.0, 10.0), 5.0, *_sym_rings(clip=below))


def test_analytic_matches_stable_discretized_answers():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(150):
        a = rng.uniform(1.0, 5.0)
        clip_side = 1 if rng.random() < 0.5 else -1
        clip = HalfSpace(Point(-1.0, 0.0), Point(1.0, 0.0), side=clip_side)
        r1 = Ring(
            Point(-a, 0.0),
            rng.uniform(0.5 * a, 3.0 * a),
            rng.uniform(0.01, 0.5),
            clip,
        )
        r2 = Ring(
            Point(a, 0.0),
            rng.uniform(0.5 * a, 3.0 * a),
            rng.uniform(0.01, 0.5),
            clip,
        )
        circ = (
            Point(rng.uniform(-a, a), rng.uniform(-a, a)),
            rng.uniform(0.1, 3.0 * a),
        )
        coarse = circle_meets_region_discretized(*circ, r1, r2, 4096)
        analytic = circle_meets_region_analytic(*circ, r1, r2)
        if analytic == coarse:
            checked += 1
            continue
        # a disagreement must be a resolution artifact: the refined grid
        # has to side with the analytic answer
        fine = circle_meets_region_discretized(*circ, r1, r2, 64 * 4096)
        assert fine == analytic
    assert checked > 100


def _numpy_walk(cx, cy, r0, rings, clips, cos, sin):
    """``_walk``'s oracle: every constraint on every point of the piece, in numpy."""
    x = cx + r0 * cos
    y = cy + r0 * sin
    ok = np.ones(x.shape, dtype=bool)
    for qx, qy, lo_sq, hi_sq in rings:
        dsq = (x - qx) ** 2 + (y - qy) ** 2
        ok &= (dsq >= lo_sq) & (dsq <= hi_sq)
    for clip in clips:
        ok &= clip.signed(x, y) >= 0.0
    return bool(ok.any())


def _unpruned_discretized(center, radius, r1, r2, m_points):
    """The walk before caching and pruning: every constraint on every point."""
    rings = tuple((r.center.x, r.center.y, r.r_inner**2, r.r_outer**2) for r in (r1, r2))
    for start in range(0, m_points, 1 << 15):
        ang = (2.0 * math.pi / m_points) * np.arange(start, min(start + (1 << 15), m_points))
        cos, sin = np.cos(ang), np.sin(ang)
        if _numpy_walk(center.x, center.y, radius, rings, (r1.clip, r2.clip), cos, sin):
            return True
    return False


def test_discretized_walk_matches_unpruned_reference():
    rng = np.random.default_rng(20260809)
    m_grid = (3, 7, 4096, 32767, 32768, 32769, 200_000, 3 * 32768 + 11)
    verdicts = {True: 0, False: 0}
    for _ in range(120):
        query = random_region_trial(rng)
        for m_points in m_grid:
            expected = _unpruned_discretized(*query, m_points)
            assert circle_meets_region_discretized(*query, m_points) == expected, (
                query,
                m_points,
            )
            verdicts[expected] += 1
    # agreement on all-False verdicts would prove little
    assert verdicts[True] > 50 and verdicts[False] > 50


def _shifted(query, ox, oy):
    """The query moved by (ox, oy): circle center, ring centers and clip anchors."""
    center, radius, *rings = query

    def move(p):
        return Point(p.x + ox, p.y + oy)

    def move_ring(ring):
        clip = HalfSpace(move(ring.clip.a), move(ring.clip.b), ring.clip.side)
        return Ring(move(ring.center), ring.radius, ring.half_width, clip)

    return (move(center), radius, *map(move_ring, rings))


@st.composite
def _skip_stress_queries(draw):
    """Detector-shaped queries bent toward the cases the chunk skip must get right.

    Coordinates offset by up to 1e10, a second clip on the other side of
    the anchor line or through ring 2's center at any angle, zero radii,
    circles centered on a ring's center, and radii tangent to a ring edge,
    exactly or moved one ulp either way.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    center, radius, r1, r2 = random_region_trial(rng)
    clip_mode = draw(st.sampled_from(["shared", "opposite", "tilted"]))
    if clip_mode == "opposite":
        clip = replace(r1.clip, side=-r1.clip.side)
        r2 = replace(r2, clip=clip)
    elif clip_mode == "tilted":
        ang = draw(st.floats(0.0, 2.0 * math.pi))
        far = Point(r2.center.x + math.cos(ang), r2.center.y + math.sin(ang))
        r2 = replace(r2, clip=HalfSpace(r2.center, far, draw(st.sampled_from([-1, 1]))))
    radius_mode = draw(st.sampled_from(["trial", "zero", "ring center", "tangent"]))
    ring = draw(st.sampled_from([r1, r2]))
    if radius_mode == "zero":
        radius = 0.0
    elif radius_mode == "ring center":
        center = ring.center
    elif radius_mode == "tangent":
        edge = draw(st.sampled_from([ring.r_inner, ring.r_outer]))
        d = math.hypot(center.x - ring.center.x, center.y - ring.center.y)
        radius = draw(st.sampled_from([edge + d, abs(edge - d)]))
        for _ in range(draw(st.integers(0, 1))):
            radius = math.nextafter(radius, draw(st.sampled_from([0.0, math.inf])))
    exponent = draw(st.sampled_from([None, 4, 6, 8, 10]))
    if exponent is not None:
        sx, sy = draw(st.sampled_from([-1.0, 1.0])), draw(st.sampled_from([-1.0, 1.0]))
        return _shifted((center, radius, r1, r2), sx * 10.0**exponent, sy * 10.0**exponent)
    return center, radius, r1, r2


@settings(max_examples=300, deadline=None)
@given(
    query=_skip_stress_queries(),
    m_points=st.sampled_from(
        [3, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
         _CHUNK + _BLOCK + 1, 200_000]
    ),
)
def test_chunk_skip_matches_unpruned_walk_on_stress_queries(query, m_points):
    expected = _unpruned_discretized(*query, m_points)
    assert circle_meets_region_discretized(*query, m_points) == expected


def _tangent_at_first_point(kind, ox, oy):
    """The center (ox, oy) of a unit circle, and two rings: the circle's
    point 0, (ox + 1, oy), passes one constraint with no slack at all, while
    in exact arithmetic every other point of the circle fails it.

    "outer": the point is on ring A's outer edge, the circle outside it;
    "inner": on ring A's inner edge, the circle inside it;
    "clip": on the clip line, the circle on its outer side.
    """
    open_clip = HalfSpace(Point(ox - 1.0, oy - 100.0), Point(ox + 1.0, oy - 100.0), 1)
    if kind == "outer":
        a = Ring(Point(ox + 3.0, oy), 1.5, 0.5, open_clip)
        b = Ring(Point(ox - 3.0, oy), 4.0, 1.0, open_clip)
    elif kind == "inner":
        a = Ring(Point(ox - 3.0, oy), 5.0, 1.0, open_clip)
        b = Ring(Point(ox + 3.0, oy), 2.0, 0.5, open_clip)
    else:
        clip = HalfSpace(Point(ox + 1.0, oy - 5.0), Point(ox + 1.0, oy + 5.0), -1)
        a = Ring(Point(ox + 3.0, oy), 2.0, 0.5, clip)
        b = Ring(Point(ox - 3.0, oy), 4.0, 0.5, open_clip)
    return Point(ox, oy), a, b


@pytest.mark.parametrize("kind", ["outer", "inner", "clip"])
@pytest.mark.parametrize("offset", [0.0, 1e4, 1e6, 1e8, 1e10])
def test_chunk_skip_keeps_a_point_exactly_on_the_edge(kind, offset):
    center, a, b = _tangent_at_first_point(kind, offset, -offset)
    m_grid = (3, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1, 200_000, 64 * 200_000)
    for m_points in m_grid:
        # point 0 sits exactly on the edge, and closed inequalities keep it
        assert circle_meets_region_discretized(center, 1.0, a, b, m_points), m_points
        assert _unpruned_discretized(center, 1.0, a, b, m_points)
    for m_points in m_grid[:-1]:
        for toward in (0.0, math.inf):
            nudged = math.nextafter(1.0, toward)
            expected = _unpruned_discretized(center, nudged, a, b, m_points)
            assert circle_meets_region_discretized(center, nudged, a, b, m_points) == expected


@pytest.mark.parametrize("kind", ["outer", "inner", "clip"])
@pytest.mark.parametrize("offset", [1e4, 1e6, 1e8, 1e10])
def test_chunk_skip_keeps_a_point_that_rounding_puts_on_the_edge(kind, offset):
    # three tenths of an ulp of the coordinates short of tangency: the exact
    # circle misses by about that much, but ox + radius rounds to ox + 1, so
    # the walk's point 0 lands exactly on the edge and passes
    center, a, b = _tangent_at_first_point(kind, offset, -offset)
    radius = 1.0 - 0.3 * math.ulp(offset)
    assert center.x + radius == offset + 1.0
    for m_points in (3, _CHUNK + 1, 200_000):
        assert _unpruned_discretized(center, radius, a, b, m_points)
        assert circle_meets_region_discretized(center, radius, a, b, m_points), m_points


def _ring_member(p, r1, r2):
    """Whether p lies in both clipped rings (closed inequalities)."""
    for ring in (r1, r2):
        if not ring.clip.contains(p):
            return False
        d = math.hypot(p.x - ring.center.x, p.y - ring.center.y)
        if not (-ring.half_width <= d - ring.radius <= ring.half_width):
            return False
    return True


@pytest.mark.parametrize(
    "m_points",
    [3, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, _CHUNK + 1, _CHUNK + _BLOCK + 1, 3 * _CHUNK + 11],
)
def test_discretized_walk_tests_first_last_and_chunk_edge_points(m_points):
    origin = Point(0.0, 0.0)
    step = 2.0 * math.pi / m_points
    inner = (
        _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK, _CHUNK - _BLOCK - 1, _CHUNK - _BLOCK,
        _CHUNK - 1, _CHUNK, _CHUNK + _BLOCK - 1, _CHUNK + _BLOCK,
    )
    edges = {0, m_points - 1} | {e for e in inner if e < m_points}
    for m in edges:
        a = step * m
        p = Point(math.cos(a), math.sin(a))
        # two rings tangent to each other at p, across the circle's tangent:
        # their common area is narrower along the circle than the point spacing
        t = (-math.sin(a), math.cos(a))
        r1 = Ring(Point(p.x + 10.0 * t[0], p.y + 10.0 * t[1]), 10.0, 0.1 * step, OPEN)
        r2 = Ring(Point(p.x - 10.0 * t[0], p.y - 10.0 * t[1]), 10.0, 0.1 * step, OPEN)
        for n in (m - 1, m + 1):
            assert not _ring_member(Point(math.cos(step * n), math.sin(step * n)), r1, r2)
        assert circle_meets_region_discretized(origin, 1.0, r1, r2, m_points), m


def _arc_ring(phi, t_lo, t_hi, clip, d=3.0):
    """A ring that a unit circle around the origin enters exactly where the
    angle from phi lies in [t_lo, t_hi] in absolute value; t_lo = 0 gives a
    disc, entered on one arc."""
    center = Point(d * math.cos(phi), d * math.sin(phi))

    def dist(t):
        return math.sqrt(d * d + 1.0 - 2.0 * d * math.cos(t))

    lo, hi = (0.0 if t_lo == 0.0 else dist(t_lo)), dist(t_hi)
    return Ring(center, 0.5 * (lo + hi), 0.5 * (hi - lo), clip)


def _chord_clip(t1, t2):
    """The half-plane holding the origin, whose line meets the unit circle at
    angles t1 and t2: the circle leaves it exactly on the arc between them."""
    a, b = Point(math.cos(t1), math.sin(t1)), Point(math.cos(t2), math.sin(t2))
    side = 1 if HalfSpace(a, b, 1).signed(0.0, 0.0) > 0.0 else -1
    return HalfSpace(a, b, side)


def test_run_walk_goes_past_live_runs_with_no_point_in_the_region(monkeypatch):
    # At M = 2e5, in units w of 1024 points along the unit circle: ring 1
    # is entered on [w, g] and [7w, g + 6w], ring 2 (a disc) on
    # [g + step / 2, 12 w], g a quarter step past point 3 * 1024.  The
    # runs cut around g, where ring 1 ends and ring 2 begins, are live but
    # hold no point of both; the walk goes on, in order, to the run cut
    # around 7 w and finds the region there, reading no point in between.
    m_points = 200_000
    step = 2.0 * math.pi / m_points
    w = _BLOCK * step
    g = (3 * _BLOCK + 0.25) * step
    r1 = _arc_ring((g + 7.0 * w) / 2.0, (7.0 * w - g) / 2.0, (g + 5.0 * w) / 2.0, OPEN)
    r2 = _arc_ring((g + 0.5 * step + 12.0 * w) / 2.0, 0.0, (12.0 * w - g - 0.5 * step) / 2.0, OPEN)
    origin = Point(0.0, 0.0)
    members = [
        m
        for m in range(0, 16 * _BLOCK)
        if _ring_member(Point(math.cos(m * step), math.sin(m * step)), r1, r2)
    ]
    assert members and min(members) == 7 * _BLOCK
    table = np.cos(step * np.arange(m_points))
    walks = []  # (first point, points, verdict) of each walk
    walk = geometry._walk

    def spy(cx, cy, r0, rings, clips, cos, sin):
        first = int(np.flatnonzero(table == cos[0])[0])
        walks.append((first, cos.size, walk(cx, cy, r0, rings, clips, cos, sin)))
        return walks[-1][-1]

    monkeypatch.setattr(geometry, "_walk", spy)
    assert _unpruned_discretized(origin, 1.0, r1, r2, m_points)
    assert circle_meets_region_discretized(origin, 1.0, r1, r2, m_points)
    firsts = [first for first, _, _ in walks]
    assert firsts == sorted(firsts) and len(walks) >= 2
    assert [hit for *_, hit in walks] == [False] * (len(walks) - 1) + [True]
    assert all(abs(first - 3 * _BLOCK) <= 2 * _PAD for first, _, _ in walks[:-1])
    assert abs(walks[-1][0] - 7 * _BLOCK) <= 2 * _PAD
    assert sum(size for _, size, _ in walks) <= 8 * _PAD  # each walk is one crossing's run


def _piece_indices(cos, sin, m_points):
    """The indices m of a walked piece's points, read back from their angles."""
    step = 2.0 * math.pi / m_points
    theta = np.arctan2(sin, cos) % (2.0 * math.pi)
    return np.rint(theta / step).astype(np.int64)


class _WalkSpy:
    """Records each piece ``_walk`` tests while installed on ``geometry``:
    (its point indices at ``m_points``, its cos, its sin, its verdict)."""

    def __init__(self, mp, m_points):
        self.m_points, self.pieces = m_points, []
        walk = geometry._walk

        def spy(cx, cy, r0, rings, clips, cos, sin):
            hit = walk(cx, cy, r0, rings, clips, cos, sin)
            self.pieces.append((_piece_indices(cos, sin, self.m_points), cos, sin, hit))
            return hit

        mp.setattr(geometry, "_walk", spy)

    def check_pieces(self):
        """Each piece holds 1 to _CHUNK consecutive points of [0, M)."""
        for idx, *_ in self.pieces:
            assert 1 <= idx.size <= _CHUNK
            assert 0 <= idx[0] and idx[-1] < self.m_points
            assert (np.diff(idx) == 1).all()


@pytest.mark.parametrize("m_points", [200_000, 64 * 200_000])
def test_a_live_whole_circle_is_walked_once_in_pieces(m_points, monkeypatch):
    r1, r2 = _sym_rings()
    spy = _WalkSpy(monkeypatch, m_points)
    # a circle far from both rings fails ring 1 on the whole circle: no walk
    assert not circle_meets_region_discretized(Point(0.0, 1000.0), 1.0, r1, r2, m_points)
    assert spy.pieces == []
    # a point circle a hair (2e-11 relative, squared) outside ring 1's outer
    # edge and inside ring 2: within the skip's rounding margin, and with no
    # crossing, so the whole circle is one live run, walked to the end, and
    # every point fails ring 1
    a, b = r1.r_outer * (1.0 + 1e-11), r2.radius
    x = (a * a - b * b) / 40.0
    edge = Point(x, math.sqrt(a * a - (x + 10.0) ** 2))
    assert not _unpruned_discretized(edge, 0.0, r1, r2, m_points)
    assert not circle_meets_region_discretized(edge, 0.0, r1, r2, m_points)
    spy.check_pieces()
    starts = list(range(0, m_points, _CHUNK))
    assert [idx[0] for idx, *_ in spy.pieces] == starts
    assert [idx.size for idx, *_ in spy.pieces] == [min(_CHUNK, m_points - m) for m in starts]
    assert not any(hit for *_, hit in spy.pieces)


@functools.lru_cache(maxsize=8)
def _whole_circle(m_points):
    """cos and sin of 2 pi m / M for all m in [0, M), in one call each."""
    ang = (2.0 * math.pi / m_points) * np.arange(m_points)
    return np.cos(ang).view(np.uint64), np.sin(ang).view(np.uint64)


def _assert_pieces_match_the_whole_circle(spy):
    spy.check_pieces()
    cos_table, sin_table = _whole_circle(spy.m_points)
    for idx, cos, sin, _ in spy.pieces:
        assert (cos.view(np.uint64) == cos_table[idx]).all()
        assert (sin.view(np.uint64) == sin_table[idx]).all()


@settings(max_examples=200, deadline=None)
@given(
    query=_skip_stress_queries(),
    m_points=st.sampled_from([3, 7, _BLOCK + 1, _CHUNK + 1, 2 * _CHUNK + 1, 200_000]),
)
def test_walked_points_are_the_whole_circle_tables_bit_for_bit(query, m_points):
    # each piece takes cos and sin of its own angles; numpy gives the same
    # bits at any offset into an array, so it reads what a walk over the
    # whole circle reads
    with pytest.MonkeyPatch.context() as mp:
        spy = _WalkSpy(mp, m_points)
        circle_meets_region_discretized(*query, m_points)
    _assert_pieces_match_the_whole_circle(spy)


def test_a_whole_circle_rejection_computes_no_phase(monkeypatch):
    def no_phase(y, x):
        raise AssertionError("phase computed")

    monkeypatch.setattr(math, "atan2", no_phase)
    r1, r2 = _sym_rings()
    # ruled out by ring 1, far off, and by ring 2 alone: the circle crosses
    # ring 1 on its far side, 31 units from ring 2's center
    assert not circle_meets_region_discretized(Point(0.0, 1000.0), 1.0, r1, r2, 200_000)
    on_ring1 = Point(r1.center.x - r1.radius, 0.0)
    assert not circle_meets_region_discretized(on_ring1, 0.1, r1, r2, 200_000)
    with pytest.raises(AssertionError, match="phase computed"):
        circle_meets_region_discretized(Point(0.0, 0.0), 5.0, r1, r2, 200_000)


@pytest.fixture(scope="module")
def paper_queries():
    """(center, radius, ring 1, ring 2) as ``detect_all`` asks them of the
    discretized walk: every unsecure sensor of two seeded 1/25-scale
    ``build_paper_setup`` records at K = 2e4, at three deltas."""
    s, assignment = build_paper_setup(scale=0.04)
    queries = []

    def record(center, radius, r1, r2, m_points):
        queries.append((center, radius, r1, r2))
        return True

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detector, "circle_meets_region_discretized", record)
        for trial in (0, 1):
            data = generate_dataset(s, assignment, 20_000, 20261020, trial)
            for delta in (260.0, 280.0, 300.0):
                detect_all(s, DetectorConfig(delta=delta, method="discretized"), data)
    return queries


def test_run_walk_matches_unpruned_walk_on_the_paper_network(paper_queries):
    verdicts = Counter()
    for center, d_hat, r1, r2 in paper_queries:
        for radius in (0.999 * d_hat, d_hat, 1.001 * d_hat):
            expected = _unpruned_discretized(center, radius, r1, r2, 200_000)
            assert circle_meets_region_discretized(center, radius, r1, r2, 200_000) == expected
            verdicts[expected] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50


def test_paper_network_walks_read_the_whole_circle_tables_bit_for_bit(
    paper_queries, monkeypatch
):
    spy = _WalkSpy(monkeypatch, 200_000)
    for center, d_hat, r1, r2 in paper_queries:
        for radius in (0.999 * d_hat, d_hat, 1.001 * d_hat):
            circle_meets_region_discretized(center, radius, r1, r2, 200_000)
    assert len(spy.pieces) > 100
    _assert_pieces_match_the_whole_circle(spy)


def test_no_run_after_the_hit_is_bounded(paper_queries, monkeypatch):
    # the bound takes math.cos of every run it checks; the walk returns on
    # its first hit, so no cos is taken after the walk that finds it
    events = []
    cos, walk = math.cos, geometry._walk

    def spy_cos(x):
        events.append("cos")
        return cos(x)

    def spy_walk(*args):
        hit = walk(*args)
        events.append("hit" if hit else "walk")
        return hit

    monkeypatch.setattr(math, "cos", spy_cos)
    monkeypatch.setattr(geometry, "_walk", spy_walk)
    skipped = 0
    for center, radius, r1, r2 in paper_queries:
        events.clear()
        if not circle_meets_region_discretized(center, radius, r1, r2, 200_000):
            continue
        assert events[-1] == "hit" and events.count("hit") == 1
        lazy = events.count("cos")
        assert lazy > 0
        events.clear()
        rings = tuple((r.center.x, r.center.y, r.r_inner**2, r.r_outer**2) for r in (r1, r2))
        assert list(geometry._live_runs(center.x, center.y, radius, rings, (r1.clip,), 200_000))
        skipped += events.count("cos") > lazy  # bounding every run takes more
    assert skipped > 10


def test_criterion_09_walks_give_the_pinned_verdicts():
    # criterion 09's 10,000 queries at M = 2e5, 62 of them walked on more
    # than 100 points; written by tests/data/make_goldens.py
    golden = Path(__file__).parent / "data" / "criterion09_discretized_M200000.txt"
    rng = np.random.default_rng(20260809)
    verdicts = "".join(
        "1" if circle_meets_region_discretized(*random_region_trial(rng), 200_000) else "0"
        for _ in range(10_000)
    )
    assert verdicts.encode() == golden.read_bytes()


def _walk_args(query):
    """``_walk``'s arguments before the angles, as the region test builds them."""
    center, radius, r1, r2 = query
    rings = tuple((r.center.x, r.center.y, r.r_inner**2, r.r_outer**2) for r in (r1, r2))
    clips = (r1.clip,) if r2.clip == r1.clip else (r1.clip, r2.clip)
    return center.x, center.y, radius, rings, clips


def _walk_and_oracle(args, cos, sin):
    """The verdicts on one piece of ``_walk``, in Python floats, and of its
    numpy oracle."""
    return [geometry._walk(*args, cos, sin), _numpy_walk(*args, cos, sin)]


def _each_point_through_walk_and_oracle(query, m_points):
    args = _walk_args(query)
    ang = (2.0 * math.pi / m_points) * np.arange(m_points)
    cos, sin = np.cos(ang), np.sin(ang)
    hits = 0
    for m in range(m_points):
        floats, numpy = _walk_and_oracle(args, cos[m : m + 1], sin[m : m + 1])
        assert floats == numpy, (query, m_points, m)
        hits += floats
    return hits


@settings(max_examples=100, deadline=None)
@given(query=_skip_stress_queries(), m_points=st.sampled_from([3, 7, 64, 257, _BLOCK + 1]))
def test_each_point_gets_one_verdict_in_floats_and_in_numpy_on_stress_queries(query, m_points):
    _each_point_through_walk_and_oracle(query, m_points)


def test_each_point_gets_one_verdict_in_floats_and_in_numpy_on_the_paper_network(
    paper_queries,
):
    hits = sum(_each_point_through_walk_and_oracle(q, 300) for q in paper_queries)
    assert hits > 100


def _whole_pieces(paper_queries, size, m_grid, starts):
    """Verdicts of pieces of ``size`` points, each checked against the oracle:
    ``starts`` pieces per query and M, starting across the first live run,
    else at angle 0."""
    rng = np.random.default_rng(20261020)
    queries = [random_region_trial(rng) for _ in range(100)]
    queries += [(c, f * r, r1, r2) for c, r, r1, r2 in paper_queries for f in (0.999, 1.0, 1.001)]
    verdicts = Counter()
    for query in queries:
        args = _walk_args(query)
        for m_points in m_grid:
            step = 2.0 * math.pi / m_points
            first = next(geometry._live_runs(*args, m_points), (0, 0))[0]
            for start in range(first, first + starts):
                ang = step * np.arange(start, start + size)
                floats, numpy = _walk_and_oracle(args, np.cos(ang), np.sin(ang))
                assert floats == numpy, (query, m_points, start)
                verdicts[floats] += 1
    return verdicts


@pytest.mark.parametrize("size", [1, 2, 4, 32, 33])
def test_whole_pieces_get_one_verdict_in_floats_and_in_numpy(size, paper_queries):
    verdicts = _whole_pieces(paper_queries, size, (7, 1000, 200_000), 2 * _PAD + 1)
    assert verdicts[True] > 50 and verdicts[False] > 50


def test_a_full_piece_gets_one_verdict_in_floats_and_in_numpy(paper_queries):
    # a miss walks all _CHUNK points in Python, so one piece per query
    verdicts = _whole_pieces(paper_queries, _CHUNK, (200_000,), 1)
    assert verdicts[True] > 50 and verdicts[False] > 50


def _tie_rings(edge, past):
    """Ring tuples for two rings around (0, 0) and (8, 16) through the point
    (3, 4), at squared distances 25 and 169; ``edge`` ("inner0", "outer0",
    "inner1" or "outer1") puts the point exactly on that edge, or one ulp
    outside it when ``past``."""
    rings = [[0.0, 0.0, 9.0, 36.0], [8.0, 16.0, 144.0, 196.0]]
    k, lo = int(edge[-1]), edge.startswith("inner")
    dsq = (25.0, 169.0)[k]
    limit = math.nextafter(dsq, math.inf if lo else 0.0) if past else dsq
    rings[k][2 if lo else 3] = limit
    return tuple(map(tuple, rings))


@pytest.mark.parametrize("edge", ["inner0", "outer0", "inner1", "outer1", "clip"])
@pytest.mark.parametrize("past", [False, True], ids=["on", "past"])
@pytest.mark.parametrize("size", [1, 3])
def test_a_point_on_an_edge_is_in_and_one_ulp_past_it_is_out(edge, past, size):
    # c + r0 (cos, sin) = (2, 4) + (1, 0) = (3, 4) exactly; with size 3 the
    # point comes last, after two points that fail both rings
    cos, sin = np.array([-9.0, 30.0, 1.0][-size:]), np.array([0.0, 0.0, 0.0][-size:])
    if edge == "clip":
        rings = _tie_rings("inner0", past=False)
        y = math.nextafter(4.0, math.inf) if past else 4.0
        clips = (HalfSpace(Point(0.0, y), Point(1.0, y), 1), UPPER)
    else:
        rings, clips = _tie_rings(edge, past), (UPPER,)
    args = (2.0, 4.0, 1.0, rings, clips)
    assert _walk_and_oracle(args, cos, sin) == [not past, not past]


_CUT_M_GRID = (3, 7, _BLOCK + 1, 2 * _CHUNK + 1, 200_000)


@pytest.mark.parametrize("shift", [-500, -37, 37, 500])
def test_misplaced_cuts_change_no_verdict(shift, monkeypatch):
    # acos only proposes where to cut: moved by many points, the cuts leave
    # other runs live or skipped, and the exact range bound still decides
    calls = []
    acos = math.acos

    def moved(c):
        calls.append(c)
        return acos(c) + shift * step

    monkeypatch.setattr(math, "acos", moved)
    rng = np.random.default_rng(20261019)
    verdicts = Counter()
    for m_points in _CUT_M_GRID:
        step = 2.0 * math.pi / m_points
        for _ in range(40):
            query = random_region_trial(rng)
            expected = _unpruned_discretized(*query, m_points)
            assert circle_meets_region_discretized(*query, m_points) == expected, query
            verdicts[expected] += 1
    assert calls and verdicts[True] > 10 and verdicts[False] > 10


@pytest.mark.parametrize("m_points", [_BLOCK + 1, 2 * _CHUNK + 1, 200_000])
@pytest.mark.parametrize("at", [-3, -1, 0, 1, 2])
def test_crossings_that_straddle_angle_zero(m_points, at, monkeypatch):
    # two discs on the unit circle's points at - 2 ... at + 3 (mod M): their
    # crossings sit on either side of angle 0, so the cuts wrap around it,
    # and every walk still reads points of [0, M)
    step = 2.0 * math.pi / m_points
    origin = Point(0.0, 0.0)
    spy = _WalkSpy(monkeypatch, m_points)
    a = _arc_ring((at + 0.5) * step, 0.0, 1.2 * step, OPEN)  # points at, at + 1
    for phi, half, meets in ((at + 1.4, 2.3, True), (at - 1.6, 1.5, False), (at + 3.6, 1.5, False)):
        b = _arc_ring(phi * step, 0.0, half * step, OPEN)
        assert _unpruned_discretized(origin, 1.0, a, b, m_points) == meets
        assert circle_meets_region_discretized(origin, 1.0, a, b, m_points) == meets
    assert spy.pieces
    spy.check_pieces()


@pytest.mark.parametrize("m_points", _CUT_M_GRID)
def test_constraints_with_no_amplitude(m_points):
    # amp == 0: a point circle, and a circle around a ring's center, whose
    # distance to that center is one number on the whole circle
    r1, r2 = _sym_rings()
    inside, outside = Point(0.0, 5.0), Point(0.0, 3.0)
    queries = [(inside, 0.0), (outside, 0.0), (Point(0.0, 5.0 + 1e-13), 0.0)]
    queries += [(r1.center, radius) for radius in (r1.radius, r1.r_outer, r1.r_inner, 1.0, 12.0)]
    for center, radius in queries:
        expected = _unpruned_discretized(center, radius, r1, r2, m_points)
        assert circle_meets_region_discretized(center, radius, r1, r2, m_points) == expected
    assert circle_meets_region_discretized(inside, 0.0, r1, r2, m_points)
    assert not circle_meets_region_discretized(outside, 0.0, r1, r2, m_points)
    if m_points > _BLOCK:  # fine enough for the circle through R to land in it
        assert circle_meets_region_discretized(r1.center, r1.radius, r1, r2, m_points)


def test_containment_oracle_two_sided():
    bounds = DistanceBounds(99.0, 147.0, 200.0)
    target = Point(0.0, 100.0)
    d1 = math.hypot(100.0, 100.0)
    delta = 10.0
    r1 = Ring(Point(-100.0, 0.0), d1 + 3.0, delta, UPPER)
    r2 = Ring(Point(100.0, 0.0), d1 - 4.0, delta, UPPER)
    report = containment_oracle(bounds, 20.0, delta, r1, r2, target, samples=5000)
    assert report.assumptions_ok
    assert report.upper_ok and report.lower_ok
    assert 0.0 < report.max_intersection_distance <= report.phi_delta
    assert report.sample_count > 4000
    assert "holds" in report.note


def test_containment_oracle_flags_bad_separation():
    bounds = DistanceBounds(1.0, 150.0, 100.0)
    target = Point(0.0, 100.0)
    d1 = math.hypot(100.0, 100.0)
    r1 = Ring(Point(-100.0, 0.0), d1, 5.0, UPPER)
    r2 = Ring(Point(100.0, 0.0), d1, 5.0, UPPER)
    report = containment_oracle(bounds, 20.0, 5.0, r1, r2, target, samples=500)
    assert not report.assumptions_ok
    assert "not guaranteed" in report.note


def _resolve_split_verdict(center, radius, ring1, ring2, m_points):
    """Criterion 09's account of a query: where the two tests agree or why not.

    "agree" at M points; else "refined" when the 64 M walk sides with the
    analytic test; else "nudged" when a one-part-in-1e9 radius nudge flips
    the analytic verdict, marking a boundary tie; else "unresolved".
    """
    analytic = circle_meets_region_analytic(center, radius, ring1, ring2)
    if circle_meets_region_discretized(center, radius, ring1, ring2, m_points) == analytic:
        return "agree"
    if circle_meets_region_discretized(center, radius, ring1, ring2, 64 * m_points) == analytic:
        return "refined"
    nudged = {
        circle_meets_region_analytic(
            center, radius * (1.0 + sign * 1e-9), ring1, ring2
        )
        for sign in (-1.0, 1.0)
    }
    return "nudged" if nudged != {analytic} else "unresolved"


def test_split_verdicts_resolve_by_refining_or_by_a_nudge():
    # criterion 09's queries on a coarse walk: the splits are resolution
    # artifacts, and the 64 M walk sides with the analytic test
    rng = np.random.default_rng(20260809)
    outcomes = Counter(
        _resolve_split_verdict(*random_region_trial(rng), 64) for _ in range(2000)
    )
    assert outcomes["refined"] > 20
    assert set(outcomes) == {"agree", "refined"}
    # a circle through R's outer-outer corner, its farthest point from the
    # sensor: no walk lands on a single point, but it is a boundary tie
    r1, r2 = _sym_rings()
    corner = Point(0.0, math.sqrt(r1.r_outer**2 - 100.0))
    radius = math.hypot(corner.x - 3.0, corner.y)
    assert _resolve_split_verdict(Point(3.0, 0.0), radius, r1, r2, 4096) == "nudged"


# -- the on-line shortcut of the analytic test ------------------------------


def _analytic_without_line_shortcut(center, r, r1, r2):
    """The analytic test before its on-line shortcut, kept as an oracle."""
    f = _AnchorFrame(r1, r2)
    if not f.corners:
        return False
    px, py = center.x - f.ox, center.y - f.oy
    cu = px * f.eux + py * f.euy
    cv = px * f.evx + py * f.evy
    tol = _SLACK * (f.scale + r)
    corner_dists = [math.hypot(u - cu, v - cv) for u, v in f.corners]
    if r < min(corner_dists) - tol:
        if f.contains(cu, cv):
            return True
        near = [(cu, 0.0), *f.ray_points(cu, cv, 1.0)]
        return any(
            math.hypot(u - cu, v - cv) <= r + tol for u, v in near if f.contains(u, v)
        )
    if r > max(corner_dists) + tol:
        return any(
            math.hypot(u - cu, v - cv) >= r - tol
            for u, v in f.ray_points(cu, cv, -1.0)
            if f.contains(u, v)
        )
    return True


# R meets the clip line on [8, 10]: ring 1 covers |u| in [8, 12] there and
# ring 2 covers |u - 18| in [8, 12].
_LINE_RINGS = (
    Ring(Point(0.0, 0.0), 10.0, 2.0, UPPER),
    Ring(Point(18.0, 0.0), 10.0, 2.0, UPPER),
)
# R far from the line (below it, on the clip side), the way the detector's
# anchor rings lie.
_HIGH_RINGS = (
    Ring(Point(-10.0, 0.0), 105.0, 2.0, LOWER),
    Ring(Point(10.0, 0.0), 104.0, 1.5, LOWER),
)
# ring 1 wide enough to degenerate to a disc (r_inner = 0)
_DISC_RINGS = (
    Ring(Point(0.0, 0.0), 3.0, 4.0, UPPER),
    Ring(Point(5.0, 0.0), 4.0, 1.0, UPPER),
)
_ON_LINE_US = (
    -150.0, -12.0, -10.0, -8.0, -2.0, 0.0, 5.0, 8.0, 8.5, 9.0, 9.75, 10.0, 12.0, 18.0, 30.0, 200.0
)


def _radii_around_corners(rings, u):
    """Radii at, just inside and just outside every corner distance and bracket edge."""
    f = _AnchorFrame(*rings)
    dists = sorted({math.hypot(cu - u, cv) for cu, cv in f.corners})
    radii = {0.0, 0.5 * dists[0], 2.0 * dists[-1] + 1.0}
    for d in dists:
        tol = _SLACK * (f.scale + d)
        for base in (d, d - tol, d + tol):
            x = base
            for _ in range(3):
                radii.update((x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)))
                x = math.nextafter(x, math.inf)
    radii.update((a + b) / 2.0 for a, b in zip(dists, dists[1:]))
    return sorted(r for r in radii if r >= 0.0)


@pytest.mark.parametrize("rings", [_LINE_RINGS, _HIGH_RINGS, _DISC_RINGS], ids=["line", "high", "disc"])
def test_line_shortcut_matches_the_oracle_on_line_centres(rings):
    for u in _ON_LINE_US:
        for r in _radii_around_corners(rings, u):
            c = Point(u, 0.0)
            assert circle_meets_region_analytic(c, r, *rings) == _analytic_without_line_shortcut(
                c, r, *rings
            ), (u, r)


def test_line_shortcut_hand_cases():
    # R's corners on the line are u = 8, 9 and 10, so a centre between them
    # lies in R with every corner farther than these radii: the shortcut
    # must come after the test of c itself
    for u in (8.25, 8.5, 9.5, 9.75):
        for r in (0.0, 0.1, 0.2):
            assert circle_meets_region_analytic(Point(u, 0.0), r, *_LINE_RINGS)
    # beside R on the line: small circles miss, circles reaching R meet it
    assert not circle_meets_region_analytic(Point(5.0, 0.0), 2.5, *_LINE_RINGS)
    assert circle_meets_region_analytic(Point(5.0, 0.0), 3.0, *_LINE_RINGS)
    # beyond R: a circle that swallows R whole misses it
    assert not circle_meets_region_analytic(Point(9.0, 0.0), 50.0, *_LINE_RINGS)
    # off the line the nearest point of R can be a ray point on an arc, not a
    # corner: (13, 7.5) is 3 from R's outer arc of ring 1 and 3.7 from the
    # nearest corner, so the shortcut must not apply there
    assert circle_meets_region_analytic(Point(13.0, 7.5), 3.3, *_LINE_RINGS)


@pytest.mark.parametrize(
    "u, ring2_radius, ring2_half_width, radius, corner",
    [
        # nearest corner (8, 0), 3 away: r < fl(3 - tol) passes the bracket,
        # but fl(r + tol) is 3 (two exact half-ulp ties)
        (5.0, "0x1.368bd98fbc1d4p+3", "0x1.b45ecc7de0ea0p+0", "0x1.7fffffffe795fp+1", 3.0),
        # farthest corner (12, 0), 112 away: r > fl(112 + tol), but fl(r - tol) is 112
        (-100.0, "0x1.44508b116742ep+3", "0x1.08a11622ce85cp+2", "0x1.c000000002af5p+6", 112.0),
    ],
    ids=["near", "far"],
)
def test_line_shortcut_defers_to_the_candidates_on_a_rounding_tie(
    u, ring2_radius, ring2_half_width, radius, corner
):
    # the corner is also a ray point, which the full test reads as within
    # the slack, so the shortcut must not decide these radii
    rings = (
        Ring(Point(0.0, 0.0), 10.0, 2.0, UPPER),
        Ring(Point(18.0, 0.0), float.fromhex(ring2_radius), float.fromhex(ring2_half_width), UPPER),
    )
    center, r = Point(u, 0.0), float.fromhex(radius)
    f = _AnchorFrame(*rings)
    tol = _SLACK * (f.scale + r)
    dists = [math.hypot(cu - center.x, cv) for cu, cv in f.corners]
    if corner == 3.0:
        assert min(dists) == corner and r < corner - tol
        assert r + tol == corner
    else:
        assert max(dists) == corner and r > corner + tol
        assert r - tol == corner
    assert _analytic_without_line_shortcut(center, r, *rings)
    assert circle_meets_region_analytic(center, r, *rings)


def test_on_line_centres_clear_of_the_corners_build_no_ray_points(monkeypatch):
    def forbidden(*args):
        raise AssertionError("ray points built for an on-line centre")

    for rings in (_LINE_RINGS, _HIGH_RINGS, _DISC_RINGS):
        f = _AnchorFrame(*rings)
        for u in _ON_LINE_US:
            dists = [math.hypot(cu - u, cv) for cu, cv in f.corners]
            expected = {
                r: _analytic_without_line_shortcut(Point(u, 0.0), r, *rings)
                for r in (0.5 * min(dists), 2.0 * max(dists) + 1.0)
            }
            with monkeypatch.context() as m:
                m.setattr(type(f), "ray_points", forbidden)
                for r, want in expected.items():
                    assert circle_meets_region_analytic(Point(u, 0.0), r, *rings) == want


@pytest.mark.parametrize("rings", [_LINE_RINGS, _HIGH_RINGS, _DISC_RINGS], ids=["line", "high", "disc"])
def test_off_line_centres_still_see_every_candidate(rings):
    rng = np.random.default_rng(29)
    f = _AnchorFrame(*rings)
    reach = max(abs(u) + abs(v) for u, v in f.corners) + 10.0
    for _ in range(3000):
        c = Point(*rng.uniform(-reach, reach, size=2))
        far = max(math.hypot(u - c.x, v - c.y) for u, v in f.corners)
        r = rng.uniform(0.0, 1.2 * far)
        assert circle_meets_region_analytic(c, r, *rings) == _analytic_without_line_shortcut(
            c, r, *rings
        ), (c, r)


def test_line_shortcut_matches_the_oracle_on_criterion_09_queries():
    rng = np.random.default_rng(20260809)
    for _ in range(10_000):
        query = random_region_trial(rng)
        assert circle_meets_region_analytic(*query) == _analytic_without_line_shortcut(*query)


@st.composite
def _on_line_queries(draw):
    """Detector-shaped rings on the x axis and a sensor circle centred on it."""
    span = draw(st.floats(1.0, 100.0))
    side = draw(st.sampled_from([-1, 1]))
    clip = HalfSpace(Point(-span / 2.0, 0.0), Point(span / 2.0, 0.0), side)
    rings = tuple(
        Ring(
            Point(x, 0.0),
            draw(st.floats(0.1, 3.0)) * span,
            draw(st.floats(0.0, 1.0)) * span,
            clip,
        )
        for x in (-span / 2.0, span / 2.0)
    )
    u = draw(st.floats(-3.0, 3.0)) * span
    f = _AnchorFrame(*rings)
    dists = [math.hypot(cu - u, cv) for cu, cv in f.corners] or [span]
    d = draw(st.sampled_from(dists))
    tol = _SLACK * (f.scale + d)
    r = d + draw(st.sampled_from([0.0, -tol, tol])) + draw(st.integers(-3, 3)) * math.ulp(d)
    r = max(0.0, r * draw(st.sampled_from([1.0, 1.0, 0.5, 1.5])))
    return Point(u, 0.0), r, *rings


@settings(max_examples=500, deadline=None)
@given(query=_on_line_queries())
def test_line_shortcut_matches_the_oracle_on_random_line_queries(query):
    assert circle_meets_region_analytic(*query) == _analytic_without_line_shortcut(*query)


# -- the one-pass corner bracket of the analytic test --------------------------


def _analytic_with_corner_list(center, r, r1, r2):
    """The analytic test as it was before its one-pass corner bracket: every
    corner distance in a list, then min and max of it.  Kept as an oracle."""
    f = _AnchorFrame(r1, r2)
    if not f.corners:
        return False
    px, py = center.x - f.ox, center.y - f.oy
    cu = px * f.eux + py * f.euy
    cv = px * f.evx + py * f.evy
    tol = _SLACK * (f.scale + r)
    corner_dists = [math.hypot(u - cu, v - cv) for u, v in f.corners]
    nearest = min(corner_dists)
    if r < nearest - tol:
        if f.contains(cu, cv):
            return True
        if cv == 0.0 and r + tol < nearest:
            return False
        near = [(cu, 0.0), *f.ray_points(cu, cv, 1.0)]
        return any(
            math.hypot(u - cu, v - cv) <= r + tol for u, v in near if f.contains(u, v)
        )
    farthest = max(corner_dists)
    if r > farthest + tol:
        if cv == 0.0 and farthest < r - tol:
            return False
        return any(
            math.hypot(u - cu, v - cv) >= r - tol
            for u, v in f.ray_points(cu, cv, -1.0)
            if f.contains(u, v)
        )
    return True


def test_one_pass_bracket_matches_the_corner_list_on_criterion_09_queries():
    rng = np.random.default_rng(20260809)
    for _ in range(10_000):
        query = random_region_trial(rng)
        assert circle_meets_region_analytic(*query) == _analytic_with_corner_list(*query)


def _ulps_around(x, n=2):
    """x and the n doubles on each side of it."""
    out = [x]
    lo = hi = x
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


@pytest.mark.parametrize("rings", [_LINE_RINGS, _HIGH_RINGS, _DISC_RINGS], ids=["line", "high", "disc"])
def test_one_pass_bracket_matches_the_corner_list_at_the_bracket_edges(rings):
    """Radii within 2 ulps of nearest - tol and farthest + tol, for centres on
    the clip line and off it, decide as the corner-list oracle does."""
    f = _AnchorFrame(*rings)
    rng = np.random.default_rng(31)
    reach = max(abs(u) + abs(v) for u, v in f.corners) + 10.0
    centres = [Point(u, 0.0) for u in _ON_LINE_US]
    centres += [Point(*rng.uniform(-reach, reach, size=2)) for _ in range(40)]
    tested = Counter()
    for c in centres:
        dists = [math.hypot(u - c.x, v - c.y) for u, v in f.corners]
        for edge, sign in ((min(dists), -1.0), (max(dists), 1.0)):
            tol = _SLACK * (f.scale + edge)
            for r in _ulps_around(edge + sign * tol):
                if r < 0.0:
                    continue
                assert circle_meets_region_analytic(c, r, *rings) == _analytic_with_corner_list(
                    c, r, *rings
                ), (c, r)
                tested[c.y == 0.0, sign] += 1
    assert len(tested) == 4  # both edges, on and off the line


# -- the last-frame fast path under threads ---------------------------------


def test_frame_fast_path_gives_fresh_frame_verdicts_across_threads(monkeypatch):
    """Threads alternating ring pairs, some equal but distinct, get the
    verdicts that a frame built afresh for every call gives."""
    a1, a2 = _sym_rings()
    b1, b2 = _HIGH_RINGS
    pairs = [(a1, a2), (b1, b2), (replace(a1), replace(a2)), (replace(b1), b2), (a1, replace(a2))]
    circles = [
        (Point(u, v), r)
        for u in (-30.0, -10.0, 0.0, 7.0, 25.0)
        for v in (0.0, 4.0, -60.0)
        for r in (1.0, 8.0, 12.0, 60.0, 100.0, 130.0)
    ]
    with monkeypatch.context() as m:
        expected = {}
        for p, pair in enumerate(pairs):
            for c, circle in enumerate(circles):
                m.setattr(geometry, "_last_frame", (None, None, None))
                expected[p, c] = circle_meets_region_analytic(*circle, *pair)
    # the two ring shapes decide some circles differently, so a frame
    # served for the wrong pair would show
    assert any(expected[0, c] != expected[1, c] for c in range(len(circles)))

    def verdicts(offset):
        out = []
        for step in range(100 * len(circles)):
            p, c = (step + offset) % len(pairs), step % len(circles)
            out.append(((p, c), circle_meets_region_analytic(*circles[c], *pairs[p])))
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(verdicts, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert [v for out in results for _, v in out] == [
        expected[key] for out in results for key, _ in out
    ]


# -- the two-circle crossing kernel -------------------------------------------


def _corners_before_the_kernel(f):
    """R's line points and ring-ring crossings, built as the frame built them
    before it shared the crossing kernel.  Kept as an oracle."""
    (_, in1, out1), (x2, in2, out2) = f.rings
    line = [(xc + rho, 0.0) for xc, lo, hi in f.rings for rho in (-hi, -lo, lo, hi)]
    crossings = []
    if x2 != 0.0:
        for rho1 in (in1, out1):
            for rho2 in (in2, out2):
                u = (rho1 * rho1 - rho2 * rho2 + x2 * x2) / (2.0 * x2)
                crossings.append((u, math.sqrt(max((rho1 - u) * (rho1 + u), 0.0))))
    return line, crossings


def _random_ring_pair(rng, kind):
    """Two rings whose shared clip line runs through both centres.

    kind 0 is a rotated pair of any radii, kind 1 the same with ring 1 a
    disc (zero inner radius), and kinds 2 and 3 axis-aligned pairs whose
    outer circles touch from outside and from inside, in exact arithmetic.
    Ring 2's centre lies on either side of ring 1's along the clip line.
    """
    side = int(rng.choice([-1, 1]))
    if kind < 2:
        ang = rng.uniform(0.0, 2.0 * math.pi)
        ca, sa = math.cos(ang), math.sin(ang)
        c1 = Point(*rng.uniform(-50.0, 50.0, size=2).tolist())
        x2 = rng.uniform(-40.0, 40.0)
        c2 = Point(c1.x + x2 * ca, c1.y + x2 * sa)
        clip = HalfSpace(c1, Point(c1.x + ca, c1.y + sa), side)
        radius1 = rng.uniform(0.5, 40.0)
        hw1 = radius1 * rng.uniform(1.0, 2.0) if kind else rng.uniform(0.0, 10.0)
        return (
            Ring(c1, radius1, hw1, clip),
            Ring(c2, rng.uniform(0.5, 40.0), rng.uniform(0.0, 10.0), clip),
        )
    x2 = float(rng.integers(2, 40)) * float(rng.choice([-1, 1]))
    clip = HalfSpace(Point(0.0, 0.0), Point(1.0, 0.0), side)
    hw1, hw2 = 0.25 * float(rng.integers(0, 8)), 0.25 * float(rng.integers(0, 8))
    out1 = float(rng.integers(1, abs(x2)))
    # outer circles externally tangent (out1 + out2 = |x2|) or internally
    # (out2 - out1 = |x2|)
    out2 = abs(x2) - out1 if kind == 2 else out1 + abs(x2)
    return (
        Ring(Point(0.0, 0.0), out1 + 1.0 - hw1, hw1, clip),
        Ring(Point(x2, 0.0), out2 + 1.0 - hw2, hw2, clip),
    )


def _hex_points(points):
    return [(u.hex(), v.hex()) for u, v in points]


def test_frame_corners_match_the_corner_loop_bit_for_bit():
    rng = np.random.default_rng(1904)
    pairs = [_random_ring_pair(rng, i % 4) for i in range(12_000)]
    rng = np.random.default_rng(20260809)
    pairs += [random_region_trial(rng)[2:] for _ in range(10_000)]
    seen = Counter()
    for r1, r2 in pairs:
        f = _AnchorFrame(r1, r2)
        line, crossings = _corners_before_the_kernel(f)
        expected = [p for p in line + crossings if f.contains(*p)]
        assert _hex_points(f.corners) == _hex_points(expected), (r1, r2)
        assert all(type(u) is float and type(v) is float for u, v in f.corners)
        seen["negative x2"] += f.rings[1][0] < 0.0
        seen["disc"] += r1.r_inner == 0.0
        seen["ring-ring corner"] += any(v > 0.0 and (u, v) in f.corners for u, v in crossings)
        seen["tangent corner"] += any(v == 0.0 and (u, v) in f.corners for u, v in crossings)
    assert min(seen.values()) > 1000, seen


@pytest.mark.parametrize("rings", [_HIGH_RINGS, _DISC_RINGS, _sym_rings()], ids=["high", "disc", "sym"])
def test_intersection_samples_lie_at_their_sampled_radii(rings, monkeypatch):
    r1, r2 = rings
    drawn = []

    def spy(rho1, rho2, d):
        drawn.append((rho1, rho2, d))
        return crossing(rho1, rho2, d)

    crossing = geometry._crossing
    monkeypatch.setattr(geometry, "_crossing", spy)
    x, y = geometry._intersection_samples(r1, r2, 4000, np.random.default_rng(8))
    [(rho1, rho2, d)] = drawn
    # every kept draw is a feasible radius pair of the two rings
    assert rho1.size > 2000
    assert np.all((r1.r_inner <= rho1) & (rho1 <= r1.r_outer))
    assert np.all((r2.r_inner <= rho2) & (rho2 <= r2.r_outer))
    assert np.all((np.abs(rho1 - rho2) <= d) & (rho1 + rho2 >= d))
    # the clip line runs through both centres, so every crossing it keeps
    # lies on the clip side, at its sampled distances from both centres
    assert x.size == rho1.size
    assert np.all(r1.clip.signed(x, y) >= 0.0)
    scale = r1.r_outer + r2.r_outer + d
    for c, rho in ((r1.center, rho1), (r2.center, rho2)):
        gap = np.abs(np.hypot(x - c.x, y - c.y) - rho)
        assert gap.max() <= 1e-12 * scale
