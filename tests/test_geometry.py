import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from badicdim import geometry
from badicdim.core import DomainError, corners_tree, leaf_corners
from badicdim.estimators import verify_cover_pack_sandwich
from badicdim.generators import random_branching_tree

H = Fraction(1, 2)


def _exact(R, r):
    """The thresholds of exact radii R > r >= 0 themselves."""
    return geometry.Level(R, 2 * r, R - r)


def _in_ball(y, c, R) -> bool:
    return geometry.dist_inf(y, c) <= R


def _balls_disjoint(x, y, r) -> bool:
    """Closed r-balls at x and y share no point: touching ones do."""
    return geometry.dist_inf(x, y) > 2 * r


def test_ball_predicates():
    assert geometry.dist_inf((0, 0), (1, 2)) == 2
    assert _balls_disjoint((0,), (1,), Fraction(1, 4))
    assert not _balls_disjoint((0,), (1,), H)  # touching = joint
    assert geometry.ball_points([(0,), (1,)], (H,), H) == [(0,), (1,)]


def test_greedy_packing_examples():
    pts = [(Fraction(0),), (H,), (Fraction(1),)]
    # pairwise gaps 1/2 > 2r = 0.4; balls inside B(1/2, 0.6)
    assert len(geometry.greedy_packing(
        pts, (H,), _exact(Fraction(3, 5), Fraction(1, 5)))) == 3
    # two points at distance 0.1 with r = 0.2 overlap
    close = [(Fraction(0),), (Fraction(1, 10),)]
    assert len(geometry.greedy_packing(
        close, (Fraction(0),), _exact(Fraction(1), Fraction(1, 5)))) == 1
    assert len(geometry.greedy_packing(
        [(Fraction(0),)], (Fraction(0),), _exact(Fraction(1), H))) == 1


def test_packings_refuse_negative_radii():
    # the packing functions take thresholds; the sandwich, which takes
    # exact radii, refuses r < 0 and r >= R
    tree = corners_tree(2, 1, 2, [(0,), (1,)])  # the points 0 and 1/2
    for r in (Fraction(-1, 4), H):
        with pytest.raises(DomainError, match=(
                r"^packing requires 0 <= r < R$")):
            verify_cover_pack_sandwich(tree, [((0,), H, r)])


def test_exact_packing_examples():
    pts = [(Fraction(0),), (H,), (Fraction(1),)]
    assert geometry.exact_packing(pts, (H,),
                                  _exact(Fraction(3, 5), Fraction(1, 5))) == 3
    five = [(Fraction(i, 10),) for i in range(5)]
    assert geometry.exact_packing(five, (Fraction(1, 5),),
                                  _exact(H, Fraction(3, 20))) == 2


def test_packings_accept_points_as_lists():
    lv = _exact(Fraction(3, 5), Fraction(1, 5))
    pts1 = [[Fraction(0)], [H], [Fraction(1)]]
    assert geometry.greedy_packing(pts1, [H], lv) == pts1
    assert geometry.exact_packing(pts1, [H], lv) == 3
    lv = _exact(Fraction(1), Fraction(1, 5))
    pts2 = [[Fraction(0), Fraction(0)], [H, Fraction(0)], [Fraction(1), H]]
    assert len(geometry.greedy_packing(pts2, [H, Fraction(0)], lv)) == 3
    assert geometry.exact_packing(pts2, [H, Fraction(0)], lv) == 3


def _brute_force_packing(points, center, R, r):
    cands = [p for p in points if _in_ball(p, center, R)]
    best = 0
    for size in range(len(cands), 0, -1):
        for combo in combinations(cands, size):
            if all(_balls_disjoint(a, b, r)
                   for a, b in combinations(combo, 2)):
                return size
    return best


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=32), min_size=1,
                max_size=7, unique=True),
       st.integers(min_value=2, max_value=32),
       st.integers(min_value=1, max_value=8))
def test_exact_packing_1d_matches_brute_force(xs, R32, r32):
    pts = sorted((Fraction(x, 32),) for x in xs)
    center = pts[0]
    R, r = Fraction(R32, 32), Fraction(r32, 33)
    if not r < R:
        return
    assert geometry.exact_packing(pts, center, _exact(R, r)) == \
        _brute_force_packing(pts, center, R, r)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                min_size=1, max_size=6, unique=True),
       st.integers(min_value=2, max_value=8),
       st.integers(min_value=1, max_value=4))
def test_exact_packing_2d_matches_brute_force(raw, R8, r8):
    pts = sorted((Fraction(x, 8), Fraction(y, 8)) for x, y in raw)
    center = pts[0]
    R, r = Fraction(R8, 8), Fraction(r8, 9)
    if not r < R:
        return
    assert geometry.exact_packing(pts, center, _exact(R, r)) == \
        _brute_force_packing(pts, center, R, r)


def test_exact_packing_size_guard():
    pts = [(i, 0) for i in range(25)]
    with pytest.raises(DomainError):
        geometry.exact_packing(pts, pts[0], geometry.Level(100, 0))


def test_exact_cover_examples():
    # the points 0, 1/4 and 1/2 at scale 4; the span is 2 rho at scale 4
    pts = [(0,), (1,), (2,)]
    # rho = 1/16: three isolated clusters
    assert geometry.exact_cover(pts, (1,), 8, 0) == 3
    # rho = 1/8: one ball spans half the interval -> two suffice
    assert geometry.exact_cover(pts, (1,), 8, 1) == 2
    # rho = 1/4: everything in one ball
    assert geometry.exact_cover(pts, (1,), 8, 2) == 1
    assert geometry.exact_cover([], (1,), 8, 2) == 0


def test_exact_cover_beats_badic_proxy():
    # {3/8, 1/2} (3 and 4 at scale 8) fits in one ball of radius 1/8 but
    # spans two dyadic cells of side 1/4 (2 at scale 8) - the cell proxy
    # over-counts, the cover is exact
    pts = [(3,), (4,)]
    assert geometry.exact_cover(pts, (4,), 8, 2) == 1
    assert geometry.badic_cell_cover(pts, (4,), 8, 2) == 2


def test_exact_cover_refuses_a_negative_radius():
    # rho < 0 has a negative span at every scale
    with pytest.raises(DomainError, match="^cover requires span >= 0$"):
        geometry.exact_cover([(0,), (1,)], (1,), 2, -1)


def _set_partitions(items):
    """Every partition of the list `items` into blocks."""
    if not items:
        yield []
        return
    first = items[0]
    for part in _set_partitions(items[1:]):
        yield [[first], *part]
        for i in range(len(part)):
            yield [*part[:i], [first, *part[i]], *part[i + 1:]]


def _brute_force_cover(points, center, R, rho):
    """The fewest blocks of a partition of the points in B(center, R)
    whose every block spans at most 2 rho on each axis: one rho-ball
    covers a set iff its spans are that small, wherever the ball is."""
    inside = [p for p in set(points) if _in_ball(p, center, R)]
    return min(len(part) for part in _set_partitions(inside)
               if all(max(axis) - min(axis) <= 2 * rho
                      for block in part for axis in zip(*block)))


def _lattice_points(dim):
    coords = st.tuples(*[st.integers(0, 16)] * dim)
    return st.tuples(st.lists(coords, max_size=8, unique=True), coords)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 2).flatmap(_lattice_points), st.integers(1, 24),
       st.integers(0, 12))
def test_exact_cover_matches_brute_force(case, R8, rho16):
    # at scale 8 the thresholds of R = R8/8 and 2 rho = rho16/8 are R8
    # and rho16
    raw, c = case
    pts = [tuple(Fraction(x, 8) for x in p) for p in raw]
    center = tuple(Fraction(x, 8) for x in c)
    R, rho = Fraction(R8, 8), Fraction(rho16, 16)
    assert geometry.exact_cover(raw, c, R8, rho16) == \
        _brute_force_cover(pts, center, R, rho)


def test_badic_cell_cover_scale():
    # the points 0, 1/4 and 1/2 at scale 4, in cells of side 1/4, 1/2, 1
    pts = [(0,), (1,), (2,)]
    assert [geometry.badic_cell_cover(pts, (1,), 1, cell)
            for cell in (1, 2, 4)] == [3, 2, 1]
    assert geometry.badic_cell_cover(pts, (0,), 1, 1) == 2


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=64), min_size=1,
                max_size=8, unique=True))
def test_greedy_packing_is_maximal_and_valid(xs):
    pts = sorted((Fraction(x, 64),) for x in xs)
    center, R, r = pts[0], Fraction(1, 2), Fraction(3, 64)
    chosen = geometry.greedy_packing(pts, center, _exact(R, r))
    for a, b in combinations(chosen, 2):
        assert _balls_disjoint(a, b, r)
    for p in chosen:
        assert _in_ball(p, center, R)
    # maximality: no rejected point can be added
    for p in pts:
        if p in chosen or not _in_ball(p, center, R):
            continue
        assert any(not _balls_disjoint(p, q, r) for q in chosen)


def _outcome(call, *args):
    """The value of `call(*args)`, or the text of its DomainError (the
    exact searches refuse more than EXACT_PACKING_LIMIT points)."""
    try:
        return call(*args)
    except DomainError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(2, 1), (3, 1), (2, 2)]),
       st.integers(1, 4), st.fractions(0, 2, max_denominator=40),
       st.fractions(0, 2, max_denominator=40))
def test_floor_thresholds_on_corners_match_exact_radii(seed, shape, depth,
                                                       R, r):
    # the integer corners with the floors of R D and 2r D decide as the
    # points corner / D with the exact radii
    assume(0 < r < R)
    base, dim = shape
    tree = random_branching_tree(base, dim, depth, 2, seed)
    D = base**depth
    corners = leaf_corners(tree)
    points = [tuple(Fraction(v, D) for v in c) for c in corners]
    floors = geometry.Level(math.floor(R * D), math.floor(2 * r * D))
    for c, p in zip(corners, points):
        assert _outcome(geometry.exact_packing, corners, c, floors) == \
            _outcome(geometry.exact_packing, points, p, _exact(R, r))
        assert [tuple(Fraction(v, D) for v in q) for q in
                geometry.greedy_packing(corners, c, floors)] == \
            geometry.greedy_packing(points, p, _exact(R, r))
        assert _outcome(geometry.exact_cover, corners, c, floors.inside,
                        floors.apart) == \
            _outcome(geometry.exact_cover, points, p, R, 2 * r)
