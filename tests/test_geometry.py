from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from badicdim import geometry
from badicdim.core import DomainError

H = Fraction(1, 2)


def _balls_disjoint(x, y, r) -> bool:
    """Closed r-balls at x and y share no point: touching ones do."""
    return geometry.dist_inf(x, y) > 2 * r


def test_ball_predicates():
    assert geometry.dist_inf((0, 0), (1, 2)) == 2
    assert _balls_disjoint((0,), (1,), Fraction(1, 4))
    assert not _balls_disjoint((0,), (1,), H)  # touching = joint
    assert geometry.in_ball((1,), (H,), H)


def test_greedy_packing_examples():
    pts = [(Fraction(0),), (H,), (Fraction(1),)]
    # pairwise gaps 1/2 > 2r = 0.4; balls inside B(1/2, 0.6)
    assert len(geometry.greedy_packing(
        pts, (H,), Fraction(3, 5), Fraction(1, 5))) == 3
    # two points at distance 0.1 with r = 0.2 overlap
    close = [(Fraction(0),), (Fraction(1, 10),)]
    assert len(geometry.greedy_packing(
        close, (Fraction(0),), Fraction(1), Fraction(1, 5))) == 1
    assert len(geometry.greedy_packing(
        [(Fraction(0),)], (Fraction(0),), Fraction(1), H)) == 1


def test_packings_refuse_negative_radii():
    pts = [(Fraction(0),), (H,)]
    with pytest.raises(DomainError, match="^packing requires r >= 0$"):
        geometry.greedy_packing(pts, pts[0], H, Fraction(-1, 4))


def test_exact_packing_examples():
    pts = [(Fraction(0),), (H,), (Fraction(1),)]
    assert geometry.exact_packing(pts, (H,), Fraction(3, 5),
                                  Fraction(1, 5)) == 3
    five = [(Fraction(i, 10),) for i in range(5)]
    assert geometry.exact_packing(five, (Fraction(1, 5),), Fraction(1, 2),
                                  Fraction(3, 20)) == 2


def test_packings_accept_points_as_lists():
    pts1 = [[Fraction(0)], [H], [Fraction(1)]]
    assert geometry.greedy_packing(pts1, [H], Fraction(3, 5),
                                   Fraction(1, 5)) == pts1
    assert geometry.exact_packing(pts1, [H], Fraction(3, 5),
                                  Fraction(1, 5)) == 3
    pts2 = [[Fraction(0), Fraction(0)], [H, Fraction(0)], [Fraction(1), H]]
    assert len(geometry.greedy_packing(pts2, [H, Fraction(0)], Fraction(1),
                                       Fraction(1, 5))) == 3
    assert geometry.exact_packing(pts2, [H, Fraction(0)], Fraction(1),
                                  Fraction(1, 5)) == 3


def _brute_force_packing(points, center, R, r):
    cands = [p for p in points if geometry.in_ball(p, center, R)]
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
    assert geometry.exact_packing(pts, center, R, r) == \
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
    assert geometry.exact_packing(pts, center, R, r) == \
        _brute_force_packing(pts, center, R, r)


def test_exact_packing_size_guard():
    pts = [(Fraction(i, 50), Fraction(0)) for i in range(25)]
    with pytest.raises(DomainError):
        geometry.exact_packing(pts, pts[0], Fraction(2), Fraction(1, 200))


def test_exact_cover_examples():
    pts = [(Fraction(0),), (H,), (Fraction(1),)]
    # rho = 1/8: three isolated clusters
    assert geometry.exact_cover(pts, (H,), Fraction(2), Fraction(1, 8)) == 3
    # rho = 1/4: one ball spans half the interval -> two suffice
    assert geometry.exact_cover(pts, (H,), Fraction(2), Fraction(1, 4)) == 2
    # rho = 1/2: everything in one ball
    assert geometry.exact_cover(pts, (H,), Fraction(2), H) == 1
    assert geometry.exact_cover([], (H,), Fraction(2), H) == 0


def test_exact_cover_beats_badic_proxy():
    # {3/8, 1/2} fits in one ball of radius 1/8 but spans two dyadic
    # cells of side 1/4 - the cell proxy over-counts, the cover is exact
    pts = [(Fraction(3, 8),), (H,)]
    assert geometry.exact_cover(pts, (H,), Fraction(1), Fraction(1, 8)) == 1
    count, _ = geometry.badic_cell_cover(pts, (H,), Fraction(1),
                                         Fraction(1, 4), 2)
    assert count == 2


def test_exact_cover_refuses_a_negative_radius():
    pts = [(Fraction(0),), (H,)]
    with pytest.raises(DomainError, match="^cover requires rho >= 0$"):
        geometry.exact_cover(pts, (H,), Fraction(1), Fraction(-1, 8))


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
    inside = [p for p in set(points) if geometry.in_ball(p, center, R)]
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
    raw, c = case
    pts = [tuple(Fraction(x, 8) for x in p) for p in raw]
    center = tuple(Fraction(x, 8) for x in c)
    R, rho = Fraction(R8, 8), Fraction(rho16, 16)
    assert geometry.exact_cover(pts, center, R, rho) == \
        _brute_force_cover(pts, center, R, rho)


def test_badic_cell_cover_scale():
    pts = [(Fraction(0),), (H,), (Fraction(1),)]
    count, j = geometry.badic_cell_cover(pts, (H,), Fraction(9, 16),
                                         Fraction(1, 8), 2)
    assert j == 3 and count == 3


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=64), min_size=1,
                max_size=8, unique=True))
def test_greedy_packing_is_maximal_and_valid(xs):
    pts = sorted((Fraction(x, 64),) for x in xs)
    center, R, r = pts[0], Fraction(1, 2), Fraction(3, 64)
    chosen = geometry.greedy_packing(pts, center, R, r)
    for a, b in combinations(chosen, 2):
        assert _balls_disjoint(a, b, r)
    for p in chosen:
        assert geometry.in_ball(p, center, R)
    # maximality: no rejected point can be added
    for p in pts:
        if p in chosen or not geometry.in_ball(p, center, R):
            continue
        assert any(not _balls_disjoint(p, q, r) for q in chosen)
