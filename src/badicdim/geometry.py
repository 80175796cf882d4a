"""Max-metric ball geometry with exact decisions.

Balls are axis-aligned cubes: B(x, r) = prod_i [x_i - r, x_i + r].
Every decision compares a distance n = dist_inf(y, c) with one of the
three thresholds of a radius pair (R, r), held in a `Level`:

- y lies in B(c, R) iff n <= R (`inside`);
- the r-balls at y and c are disjoint iff n > 2r (`apart`);
- B(y, r) lies inside B(c, R) iff n <= R - r (`nested`).

Points are integer lattice points of spacing 1/D, such as a tree's cube
corners at scale D = base^depth (`core.leaf_corners`), and the
thresholds are the floors of R D, 2r D and (R - r) D: for an integer n,
n <= t iff n <= floor(t) and n > t iff n > floor(t).  So a caller
computes the integers once (`exactmath.floor_lambda` for irrational
radii) and every decision is a comparison of integers.

In d = 1 a greedy packing is one sweep in coordinate order (`_sweep`).
The lower construction asks one ball query of its lattice,
`query(center, radius, apart, anchor=None)`: the lazy greedy packing of
the ball's points in sorted order, each more than `apart` from the
anchor and from every point yielded before it.  `greedy_scan` answers
it on a sorted list, `CubeTree.sweep` on a d = 1 tree without listing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cache
from itertools import product
from operator import itemgetter
from typing import NamedTuple

from .core import DomainError

EXACT_PACKING_LIMIT = 20


class Level(NamedTuple):
    """Decision thresholds of one radius pair (R, r); see the module
    docstring.  Packings read only `inside` and `apart`."""

    inside: object
    apart: object
    nested: object = None


def dist_inf(x, y):
    return max(abs(a - b) for a, b in zip(x, y))


def ball_points(pts, center, inside):
    """The points of the lexicographically sorted list `pts` within
    distance `inside` of `center`, in order, lazily.  Their first
    coordinates form one bisected slice, which in d = 1 is the whole
    answer."""
    c0 = center[0]
    lo = bisect_left(pts, c0 - inside, key=itemgetter(0))
    hi = bisect_right(pts, c0 + inside, lo, key=itemgetter(0))
    ball = map(pts.__getitem__, range(lo, hi))
    if len(center) == 1:
        return ball
    return (p for p in ball if dist_inf(p, center) <= inside)


def _sweep(cands, apart) -> list:
    """Greedy packing of sorted 1-D points: keep a point when it lies
    more than `apart` past the last point kept.  The last kept point is
    the nearest kept one, so this is the lexicographic greedy, and it is
    a maximum packing (interval scheduling).  The verifier sweeps listed
    balls with it; `CubeTree.sweep` is the same scan as one walk of a
    d = 1 tree, for lattices that are not listed."""
    kept = []
    last = None
    for p in cands:
        if last is None or p[0] - last > apart:
            kept.append(p)
            last = p[0]
    return kept


def close_pairs(points, apart) -> list:
    """The index pairs (i, j), i < j, of `points` at most `apart` apart,
    sorted.  Only points whose first coordinates lie within `apart` of
    each other are compared, found by bisecting an order of the first
    coordinates."""
    order = sorted(range(len(points)), key=lambda i: points[i][0])
    firsts = [points[i][0] for i in order]
    pairs = []
    for a, i in enumerate(order):
        end = bisect_right(firsts, firsts[a] + apart, a + 1)
        pairs += [(min(i, j), max(i, j)) for j in order[a + 1:end]
                  if not dist_inf(points[i], points[j]) > apart]
    return sorted(pairs)


def greedy_scan(points, center, radius, apart, anchor=None):
    """Yield, lazily and in order, each point of the sorted list
    `points` within `radius` of `center` that lies more than `apart`
    (>= 0) from `anchor` and from every point yielded before it: the
    ball query of a listed lattice.  No point is apart from itself."""
    kept = [] if anchor is None else [anchor]
    for p in ball_points(points, center, radius):
        if all(dist_inf(p, q) > apart for q in kept):
            kept.append(p)
            yield p


def greedy_packing(points, center, lv: Level):
    """Maximal packing: scan the lexicographically sorted list `points`
    in order, accept a point if it lies in B(center, R) and its r-ball
    is disjoint from all accepted balls, `lv` holding the thresholds of
    (R, r).  Returns the accepted centers (a valid packing-number
    lower-bound certificate).

    Packings count disjoint r-balls with centers in B(center, R); this
    makes every point of the ball a candidate, which is what the
    cover/packing sandwich argument needs."""
    if len(center) == 1:
        return _sweep(ball_points(points, center, lv.inside), lv.apart)
    return list(greedy_scan(points, center, lv.inside, lv.apart))


def exact_packing(points, center, lv: Level) -> int:
    """True maximum packing number N*_r(points  intersect  B(center, R)),
    `lv` holding the thresholds of (R, r).

    d = 1 is solved exactly at any size; otherwise at most
    EXACT_PACKING_LIMIT candidates (hard error above, never a silent
    fallback) are searched, once per remaining set: the least remaining
    candidate is left out, or kept with every candidate near it removed.
    """
    cands = list(ball_points(sorted(points), center, lv.inside))
    if len(center) == 1:
        return len(_sweep(cands, lv.apart))
    if len(cands) > EXACT_PACKING_LIMIT:
        raise DomainError(f"exact packing limited to {EXACT_PACKING_LIMIT} "
                          f"candidates, got {len(cands)}")
    near = [frozenset(j for j, q in enumerate(cands)
                      if not dist_inf(p, q) > lv.apart) for p in cands]

    @cache
    def most(rest: frozenset) -> int:
        if not rest:
            return 0
        pivot = min(rest)
        return max(most(rest - {pivot}), 1 + most(rest - near[pivot]))

    return most(frozenset(range(len(cands))))


def exact_cover(points, center, inside, span) -> int:
    """Least number of rho-balls covering the points within `inside` of
    `center`, `span` the threshold of 2 rho: an exact set cover.

    In the max metric a subset is coverable by one rho-ball iff its
    per-axis spans are all <= 2*rho, so candidate balls can be anchored
    per axis at point coordinates.  The search covers the least uncovered
    point by each maximal group holding it, once per uncovered set.
    """
    if span < 0:
        raise DomainError("cover requires span >= 0")
    pts = [p for p in sorted(set(points)) if dist_inf(p, center) <= inside]
    if len(pts) > EXACT_PACKING_LIMIT:
        raise DomainError(f"exact cover limited to {EXACT_PACKING_LIMIT} "
                          f"points, got {len(pts)}")
    groups = {frozenset(i for i, p in enumerate(pts)
                        if all(a <= x <= a + span
                               for a, x in zip(anchor, p)))
              for anchor in product(*map(set, zip(*pts)))}
    groups = [g for g in groups if not any(g < h for h in groups)]

    @cache
    def least(uncovered: frozenset) -> int:
        if not uncovered:
            return 0
        pivot = min(uncovered)
        return 1 + min(least(uncovered - g) for g in groups if pivot in g)

    return least(frozenset(range(len(pts))))


def badic_cell_cover(points, center, inside, cell: int) -> int:
    """The number of cells v // cell of the points within `inside` of
    `center`: with cells of b-adic side <= r, an upper bound on the
    least cover by r-balls, exact up to the fixed 2^d factor."""
    return len({tuple(v // cell for v in p) for p in points
                if dist_inf(p, center) <= inside})
