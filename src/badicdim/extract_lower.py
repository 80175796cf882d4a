"""Lower-dimension extraction: nested families of M disjoint balls at
geometrically shrinking radii, with the scale ratio chosen so that
lambda^alpha * M = 1.

The construction and its verifier work on integer lattice points: the
source tree's cube corners at one scale D = base^w.  Each computes one
threshold table, exactly (`exactmath.floor_lambda`): per scale j the
floors of R_j D, 2 R_j D and (R_j - R_{j+1}) D.  Every in-ball,
disjointness and nesting decision is then one integer comparison,
whether lambda = M^(-q/p) (alpha = p/q) is rational or not.  Centers
become Fractions when they are stored in the `BallTree`.  A radius R0 lambda^k
is a Fraction when it is rational and otherwise the exact triple
(R0, M, -qk/p) of `exactmath.ScaledPower`, which only prints the `R`/`r`
columns of the verification TSV, as `R0*M**(-qk/p)` in lowest terms.
The package needs nothing beyond the standard library.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial
from itertools import islice, tee
from math import lcm
from typing import NamedTuple

from . import geometry
from .core import CubeTree, DomainError, leaf_corners
from .estimators import _log_ratio
from .exactmath import (exact_fraction, floor_lambda, power_cmp,
                        read_exponent, scaled_power)


class LowerParams:
    __slots__ = ("alpha", "M", "depth", "eps", "R0")

    def __init__(self, alpha: Fraction, M: int, depth: int,
                 eps: Fraction = Fraction(0), R0: Fraction = Fraction(1)):
        self.alpha = read_exponent(alpha, "alpha")
        self.M = M
        self.depth = depth
        self.eps = read_exponent(eps, "eps")
        self.R0 = exact_fraction(R0, "R0")
        if not 0 < self.alpha <= 1:
            raise DomainError("alpha must be in (0, 1]")
        if M < 2:
            raise DomainError("M must be >= 2")
        if depth < 0:
            raise DomainError("depth must be >= 0")
        if self.eps < 0:
            raise DomainError("slack eps must be >= 0")
        if self.R0 <= 0:
            raise DomainError("R0 must be positive")

    def radius(self, k: int):
        """R0 * lambda^k with lambda = M^(-q/p) for alpha = p/q, exact: a
        Fraction, or an `exactmath.ScaledPower` when it is irrational,
        which prints as `R0*M**(-qk/p)` (`M**(...)` when R0 = 1)."""
        return scaled_power(self.R0, self.M, -self.alpha.denominator * k,
                            self.alpha.numerator)


class BallTree:
    """Centers indexed by words over {1..M}; level-k radius is
    R0 * lambda^k.  Level-k balls are disjoint, children nest in their
    parent, and the first child keeps the parent's center."""

    __slots__ = ("params", "dim", "centers")

    def __init__(self, params: LowerParams, dim: int, centers: dict = None):
        self.params = params
        self.dim = dim
        self.centers = {} if centers is None else centers  # word -> point

    def level_words(self, k: int):
        return sorted(w for w in self.centers if len(w) == k)

    def level_centers(self, k: int):
        return [self.centers[w] for w in self.level_words(k)]

    @property
    def leaf_points(self):
        return self.level_centers(self.params.depth)


def select_packing_children(query, center, lv: geometry.Level, M: int):
    """Pick M centers (the anchor first) whose r-balls are pairwise
    disjoint and inside B(center, R): greedy lexicographic over the
    packing candidates.  Requires a packing of M + 3^d balls, found by
    a greedy scan that stops once it has them.  `lv` holds the radius
    pair's thresholds on the integer lattice.  `query` is the lattice:
    in d = 1 the tree's sweep of one level, `partial(tree.sweep, w)`,
    which answers the anchor check (a sweep of [c, c]), the feasibility
    count and the picks without listing a ball; in d >= 2 its sorted
    list of points, of which the inside ball is taken once."""
    d = len(center)
    need = M + 3**d
    if d == 1:
        c = center[0]
        found = next(query(c, c, 0), None) == center
        packing = islice(query(c - lv.inside, c + lv.inside, lv.apart), need)
    else:
        ball = geometry.ball_points(query, center, lv.inside)
        found = center in ball
        packing = geometry.greedy_scan(ball, lv.apart, [], need)
    if not found:
        raise DomainError("anchor center must belong to the point set")
    achieved = sum(1 for _ in packing)
    if achieved < need:
        raise DomainError(
            f"insufficient packing: need >= {need}, achieved {achieved}")
    if d == 1:
        chosen = _pick_1d(query, center, lv, M)
    else:
        chosen = geometry.greedy_scan(
            geometry.ball_points(ball, center, lv.nested), lv.apart,
            [center], M)
    if len(chosen) < M:
        raise DomainError(
            f"insufficient packing: selected only {len(chosen)} of {M}")
    return chosen


def _pick_1d(sweep, center, lv, M: int) -> list:
    """The d = 1 case of the scan in `select_packing_children`: up to M
    points, the anchor first.  Every pick after the anchor lies above
    the last one, so the picks are the sweep of the nested ball that
    passes over the anchor's band [c - apart, c + apart]: one walk of
    the tree (`sweep`, as in `select_packing_children`) that stops at
    the last pick."""
    c = center[0]
    return [center, *islice(sweep(c - lv.nested, c + lv.nested, lv.apart, c),
                            max(M - 1, 0))]


def _thresholds(params: LowerParams, D: int) -> tuple:
    """The integer thresholds of every scale j on the lattice of spacing
    1/D: the floors of R_j D (in-ball), 2 R_j D (disjointness) and, for
    all but the last scale, (R_j - R_{j+1}) D (nesting).  The radius pair
    (R_j, R_k) reads the first at j, the second at k and the third at j
    when k = j + 1."""
    c, M, alpha = params.R0 * D, params.M, params.alpha
    scales = range(params.depth + 1)
    return ([floor_lambda(c, M, alpha, j) for j in scales],
            [floor_lambda(2 * c, M, alpha, j) for j in scales],
            [floor_lambda(c, M, alpha, j, j + 1) for j in scales[:-1]])


def _lattice(points):
    """(D, integer points) for rational points: D is their least common
    denominator."""
    D = lcm(*(v.denominator for x in points for v in x))
    return D, [tuple(v.numerator * (D // v.denominator) for v in x)
               for x in points]


def _tree_lattice(tree: CubeTree, params: LowerParams, counts) -> int:
    """The lattice level w: the first level fine enough for the deepest
    radius with at least 4 (M + 3^d) cubes, or the last.  `counts` are
    the tree's level counts, root first (`level_counts`), drawn only
    through the level returned and never at the last level, so deep
    trees never list their leaves and a lazy walk stops where w is
    decided.  The construction then works on the corners of the cubes
    of level w, at scale base^w: in d = 1 by sweeps of the tree's
    level w (`CubeTree.sweep`), in d >= 2 as a listed lattice
    (`leaf_corners`)."""
    c, M, alpha = params.R0, params.M, params.alpha
    w = 1  # the first w with 2 / base^w <= R_depth
    while w < tree.depth and floor_lambda(c * tree.base**w, M, alpha,
                                          params.depth) < 2:
        w += 1
    need = 4 * (M + 3**tree.dim)
    # zip draws a count only while a level below the last is left
    deeper = zip(range(w, tree.depth), islice(counts, w, None))
    return next((level for level, count in deeper if count >= need),
                tree.depth)


def _check_source(source: CubeTree, params: LowerParams, counts):
    """The source's lower estimate at its last scale k = depth, its
    leaf count, must reach alpha+eps: leaves >= base^(k (alpha+eps)),
    decided in integers.  `counts` are the level counts, root first
    (`level_counts`).  Every cube holds a leaf, so they never decrease
    and the last is the leaf count: the first count that reaches the
    bound decides, and no deeper one is drawn.  Only a refusal reads
    them all, to name the estimate from the leaf count."""
    k = source.depth
    if k == 0:
        raise DomainError("lower construction needs a source of depth >= 1")
    target = params.alpha + params.eps
    for count in counts:
        if power_cmp(source.base, k * target, count) <= 0:
            return
    raise DomainError(
        f"source lower estimate {_log_ratio(count, k, source.base):.6f} "
        f"below alpha+eps={float(target):.6f}")


def construct_subset_lower(source: CubeTree, params: LowerParams) -> BallTree:
    """Build the nested ball families from the corners of the cubes of
    one level of the tree `source` (see `_tree_lattice`).  In d = 1
    every query, the first corner included, is a pruned walk of that
    level (`CubeTree.sweep`), so no cube is listed.  The source check
    and the lattice level share one lazy `level_counts` walk, drawn
    only down to the deeper of the levels that decide them; only a
    refused source is walked to its leaves."""
    if not isinstance(source, CubeTree):
        raise DomainError(f"unsupported source type {type(source)!r}")
    counts, again = tee(source.level_counts())
    _check_source(source, params, counts)
    w = _tree_lattice(source, params, again)
    D = source.base**w
    if source.dim == 1:
        query = partial(source.sweep, w)
        first = next(query(0, D, 0))
    else:
        query = leaf_corners(source, w)
        first = query[0]
    inside, apart, nested = _thresholds(params, D)
    centers = {(): first}
    words = [()]
    for k in range(params.depth):
        lv = geometry.Level(inside[k], apart[k + 1], nested[k])
        next_words = []
        for word in words:
            x = centers[word]
            try:
                children = select_packing_children(query, x, lv, params.M)
            except DomainError as exc:
                raise DomainError(
                    f"at word {word or '(root)'}: {exc}") from None
            for i, c in enumerate(children, start=1):
                centers[word + (i,)] = c
                next_words.append(word + (i,))
        words = next_words
    return BallTree(params, source.dim, {
        w: tuple(Fraction(v, D) for v in x) for w, x in centers.items()})


class LowerBoundRow(NamedTuple):
    """One radius pair (R, r): the packing number N* of each deepest
    center's ball, in word order, against bound = M^k / (M+1), stored
    as the pair (M^k, M+1)."""
    R: object
    r: object
    n_stars: tuple
    bound_num: int
    bound_den: int

    @property
    def ok(self) -> bool:
        """Every count meets the bound."""
        return all(n * self.bound_den >= self.bound_num
                   for n in self.n_stars)


class LowerVerification(NamedTuple):
    leaves: list  # the deepest centers, in word order
    rows: list
    invariants_ok: bool
    cardinality_ok: bool
    box_ratio: Fraction
    box_ratio_exact: bool
    failures: list

    @property
    def ok(self) -> bool:
        return (self.invariants_ok and self.cardinality_ok
                and all(row.ok for row in self.rows))

    def to_tsv(self) -> str:
        """One line per radius pair and deepest center, pair by pair."""
        xs = [",".join(map(str, x)) for x in self.leaves]
        lines = ["x\tR\tr\tNstar\tbound\tok"]
        for row in self.rows:
            num, den = row.bound_num, row.bound_den
            radii, bound = f"\t{row.R}\t{row.r}\t", f"\t{num}/{den}\t"
            lines += [f"{x}{radii}{n}{bound}"
                      f"{'ok' if n * den >= num else 'FAIL'}"
                      for x, n in zip(xs, row.n_stars)]
        return "\n".join(lines) + "\n"


def _check_invariants(tree: BallTree, apart: list, nested: list,
                      lattice: dict):
    dist = geometry.dist_inf
    failures = []
    for k in range(1, tree.params.depth + 1):
        words = tree.level_words(k)
        failures += [
            f"level {k}: balls at {words[i]} and {words[j]} intersect"
            for i, j in geometry.close_pairs([lattice[w] for w in words],
                                             apart[k])]
        for w in words:
            if dist(lattice[w], lattice[w[:-1]]) > nested[k - 1]:
                failures.append(f"ball at {w} escapes its parent")
            if w[-1] == 1 and lattice[w] != lattice[w[:-1]]:
                failures.append(f"anchor violated at {w}")
    return failures


def _packing_numbers(ordered: list, centers: list, lv, dim: int):
    """N*_r(B(x, R) n ordered) for each x of `centers`, in order, on
    integer points: `ordered` sorted, `lv` the pair's `Level`.  Each
    distinct ball is counted once.  In d = 1 a ball is the slice of
    `ordered` between two bisections of its first coordinates, swept
    once (`geometry._sweep`); in d >= 2 it is the tuple of its points,
    packed exactly (`geometry.exact_packing`), or greedily above
    `geometry.EXACT_PACKING_LIMIT` points."""
    known = {}
    if dim == 1:
        firsts = [p[0] for p in ordered]
        for (c,) in centers:
            key = (bisect_left(firsts, c - lv.inside),
                   bisect_right(firsts, c + lv.inside))
            if key not in known:
                known[key] = len(geometry._sweep(ordered[slice(*key)],
                                                 lv.apart))
            yield known[key]
        return
    for x in centers:
        key = tuple(geometry.ball_points(ordered, x, lv.inside))
        if key not in known:
            known[key] = (
                geometry.exact_packing(key, x, lv)
                if len(key) <= geometry.EXACT_PACKING_LIMIT
                else len(geometry.greedy_packing(key, x, lv)))
        yield known[key]


def verify_lower_bounds(tree: BallTree) -> LowerVerification:
    """Exhaustive scale-pair verification: for every deepest-level
    center x and every radius pair (R_j, R_{j+k}), check
    N*_r(F n B(x, R)) >= (R/r)^alpha / (M+1), where (R/r)^alpha = M^k
    exactly because lambda^alpha M = 1.  Also checks the level
    cardinalities.  The box-count ratio log(M^n) / -log(R0 lambda^n) is
    reported as alpha, exact only when R0 = 1.  Packings are counted on
    the centers' integer lattice, once per distinct ball of a radius
    pair (`_packing_numbers`)."""
    p = tree.params
    M = p.M
    D, points = _lattice(list(tree.centers.values()))
    lattice = dict(zip(tree.centers, points))
    inside, apart, nested = _thresholds(p, D)
    failures = _check_invariants(tree, apart, nested, lattice)
    cardinality_ok = all(
        len(tree.level_words(k)) == M**k for k in range(p.depth + 1))
    leaf_words = tree.level_words(p.depth)
    leaves = [lattice[w] for w in leaf_words]
    ordered = sorted(leaves)
    radii = [p.radius(j) for j in range(p.depth + 1)]
    rows = []
    for j in range(p.depth):
        for k in range(1, p.depth - j + 1):
            lv = geometry.Level(inside[j], apart[j + k])
            rows.append(LowerBoundRow(radii[j], radii[j + k], tuple(
                _packing_numbers(ordered, leaves, lv, tree.dim)), M**k, M + 1))
    return LowerVerification([tree.centers[w] for w in leaf_words], rows,
                             not failures, cardinality_ok, p.alpha,
                             p.R0 == 1, failures)
