"""Lower-dimension extraction: nested families of M disjoint balls at
geometrically shrinking radii, with the scale ratio chosen so that
lambda^alpha * M = 1.

The construction and its verifier work on integer lattice points: the
source's corners at one scale D (base^w for a tree).  For each radius
pair they compute the three integer thresholds of `geometry.Level`
once, exactly (`exactmath.floor_lambda`), so every in-ball,
disjointness and nesting decision is one integer comparison, whether
lambda = M^(-q/p) (alpha = p/q) is rational or not.  Centers become
Fractions when they are stored in the `BallTree`.  Sympy only formats
the irrational radii of the verification TSV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import geometry
from .core import CubeTree, DomainError, PointSet, leaf_corners
from .estimators import lower_dimension_report
from .exactmath import floor_lambda, iroot, pow_at_most


def _lambda_for(M: int, alpha: Fraction):
    """lambda = M^(-q/p) for alpha = p/q, exact."""
    p, q = alpha.numerator, alpha.denominator
    root = iroot(M**q, p)
    if root**p == M**q:
        return Fraction(1, root)
    import sympy
    return sympy.Integer(M) ** sympy.Rational(-q, p)


@dataclass(frozen=True)
class LowerParams:
    alpha: Fraction
    M: int
    depth: int
    eps: Fraction = Fraction(0)
    R0: Fraction = Fraction(1)

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise DomainError("alpha must be in (0, 1]")
        if self.M < 2:
            raise DomainError("M must be >= 2")
        if self.depth < 0:
            raise DomainError("depth must be >= 0")
        if self.R0 <= 0:
            raise DomainError("R0 must be positive")

    @cached_property
    def lam(self):
        return _lambda_for(self.M, Fraction(self.alpha))

    def radius(self, k: int):
        return self.R0 * self.lam**k


@dataclass
class BallTree:
    """Centers indexed by words over {1..M}; level-k radius is
    R0 * lambda^k.  Level-k balls are disjoint, children nest in their
    parent, and the first child keeps the parent's center."""

    params: LowerParams
    dim: int
    centers: dict = field(default_factory=dict)  # word tuple -> point

    def level_words(self, k: int):
        return sorted(w for w in self.centers if len(w) == k)

    def level_centers(self, k: int):
        return [self.centers[w] for w in self.level_words(k)]

    @property
    def leaf_points(self):
        return self.level_centers(self.params.depth)

    def radius(self, k: int):
        return self.params.radius(k)


def select_packing_children(points, center, R, r, M: int):
    """Pick M centers (the anchor first) whose r-balls are pairwise
    disjoint and inside B(center, R): greedy lexicographic over the
    packing candidates.  Requires packing count >= M + 3^d.  `R, r` are
    exact radii, or a `geometry.Level` and None."""
    pts = sorted(set(tuple(p) for p in points))
    if center not in pts:
        raise DomainError("anchor center must belong to the point set")
    lv = geometry.level_of(R, r)
    d = len(center)
    achieved = len(geometry.greedy_packing(pts, center, lv))
    if achieved < M + 3**d:
        raise DomainError(
            f"insufficient packing: need >= {M + 3**d}, achieved "
            f"{achieved}")
    dist = geometry.dist_inf
    chosen = [center]
    for p in pts:
        if len(chosen) == M:
            break
        if p == center or dist(p, center) > lv.nested:
            continue
        if all(dist(p, q) > lv.apart for q in chosen):
            chosen.append(p)
    if len(chosen) < M:
        raise DomainError(
            f"insufficient packing: selected only {len(chosen)} of {M}")
    return chosen


def _level(params: LowerParams, D: int, j: int, k: int) -> geometry.Level:
    """Integer thresholds of the radius pair (R_j, R_k) on the lattice of
    spacing 1/D."""
    c, M, alpha = params.R0 * D, params.M, Fraction(params.alpha)
    return geometry.Level(floor_lambda(c, M, alpha, j),
                          floor_lambda(2 * c, M, alpha, k),
                          floor_lambda(c, M, alpha, j, k))


def _lattice(points):
    """(D, integer points) for rational points: D is their least common
    denominator."""
    D = lcm(*(v.denominator for x in points for v in x))
    return D, [tuple(v.numerator * (D // v.denominator) for v in x)
               for x in points]


def _tree_lattice(tree: CubeTree, params: LowerParams):
    """(D, sorted integer corners) of the tree at a depth w fine enough
    for the deepest radius, D = base^w; avoids enumerating all leaves of
    very deep trees."""
    c, M, alpha = params.R0, params.M, Fraction(params.alpha)
    w = 1  # the first w with 2 / base^w <= R_depth
    while w < tree.depth and floor_lambda(c * tree.base**w, M, alpha,
                                          params.depth) < 2:
        w += 1
    while w < tree.depth and tree.count_at_depth(w) < 4 * (
            params.M + 3**tree.dim):
        w += 1
    w = min(w, tree.depth)
    sub = tree.subtree((), w) if w < tree.depth else tree
    return tree.base**w, leaf_corners(sub)


def _check_source(source: CubeTree, params: LowerParams):
    """The source's lower estimate at its last scale k must reach
    alpha+eps: count >= base^(k (alpha+eps)), decided in integers."""
    report = lower_dimension_report(source)
    head = report.headline
    last = report.records[-1]
    target = Fraction(params.alpha + params.eps)
    if not pow_at_most(source.base, last.k * target, last.count):
        raise DomainError(
            f"source lower estimate {head:.6f} below "
            f"alpha+eps={float(target):.6f}")


def construct_subset_lower(source, params: LowerParams,
                           check_source_estimate: bool = True) -> BallTree:
    """Build the nested ball families from the points of `source` (a
    PointSet or a CubeTree whose leaf corners are used)."""
    if isinstance(source, CubeTree):
        if check_source_estimate:
            _check_source(source, params)
        D, pts = _tree_lattice(source, params)
    elif isinstance(source, PointSet):
        D, pts = _lattice(source.points)
        pts.sort()
    else:
        raise DomainError(f"unsupported source type {type(source)!r}")
    if not pts:
        raise DomainError("empty source set")
    centers = {(): pts[0]}
    words = [()]
    for k in range(params.depth):
        lv = _level(params, D, k, k + 1)
        next_words = []
        for word in words:
            x = centers[word]
            local = geometry.ball_points(pts, x, lv.inside)
            try:
                children = select_packing_children(local, x, lv, None,
                                                   params.M)
            except DomainError as exc:
                raise DomainError(
                    f"at word {word or '(root)'}: {exc}") from None
            for i, c in enumerate(children, start=1):
                centers[word + (i,)] = c
                next_words.append(word + (i,))
        words = next_words
    tree = BallTree(params, source.dim)
    tree.centers = {w: tuple(Fraction(v, D) for v in x)
                    for w, x in centers.items()}
    return tree


@dataclass(frozen=True)
class LowerBoundRow:
    center: tuple
    R: object
    r: object
    n_star: int
    bound_num: int   # bound = M^k / (M+1), stored as the pair (M^k, M+1)
    bound_den: int
    ok: bool

    def tsv_row(self) -> str:
        return (f"{self.center}\t{self.R}\t{self.r}\t{self.n_star}\t"
                f"{self.bound_num}/{self.bound_den}\t"
                f"{'ok' if self.ok else 'FAIL'}")


@dataclass
class LowerVerification:
    rows: list
    invariants_ok: bool
    cardinality_ok: bool
    box_ratio: Fraction
    box_ratio_exact: bool
    failures: list

    @property
    def ok(self) -> bool:
        return (self.invariants_ok and self.cardinality_ok
                and not self.failures
                and all(row.ok for row in self.rows))

    def to_tsv(self) -> str:
        lines = ["x\tR\tr\tNstar\tbound\tok"]
        lines += [row.tsv_row() for row in self.rows]
        return "\n".join(lines) + "\n"


def _check_invariants(tree: BallTree, D: int, lattice: dict):
    p = tree.params
    dist = geometry.dist_inf
    failures = []
    for k in range(1, p.depth + 1):
        words = tree.level_words(k)
        centers = [lattice[w] for w in words]
        lv = _level(p, D, k - 1, k)
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                if not dist(centers[i], centers[j]) > lv.apart:
                    failures.append(
                        f"level {k}: balls at {words[i]} and {words[j]} "
                        f"intersect")
        for w in words:
            if dist(lattice[w], lattice[w[:-1]]) > lv.nested:
                failures.append(f"ball at {w} escapes its parent")
            if w[-1] == 1 and lattice[w] != lattice[w[:-1]]:
                failures.append(f"anchor violated at {w}")
    return failures


def verify_lower_bounds(tree: BallTree) -> LowerVerification:
    """Exhaustive scale-pair verification: for every deepest-level
    center x and every radius pair (R_j, R_{j+k}), check
    N*_r(F n B(x, R)) >= (R/r)^alpha / (M+1), where (R/r)^alpha = M^k
    exactly because lambda^alpha M = 1.  Also checks the level
    cardinalities and the exact box-count ratio.  Packings are counted
    on the centers' integer lattice."""
    p = tree.params
    M = p.M
    D, points = _lattice(list(tree.centers.values()))
    lattice = dict(zip(tree.centers, points))
    failures = _check_invariants(tree, D, lattice)
    cardinality_ok = all(
        len(tree.level_words(k)) == M**k for k in range(p.depth + 1))
    leaf_words = tree.level_words(p.depth)
    ordered = sorted(lattice[w] for w in leaf_words)
    # packings read only the in-ball and disjointness thresholds, so the
    # nesting one is not computed here
    c, alpha = p.R0 * D, Fraction(p.alpha)
    rows = []
    for j in range(p.depth):
        inside = floor_lambda(c, M, alpha, j)
        for k in range(1, p.depth - j + 1):
            R, r = p.radius(j), p.radius(j + k)
            lv = geometry.Level(inside, floor_lambda(2 * c, M, alpha, j + k))
            bound_num, bound_den = M**k, M + 1
            for w in leaf_words:
                x = lattice[w]
                local = geometry.ball_points(ordered, x, lv.inside)
                if (tree.dim == 1
                        or len(local) <= geometry.EXACT_PACKING_LIMIT):
                    n_star = geometry.exact_packing(local, x, lv)
                else:
                    n_star = len(geometry.greedy_packing(local, x, lv))
                ok = n_star * bound_den >= bound_num
                rows.append(LowerBoundRow(tree.centers[w], R, r, n_star,
                                          bound_num, bound_den, ok))
    # box ratio log(M^n) / -log(R0 lambda^n) as an exact rational
    q_, p_ = p.alpha.denominator, p.alpha.numerator
    if p.R0 == 1 and p.depth > 0:
        ratio = Fraction(p.depth * p_, p.depth * q_)
        exact = ratio == p.alpha
    else:
        ratio = p.alpha
        exact = p.R0 == 1
    return LowerVerification(rows, not failures, cardinality_ok, ratio,
                             exact, failures)
