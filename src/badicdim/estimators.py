"""Counting kernels and finite-scale dimension reports.

Counts are exact integers; the only floating point is the 6-decimal
log-ratio column of the reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import geometry
from .core import (BadicCube, CubeTree, DomainError, PointSet, WindowedSet)

COVER_METHOD_TAG = "badic-cells"


@dataclass(frozen=True)
class ScaleRecord:
    k: int
    count: int
    witness: str
    log_ratio: float

    def tsv_row(self) -> str:
        return f"{self.k}\t{self.count}\t{self.log_ratio:.6f}\t{self.witness}"


@dataclass
class DimensionReport:
    kind: str
    base: int
    records: list = field(default_factory=list)

    @property
    def headline(self) -> float:
        if not self.records:
            raise DomainError("empty report has no headline")
        return self.records[-1].log_ratio

    @property
    def envelope(self) -> tuple:
        ratios = [r.log_ratio for r in self.records]
        return (min(ratios), max(ratios))

    def to_tsv(self) -> str:
        lines = ["k\tcount\tlogratio\twitness"]
        lines += [r.tsv_row() for r in self.records]
        return "\n".join(lines) + "\n"


def _log_ratio(count: int, k: int, base: int) -> float:
    return math.log(count) / (k * math.log(base))


def count_hit_subcubes(tree: CubeTree, cube: BadicCube, k: int) -> int:
    """N_{b^k}(E, Q): depth-(level+k) descendants of Q present in the
    tree.  Q absent from the tree gives 0; exceeding the resolution is
    an error."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if cube.level + k > tree.depth:
        raise DomainError(
            f"level {cube.level} + k {k} exceeds depth {tree.depth}")
    node = tree.node_at(cube.path)
    if node is None:
        return 0
    return tree.descendant_count(node, k)


def _tree_h_star(tree: CubeTree, k: int):
    if not 1 <= k <= tree.depth:
        raise DomainError(f"k {k} outside 1..{tree.depth}")
    count, _, path = tree.extreme_count(k)
    return count, tree.cube(path)


def _windowed_boxes(wset: WindowedSet):
    """All leaf cubes as (corner, side_exp) in integer units b^U."""
    b = wset.base
    unit = min(min(w.side_exp - w.tree.depth for w in wset.windows), 0)
    boxes = []
    for w in wset.windows:
        n = w.tree.depth
        e = (w.side_exp - n) - unit
        off_units = tuple(o * b**(-unit) for o in w.offset)
        for path in w.tree.iter_leaf_paths():
            corner = tuple(
                off_units[i]
                + sum(path[j][i] * b**(w.side_exp - j - 1 - unit)
                      for j in range(n))
                for i in range(wset.dim))
            boxes.append((corner, e))
    return unit, boxes


def _windowed_h_star(wset: WindowedSet, k: int, kind: str):
    b, d = wset.base, wset.dim
    unit, boxes = _windowed_boxes(wset)
    if kind == "local":
        j_hi = 0
    else:
        span = max(max(c[i] + b**e for c, e in boxes) for i in range(d))
        j_hi = unit
        while b ** (j_hi - unit) < span:
            j_hi += 1
        j_hi += 1
    full = b ** (k * d)  # the count of a candidate cube inside the set
    best = None  # (-count, j, corner): ties to the smallest j, then corner
    for j in range(unit + k, j_hi + 1):
        side_units = b ** (j - unit)
        sub_units = b ** (j - k - unit)
        # bucket the leaf boxes by the candidate cube containing them; a
        # leaf larger than the candidate cube fills every candidate inside
        # it, and its own corner is the smallest of them
        buckets = {}
        for c, e in boxes:
            leaf_side = b**e
            if leaf_side > side_units:
                key = (-full, j, c)
                if best is None or key < best:
                    best = key
            else:
                corner = tuple((x // side_units) * side_units for x in c)
                buckets.setdefault(corner, []).append((c, leaf_side))
        for corner, bucket in buckets.items():
            count = 0
            cells = set()
            for c, leaf_side in bucket:
                if leaf_side >= sub_units:
                    count += (leaf_side // sub_units) ** d
                else:
                    cells.add(tuple(x // sub_units for x in c))
            key = (-count - len(cells), j, corner)
            if best is None or key < best:
                best = key
    if best is None:
        raise DomainError(f"no admissible cubes for k={k} ({kind})")
    witness = f"side=b^{best[1]} corner_units={best[2]} unit_exp={unit}"
    return -best[0], witness


def h_star(obj, k: int, kind: str = "local"):
    """H*_{b^k}: max over admissible cubes Q of the hit-subcube count,
    with an argmax witness (ties: smallest level, then lexicographic)."""
    if isinstance(obj, CubeTree):
        count, cube = _tree_h_star(obj, k)
        return count, cube
    if isinstance(obj, WindowedSet):
        return _windowed_h_star(obj, k, kind)
    raise DomainError(f"unsupported set type {type(obj)!r}")


def star_dimension_report(obj, kind: str = "local",
                          k_max: int = None) -> DimensionReport:
    if isinstance(obj, CubeTree):
        if k_max is None:
            k_max = obj.depth
        if k_max > obj.depth:
            raise DomainError(f"k_max {k_max} exceeds depth {obj.depth}")
        base = obj.base
    else:
        if k_max is None:
            raise DomainError("windowed sets need an explicit k_max")
        base = obj.base
    report = DimensionReport(kind=f"star-{kind}", base=base)
    for k in range(1, k_max + 1):
        count, witness = h_star(obj, k, kind)
        report.records.append(ScaleRecord(
            k, count, str(witness), _log_ratio(count, k, base)))
    return report


def lower_dimension_report(tree: CubeTree,
                           k_max: int = None) -> DimensionReport:
    """Cube-based inf-count dual of h_star: per k, the minimum over all
    occupied cubes Q (with k levels of resolution below) of the number
    of occupied subcubes."""
    if not isinstance(tree, CubeTree):
        raise DomainError("lower_dimension_report expects a CubeTree")
    if k_max is None:
        k_max = tree.depth
    if k_max > tree.depth:
        raise DomainError(f"k_max {k_max} exceeds depth {tree.depth}")
    report = DimensionReport(kind="lower-cover", base=tree.base)
    for k in range(1, k_max + 1):
        count, _, path = tree.extreme_count(k, largest=False)
        report.records.append(ScaleRecord(
            k, count, str(tree.cube(path)), _log_ratio(count, k, tree.base)))
    return report


def ball_cover_count(points: PointSet, center, R, r) -> int:
    """Covering count of points within B(center, R) by b-adic cells at
    the largest b-adic scale <= r (method tag COVER_METHOD_TAG).  Upper
    bound on the true least cover, exact up to the fixed 2^d factor."""
    if center not in points.points:
        raise DomainError("center must belong to the point set")
    count, _ = geometry.badic_cell_cover(points.points, center, R, r,
                                         points.base)
    return count


def packing_count(points: PointSet, center, R, r) -> int:
    """Greedy maximal packing count: a deterministic lower-bound
    certificate for N*_r(points intersect B(center, R))."""
    if center not in points.points:
        raise DomainError("center must belong to the point set")
    return len(geometry.greedy_packing(points.points, center, R, r))


@dataclass(frozen=True)
class SandwichRow:
    center: tuple
    R: Fraction
    r: Fraction
    cover_2r: int
    packing: int
    cover_r3: int
    method: str
    ok: bool


def verify_cover_pack_sandwich(points: PointSet, samples) -> list:
    """Check N_{2r}(A n B(a,R/2)) <= N*_r(A n B(a,R)) <= N_{r/3}(A n
    B(a,R)) for every (center, R, r) sample.

    Instances with <= 20 candidate points use the exact cover and
    packing oracles; larger ones fall back to greedy certificates."""
    rows = []
    pts = points.points
    for center, R, r in samples:
        R, r = Fraction(R), Fraction(r)
        in_big = [p for p in pts if geometry.in_ball(p, center, R)]
        if len(in_big) <= geometry.EXACT_PACKING_LIMIT:
            left = geometry.exact_cover(pts, center, R / 2, 2 * r)
            mid = geometry.exact_packing(pts, center, R, r)
            right = geometry.exact_cover(pts, center, R, Fraction(r, 3))
            ok = left <= mid <= right
            method = "exact"
        else:
            packing = geometry.greedy_packing(pts, center, R, r)
            mid = len(packing)
            half = [p for p in pts if geometry.in_ball(p, center, R / 2)]
            covered = all(
                any(geometry.dist_inf(p, q) <= 2 * r for q in packing)
                for p in half)
            left = mid if covered else mid + 1
            right, _ = geometry.badic_cell_cover(
                pts, center, R, Fraction(r, 3), points.base)
            ok = covered and mid <= right
            method = "greedy"
        rows.append(SandwichRow(center, R, r, left, mid, right, method, ok))
    return rows
