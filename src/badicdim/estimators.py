"""Counting kernels and finite-scale dimension reports.

Counts are exact integers; the only floating point is the 6-decimal
log-ratio column of the reports.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import geometry
from .core import (CubeTree, DomainError, WindowedSet, corner_step,
                   counts_below, leaf_corners, path_text, walk)


class ScaleRecord(NamedTuple):
    k: int
    count: int
    witness: str
    log_ratio: float

    def tsv_row(self) -> str:
        return f"{self.k}\t{self.count}\t{self.log_ratio:.6f}\t{self.witness}"


class DimensionReport(NamedTuple):
    kind: str
    base: int
    records: list

    @property
    def headline(self) -> float:
        if not self.records:
            raise DomainError("empty report has no headline")
        return self.records[-1].log_ratio

    def to_tsv(self) -> str:
        lines = ["k\tcount\tlogratio\twitness"]
        lines += [r.tsv_row() for r in self.records]
        return "\n".join(lines) + "\n"


def _log_ratio(count: int, k: int, base: int) -> float:
    return math.log(count) / (k * math.log(base))


def _report(kind: str, base: int, counts) -> DimensionReport:
    """The report of `counts`, (k, count, witness) triples in k order."""
    return DimensionReport(kind, base, [
        ScaleRecord(k, count, witness, _log_ratio(count, k, base))
        for k, count, witness in counts])


def _tree_h_star(tree: CubeTree, k: int):
    count, _, path = tree.extreme_count(k)
    return count, path_text(tree.base, path)


def _windowed_h_star(wset: WindowedSet, k: int, kind: str):
    """Counts are `extreme_count` reads of the lattice forest's trees,
    one level per side, smallest side first; the witness is one corner
    walk down to the winning side, whose layer is counted once."""
    unit, j_hi, roots = wset.lattice_forest()
    top = unit + roots[0][1].depth
    scales = range(unit + k, (0 if kind == "local" else j_hi) + 1)
    if not scales:
        raise DomainError(f"no admissible cubes for k={k} ({kind})")
    counts = [max(tree.extreme_count(k, lo=top - j, hi=top - j)[0]
                  for _, tree in roots) for j in scales]
    count = max(counts)
    j = scales[counts.index(count)]  # the smallest side with the count
    *_, layer = walk({t.root: c for c, t in reversed(roots)}, top - j,
                     corner_step(wset.base, wset.dim), min)
    below = counts_below(layer, k)
    corner = min(c for node, c in layer.items() if below[node] == count)
    side = wset.base ** (j - unit)
    witness = (f"side=b^{j} corner_units={tuple(x * side for x in corner)} "
               f"unit_exp={unit}")
    return count, witness


def _check_kind(kind: str):
    if kind not in ("local", "global"):
        raise DomainError(f"kind must be 'local' or 'global', got {kind!r}")


def h_star(obj, k: int, kind: str = "local"):
    """H*_{b^k}: max over admissible cubes Q of the hit-subcube count,
    with an argmax witness as report text (ties: smallest level, then
    lexicographic)."""
    _check_kind(kind)
    if isinstance(obj, CubeTree):
        return _tree_h_star(obj, k)
    if isinstance(obj, WindowedSet):
        return _windowed_h_star(obj, k, kind)
    raise DomainError(f"unsupported set type {type(obj)!r}")


def star_dimension_report(obj, kind: str = "local",
                          k_max: int = None) -> DimensionReport:
    """H* at k = 1..k_max.  k_max defaults to a tree's depth; on a
    windowed set, to the largest k a local cube admits, or for `global`
    to the deepest window's depth."""
    _check_kind(kind)
    if isinstance(obj, CubeTree):
        if k_max is None:
            k_max = obj.depth
        if k_max > obj.depth:
            raise DomainError(f"k_max {k_max} exceeds depth {obj.depth}")
    elif not isinstance(obj, WindowedSet):
        raise DomainError(f"unsupported set type {type(obj)!r}")
    elif k_max is None:
        k_max = max(-obj.lattice_forest()[0], 1) if kind == "local" else \
            max(w.tree.depth for w in obj.windows)
    return _report(f"star-{kind}", obj.base, (
        (k, *h_star(obj, k, kind)) for k in range(1, k_max + 1)))


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
    return _report("lower-cover", tree.base, (
        (k, count, path_text(tree.base, path)) for k in range(1, k_max + 1)
        for count, _, path in [tree.extreme_count(k, largest=False)]))


def _cell(tree: CubeTree, r) -> int:
    """The side, at scale base^depth, of the b-adic cells of the largest
    b-adic scale <= r, or 1 where those are finer than the leaves."""
    side = D = tree.base**tree.depth
    while side > 1 and side > r * D:
        side //= tree.base
    return side


def ball_cover_count(tree: CubeTree, center, R, r) -> int:
    """Covering count of the tree's leaf corners within B(center, R) by
    b-adic cells at the largest b-adic scale <= r: an upper bound on the
    true least cover, exact up to the fixed 2^d factor.  `center` is a
    leaf corner (`leaf_corners`) and R > r > 0 are exact radii."""
    if not 0 < r < R:
        raise DomainError("cover requires 0 < r < R")
    pts = leaf_corners(tree)
    if center not in pts:
        raise DomainError("center must be a leaf corner of the tree")
    return geometry.badic_cell_cover(
        pts, center, math.floor(R * tree.base**tree.depth), _cell(tree, r))


class SandwichRow(NamedTuple):
    center: tuple
    R: Fraction
    r: Fraction
    cover_2r: int
    packing: int
    cover_r3: int
    method: str
    ok: bool


def verify_cover_pack_sandwich(tree: CubeTree, samples) -> list:
    """Check N_{2r}(A n B(a,R/2)) <= N*_r(A n B(a,R)) <= N_{r/3}(A n
    B(a,R)) for every (center, R, r) sample: A the tree's leaf corners
    at scale D = base^depth (`leaf_corners`), `center` one of them and
    R > r >= 0 exact radii, whose floors times D decide every ball.

    Instances with <= 20 candidate points use the exact cover and
    packing oracles; larger ones fall back to greedy certificates."""
    rows = []
    pts = leaf_corners(tree)
    D = tree.base**tree.depth
    for center, R, r in samples:
        R, r = Fraction(R), Fraction(r)
        if not 0 <= r < R:
            raise DomainError("packing requires 0 <= r < R")
        inside, half = math.floor(R * D), math.floor(R * D / 2)
        lv = geometry.Level(inside, math.floor(2 * r * D))
        in_big = geometry.ball_points(pts, center, inside)
        if len(in_big) <= geometry.EXACT_PACKING_LIMIT:
            left = geometry.exact_cover(in_big, center, half,
                                        math.floor(4 * r * D))
            mid = geometry.exact_packing(in_big, center, lv)
            right = geometry.exact_cover(in_big, center, inside,
                                         math.floor(2 * r * D / 3))
            ok = left <= mid <= right
            method = "exact"
        else:
            packing = geometry.greedy_packing(in_big, center, lv)
            mid = len(packing)
            covered = all(
                any(geometry.dist_inf(p, q) <= lv.apart for q in packing)
                for p in geometry.ball_points(in_big, center, half))
            left = mid if covered else mid + 1
            right = geometry.badic_cell_cover(in_big, center, inside,
                                              _cell(tree, r / 3))
            ok = covered and mid <= right
            method = "greedy"
        rows.append(SandwichRow(center, R, r, left, mid, right, method, ok))
    return rows
