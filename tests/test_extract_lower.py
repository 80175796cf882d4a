import itertools
import math
import random
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache, partial
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from badicdim import extract_lower, geometry
from badicdim.core import CubeTree, DomainError, corners_tree, leaf_corners
from badicdim.estimators import _log_ratio
from badicdim.exactmath import ScaledPower, floor_lambda, iroot, power_cmp
from badicdim.extract_lower import (BallTree, LowerParams,
                                    _pick_1d, _tree_lattice,
                                    construct_subset_lower,
                                    select_packing_children,
                                    verify_lower_bounds)
from badicdim.generators import digit_cantor, random_branching_tree


def test_params_validation_and_lambda():
    p = LowerParams(alpha=Fraction(1, 2), M=4, depth=3)
    assert p.radius(1) == Fraction(1, 16)  # lambda^alpha * M = 1
    assert p.radius(2) == Fraction(1, 256)
    with pytest.raises(DomainError):
        LowerParams(alpha=Fraction(3, 2), M=4, depth=3)
    with pytest.raises(DomainError):
        LowerParams(alpha=Fraction(1, 2), M=1, depth=3)
    with pytest.raises(DomainError):
        LowerParams(alpha=Fraction(1, 2), M=4, depth=3, R0=Fraction(0))


@cache
def _bounds(x, bits: int) -> tuple:
    """lo <= x <= hi for a radius x: x itself when it is a Fraction,
    else from the integer root r <= M^(|num|/root) 2^bits < r + 1."""
    if isinstance(x, Fraction):
        return x, x
    r = iroot(x.M ** abs(x.num) << (bits * x.root), x.root)
    lo, hi = Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits)
    if x.num < 0:
        lo, hi = 1 / hi, 1 / lo
    return x.R0 * lo, x.R0 * hi


def _at_most(t, R, r=Fraction(0)) -> bool:
    """t + r <= R for a rational t and radii r, R, exactly: the bounds
    are refined until they decide.  Equality needs rational r and R
    (two distinct powers of lambda differ by an irrational), which are
    compared as they are."""
    bits = 8
    while True:
        (r_lo, r_hi), (R_lo, R_hi) = _bounds(r, bits), _bounds(R, bits)
        if t + r_hi <= R_lo:
            return True
        if t + r_lo > R_hi:
            return False
        bits *= 2


def _is_lambda_power(radius, params, k) -> bool:
    """(radius / R0)^(-p) == M^(qk) for alpha = p/q, in integers."""
    p, q = params.alpha.numerator, params.alpha.denominator
    if isinstance(radius, Fraction):
        return (params.R0 / radius) ** p == params.M ** (q * k)
    return (radius.R0, radius.M) == (params.R0, params.M) and \
        -p * radius.num == q * k * radius.root


def test_lambda_irrational_case_is_exact():
    # alpha = 2/3, M = 2: lambda = 2^(-3/2), kept as an exact triple
    p = LowerParams(alpha=Fraction(2, 3), M=2, depth=1, R0=Fraction(3, 2))
    lam = LowerParams(alpha=Fraction(2, 3), M=2, depth=1).radius(1)
    assert isinstance(lam, ScaledPower)
    assert lam.R0 == 1 and -2 * lam.num == 3 * lam.root  # lam^-2 = 2^3
    for k in range(5):
        assert _is_lambda_power(p.radius(k), p, k)
    assert isinstance(p.radius(2), Fraction)  # 2^-3 R0 is rational
    # exact ordering still works on the radii
    assert not _at_most(Fraction(0), p.radius(1), p.radius(0))
    assert _at_most(Fraction(0), p.radius(0), p.radius(1))


# (M, p, q, R0, k, text of R0 lambda^k for alpha = p/q): an irrational
# radius prints its power in lowest terms, with R0 when it is not 1 and M
# as given
RADIUS_TEXT = [
    (5, 2, 5, "1", 1, "5**(-5/2)"),
    (5, 2, 5, "1/2", 1, "1/2*5**(-5/2)"),
    (5, 3, 7, "250", 1, "250*5**(-7/3)"),
    (12, 6, 7, "1", 2, "12**(-7/3)"),
]


@pytest.mark.parametrize("M, p, q, R0, k, text", RADIUS_TEXT)
def test_power_text_is_pinned(M, p, q, R0, k, text):
    params = LowerParams(Fraction(p, q), M, 1, R0=Fraction(R0))
    radius = params.radius(k)
    assert str(radius) == text
    assert _is_lambda_power(radius, params, k)
    assert isinstance(radius, ScaledPower)


# The same radii as the canonical radical text that sympy printed before
# the radius text became the power itself: one row per case of that
# printer (sqrt and other roots, a coefficient or none, no denominator,
# radicals of several radicands, merged radicands, perfect powers).  The
# new text names the same number, and a rational radius prints as it did.
RADICAL_TEXT = [
    (5, 2, 5, "1", 1, "sqrt(5)/125"),
    (5, 2, 5, "3/2", 1, "3*sqrt(5)/250"),
    (4, 3, 5, "3/2", 1, "3*2**(2/3)/32"),
    (6, 3, 4, "3/2", 1, "6**(2/3)/24"),
    (12, 2, 3, "3/2", 1, "sqrt(3)/48"),
    (5, 2, 5, "250", 1, "2*sqrt(5)"),
    (5, 2, 5, "125", 1, "sqrt(5)"),
    (5, 3, 7, "250", 1, "2*5**(2/3)"),
    (5, 3, 8, "250", 1, "2*5**(1/3)"),
    (2, 3, 10, "1", 2, "2**(1/3)/128"),
    (2, 3, 10, "1", 1, "2**(2/3)/16"),
    (2, 3, 10, "3/2", 2, "3*2**(1/3)/256"),
    (2, 2, 9, "1", 1, "sqrt(2)/32"),
    (12, 6, 7, "1", 1, "2**(2/3)*3**(5/6)/72"),
    (12, 6, 7, "1", 2, "2**(1/3)*3**(2/3)/864"),
    (44, 6, 7, "1", 1, "11**(5/6)*2**(2/3)/968"),
    (12, 4, 9, "1", 3, "sqrt(2)*3**(1/4)/35831808"),
    (44, 4, 9, "1", 1, "11**(3/4)*sqrt(2)/42592"),
    (12, 4, 9, "250", 1, "125*sqrt(2)*3**(3/4)/432"),
    (72, 6, 7, "1", 1, "sqrt(2)*3**(2/3)/432"),
    (18, 3, 4, "1", 1, "12**(1/3)/108"),
    (12, 3, 4, "1", 1, "18**(1/3)/72"),
    (18, 3, 5, "1", 1, "18**(1/3)/324"),
    (12, 3, 5, "1", 2, "18**(1/3)/10368"),
    (6, 3, 4, "1", 2, "6**(1/3)/216"),
    (144, 6, 7, "1", 1, "18**(1/3)/864"),
    (144, 6, 7, "1", 2, "12**(1/3)/248832"),
    (324, 6, 7, "1", 1, "12**(1/3)/1944"),
    (36, 4, 5, "1", 1, "sqrt(6)/216"),
    (1000, 2, 3, "1", 1, "sqrt(10)/100000"),
    (30, 2, 3, "1", 1, "sqrt(30)/900"),
    (10, 2, 3, "2/7", 1, "sqrt(10)/350"),
    (4, 4, 5, "1", 2, "1/32"),
    (5, 2, 5, "3/2", 0, "3/2"),
]


FACTOR = re.compile(
    r"([*/]?)(?:sqrt\((\d+)\)|(\d+)\*\*\((-?\d+/\d+)\)|(\d+))")


def _text_factors(text: str) -> list:
    """(base, exponent) per factor of a radius text, which multiplies and
    divides, left to right, integers, `sqrt(b)` and `b**(e)`."""
    tokens = list(FACTOR.finditer(text))
    assert "".join(t.group(0) for t in tokens) == text
    out = []
    for op, root, base, exp, whole in (t.groups() for t in tokens):
        b, e = ((root, Fraction(1, 2)) if root else
                (base, Fraction(exp)) if base else (whole, Fraction(1)))
        out.append((int(b), -e if op == "/" else e))
    return out


def _same_number(a: str, b: str) -> bool:
    """Whether two radius texts name the same positive number, exactly:
    their L-th powers, for L the lcm of the exponents' denominators, are
    equal Fractions."""
    fa, fb = _text_factors(a), _text_factors(b)
    L = math.lcm(*(e.denominator for _, e in fa + fb))
    return math.prod(Fraction(n) ** int(e * L) for n, e in fa) == \
        math.prod(Fraction(n) ** int(e * L) for n, e in fb)


@pytest.mark.parametrize("M, p, q, R0, k, text", RADICAL_TEXT)
def test_radius_text_is_pinned(M, p, q, R0, k, text):
    params = LowerParams(Fraction(p, q), M, 1, R0=Fraction(R0))
    radius = params.radius(k)
    assert _same_number(str(radius), text)
    assert _is_lambda_power(radius, params, k)
    assert isinstance(radius, ScaledPower) == ("(" in text)
    assert isinstance(radius, ScaledPower) or str(radius) == text


POWER_TEXT = re.compile(r"(?:(\d+(?:/\d+)?)\*)?(\d+)\*\*\((-\d+/\d+)\)")


@settings(max_examples=200, deadline=None)
@given(M=st.integers(2, 60), q=st.integers(1, 12), data=st.data(),
       R0=st.fractions(Fraction(1, 50), 300, max_denominator=50),
       k=st.integers(0, 4))
def test_radius_text_reads_back_as_its_exact_power(M, q, data, R0, k):
    p = data.draw(st.integers(1, q))
    params = LowerParams(Fraction(p, q), M, 1, R0=R0)
    radius = params.radius(k)
    text = str(radius)
    assert _is_lambda_power(radius, params, k)
    if isinstance(radius, Fraction):
        assert Fraction(text) == radius and "(" not in text
        return
    coeff, base, exp = POWER_TEXT.fullmatch(text).groups()
    assert (coeff is None) == (R0 == 1)
    assert Fraction(coeff or 1) == radius.R0 == R0
    assert int(base) == radius.M == M
    e = Fraction(exp)
    assert e == Fraction(radius.num, radius.root) and str(e) == exp
    # the value, from the text alone: floor(D R0 M^(-u/v)) is the v-th
    # root of floor((D R0)^v / M^u)
    u, v = -e.numerator, e.denominator
    for D in (1, 7, 10**3, 10**9):
        c = D * R0
        assert iroot(c.numerator**v // (c.denominator**v * M**u), v) == \
            floor_lambda(c, M, params.alpha, k)
    assert math.isclose(eval(text), float(R0) * M ** float(e))


# the corners 0..15 of the cubes of level 4 of the full binary tree,
# every one in the ball and apart from every other
SIXTEEN = partial(CubeTree.full(2, 1, 4).sweep, 4)
WIDE = geometry.Level(15, 0, 14)


def test_select_packing_children_example():
    chosen = select_packing_children(SIXTEEN, (0,), WIDE, 4)
    assert len(chosen) == 4
    assert chosen[0] == (0,)


def test_select_packing_children_m1():
    assert select_packing_children(SIXTEEN, (0,), WIDE, 1) == [(0,)]


def test_select_packing_children_sparse_error():
    three = CubeTree.from_leaves(4, 1, 1, [((0,),), ((2,),), ((3,),)])
    with pytest.raises(DomainError, match="achieved 3"):
        select_packing_children(partial(three.sweep, 1), (0,),
                                geometry.Level(8, 0, 7), 4)


def test_select_packing_children_2d_picks_inside_the_nested_ball():
    # the lattice 0..7 on each axis: the inside ball of radius 3 holds
    # (0, 0), which comes first, but only the nested ball's points, at
    # distance <= 1 from the anchor, may be picked
    lattice = leaf_corners(CubeTree.full(2, 2, 3))
    assert select_packing_children(lattice, (3, 3), geometry.Level(3, 0, 1),
                                   4) == [(3, 3), (2, 2), (2, 3), (2, 4)]


@pytest.mark.parametrize("query, center", [
    (partial(CubeTree.from_leaves(4, 1, 1, [((0,),), ((2,),)]).sweep, 1),
     (1,)),
    (leaf_corners(CubeTree.full(2, 2, 2)), (1, 4))])
def test_select_packing_children_refuses_an_anchor_off_the_lattice(query,
                                                                   center):
    # in d = 1 the corners are 0 and 2; in d = 2 the lattice is 0..3 on
    # each axis
    with pytest.raises(DomainError, match=(
            "^anchor center must belong to the point set$")):
        select_packing_children(query, center, geometry.Level(8, 0, 7), 2)


def test_construct_refuses_a_point_set():
    points = [(1,), (3,)]  # the corners of 1/4 and 3/4, not their tree
    with pytest.raises(DomainError, match=(
            "^unsupported source type <class 'list'>$")):
        construct_subset_lower(points, LowerParams(Fraction(1, 2), 2, 0))


def _plain_scan_picks(pts, center, lv, M):
    """The d = 1 picks of `select_packing_children` as a plain scan: up
    to M points of the nested ball, the anchor first, each more than
    `apart` from every point picked before it."""
    chosen = [center]
    for p in sorted(pts):
        if len(chosen) < M and p != center and geometry.dist_inf(
                p, center) <= lv.nested and all(
                geometry.dist_inf(p, q) > lv.apart for q in chosen):
            chosen.append(p)
    return chosen


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 80), min_size=1, max_size=60), st.data(),
       st.integers(0, 6), st.integers(0, 40), st.integers(1, 8))
def test_select_packing_children_1d_matches_plain_scan(values, data, apart,
                                                       nested, M):
    # the values are the corners of a base-3 depth-4 tree's leaves
    values = sorted(set(values))
    tree = CubeTree.from_leaves(3, 1, 4, [
        tuple((v // 3**i % 3,) for i in (3, 2, 1, 0)) for v in values])
    pts = [(v,) for v in values]
    center = data.draw(st.sampled_from(pts))
    lv = geometry.Level(nested, apart, nested)
    assert _pick_1d(partial(tree.sweep, 4), center, lv,
                    M) == _plain_scan_picks(pts, center, lv, M)


def test_construct_depth0():
    source = corners_tree(2, 1, 4, [(1,), (3,)])  # 1/4 and 3/4
    bt = construct_subset_lower(source, LowerParams(Fraction(1, 2), 2, 0))
    assert bt.leaf_points == [(Fraction(1, 4),)]  # min point anchors


def test_construct_full_interval():
    E = CubeTree.full(4, 1, 8)
    bt = construct_subset_lower(E, LowerParams(Fraction(1, 2), 4, 2))
    assert len(bt.leaf_points) == 16
    v = verify_lower_bounds(bt)
    assert v.ok
    assert v.box_ratio == Fraction(1, 2) and v.box_ratio_exact


def test_construct_cantor_rejects_thin_packing():
    # Cantor b=3 corners, alpha=1/2, M=2 -> lambda = 1/4.  At scale
    # ratio 4 the middle-thirds set packs only 2 disjoint balls around
    # a corner, below the required M + 3^d = 5: the admissibility
    # failure is reported rather than silently absorbed.
    E = digit_cantor(3, 1, [0, 2], 12)
    params = LowerParams(Fraction(1, 2), 2, 4)
    assert params.radius(1) == Fraction(1, 4)
    with pytest.raises(DomainError, match="insufficient packing"):
        construct_subset_lower(E, params)


def test_construct_cantor_small_lambda_succeeds():
    # with M = 2 and alpha = 1/5, lambda = 1/32 leaves room to pack
    E = digit_cantor(3, 1, [0, 2], 12)
    bt = construct_subset_lower(E, LowerParams(Fraction(1, 5), 2, 2))
    assert len(bt.leaf_points) == 4
    v = verify_lower_bounds(bt)
    assert v.invariants_ok and v.cardinality_ok
    assert all(row.ok for row in v.rows)


def test_construct_rejects_low_source_estimate():
    from badicdim.extract_assouad import prune_with_caps
    chain = prune_with_caps(CubeTree.full(2, 1, 10), [1] * 10)
    with pytest.raises(DomainError, match="below"):
        construct_subset_lower(chain, LowerParams(Fraction(1, 2), 2, 2))


def test_construct_rejects_depth0_source():
    with pytest.raises(DomainError, match="^lower construction needs a "
                                          "source of depth >= 1$"):
        construct_subset_lower(CubeTree.full(2, 1, 0),
                               LowerParams(Fraction(1, 2), 2, 0))


def _unchecked():
    """A context in which `construct_subset_lower` skips the source's
    lower-estimate check, so the construction itself is reached."""
    return mock.patch.object(extract_lower, "_check_source",
                             lambda source, params, counts: None)


def test_construct_on_unchecked_depth0_source():
    point = CubeTree.full(2, 1, 0)
    with _unchecked():
        bt = construct_subset_lower(point, LowerParams(Fraction(1, 2), 2, 0))
    assert bt.params.depth == 0 and bt.centers == {(): (Fraction(0),)}
    with _unchecked(), pytest.raises(DomainError, match=(
            r"^at word \(root\): insufficient packing: need >= 5, "
            r"achieved 1$")):
        construct_subset_lower(point, LowerParams(Fraction(1, 2), 2, 1))


def test_construct_failure_names_word():
    source = corners_tree(4, 1, 16, [(i,) for i in range(8)])
    with pytest.raises(DomainError, match=(
            r"^at word \(root\): insufficient packing: need >= 7, "
            r"achieved 3$")):
        construct_subset_lower(source, LowerParams(Fraction(1, 2), 4, 3))


def test_report_tsv_shape():
    E = CubeTree.full(4, 1, 6)
    bt = construct_subset_lower(E, LowerParams(Fraction(1, 2), 4, 2))
    text = verify_lower_bounds(bt).to_tsv()
    lines = text.splitlines()
    assert lines[0] == "x\tR\tr\tNstar\tbound\tok"
    assert all(line.endswith("ok") for line in lines[1:])


def _flat_rows(v):
    """(center, R, r, Nstar, bound, ok) per radius pair and deepest
    center of the verification `v`, pair by pair."""
    return [(x, row.R, row.r, n, (row.bound_num, row.bound_den),
             n * row.bound_den >= row.bound_num)
            for row in v.rows for x, n in zip(v.leaves, row.n_stars)]


def _flat_tsv(v):
    """The TSV with every (center, radius pair) line formatted on its
    own."""
    return "".join(["x\tR\tr\tNstar\tbound\tok\n"] + [
        f"{','.join(map(str, x))}\t{R}\t{r}\t{n}\t{num}/{den}"
        f"\t{'ok' if ok else 'FAIL'}\n"
        for x, R, r, n, (num, den), ok in _flat_rows(v)])


@pytest.mark.parametrize("source, params", [
    (CubeTree.full(4, 1, 6), LowerParams(Fraction(1, 2), 4, 2)),
    (CubeTree.full(5, 1, 4), LowerParams(Fraction(2, 5), 5, 1, R0=Fraction(
        1, 2))),
    (CubeTree.full(3, 2, 4), LowerParams(Fraction(1, 2), 3, 1))])
def test_tsv_prints_one_line_per_center_and_radius_pair(source, params):
    v = verify_lower_bounds(construct_subset_lower(source, params))
    assert v.to_tsv() == _flat_tsv(v)


def test_invariant_checker_catches_violations():
    params = LowerParams(Fraction(1, 2), 2, 1)
    bad = BallTree(params, 1)
    bad.centers[()] = (Fraction(0),)
    bad.centers[(1,)] = (Fraction(1, 8),)   # anchor should equal parent
    bad.centers[(2,)] = (Fraction(1, 5),)
    v = verify_lower_bounds(bad)
    assert not v.invariants_ok
    assert any("anchor" in f for f in v.failures)


def _pairwise_failures(tree, apart, nested, lattice):
    """`_check_invariants` as one comparison per pair of centers."""
    failures = []
    for k in range(1, tree.params.depth + 1):
        words = tree.level_words(k)
        centers = [lattice[w] for w in words]
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                if not geometry.dist_inf(centers[i], centers[j]) > apart[k]:
                    failures.append(
                        f"level {k}: balls at {words[i]} and {words[j]} "
                        f"intersect")
        for w in words:
            if geometry.dist_inf(lattice[w], lattice[w[:-1]]) > \
                    nested[k - 1]:
                failures.append(f"ball at {w} escapes its parent")
            if w[-1] == 1 and lattice[w] != lattice[w[:-1]]:
                failures.append(f"anchor violated at {w}")
    return failures


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2), st.integers(1, 3), st.integers(2, 4),
       st.integers(0, 10**6), st.integers(1, 40))
def test_invariant_check_matches_the_pairwise_loop(dim, depth, M, seed,
                                                   span):
    # random centers on a small grid, so that balls often intersect,
    # escape or move their anchor
    rng = random.Random(seed)
    tree = BallTree(LowerParams(Fraction(1, 2), M, depth), dim)
    words = [w for k in range(depth + 1)
             for w in itertools.product(range(1, M + 1), repeat=k)]
    lattice = {w: tuple(rng.randrange(span) for _ in range(dim))
               for w in words}
    for w in words:
        if w and w[-1] == 1 and rng.random() < 0.8:
            lattice[w] = lattice[w[:-1]]
        tree.centers[w] = tuple(map(Fraction, lattice[w]))
    apart = [rng.randrange(span // 2 + 1) for _ in range(depth + 1)]
    nested = [rng.randrange(span) for _ in range(depth)]
    assert extract_lower._check_invariants(tree, apart, nested, lattice) \
        == _pairwise_failures(tree, apart, nested, lattice)


def test_source_check_boundary_is_exact():
    # four of the sixteen depth-2 cubes of base 4: the last-scale count
    # is 4 = 4^(2 (alpha+eps)) for alpha+eps = 1/2, exactly at the bound
    params = LowerParams(Fraction(1, 2), 2, 0)
    leaves = [((i,), (0,)) for i in range(4)]
    at_bound = CubeTree.from_leaves(4, 1, 2, leaves)
    assert construct_subset_lower(at_bound, params).leaf_points == [
        (Fraction(0),)]
    one_fewer = CubeTree.from_leaves(4, 1, 2, leaves[:3])
    with pytest.raises(DomainError, match="below alpha\\+eps=0.5"):
        construct_subset_lower(one_fewer, params)


# -- brute-force reference: LowerParams.radius and exact predicates --


def _in_ball(y, c, R) -> bool:
    return _at_most(geometry.dist_inf(y, c), R)


def _balls_disjoint(x, y, r) -> bool:
    return not _at_most(geometry.dist_inf(x, y) / 2, r)


def _ball_in_ball(y, r, c, R) -> bool:
    return _at_most(geometry.dist_inf(y, c), R, r)


def _reference_points(tree, params):
    r_min = params.radius(params.depth)
    w = 1
    while w < tree.depth and not _at_most(Fraction(2, tree.base**w), r_min):
        w += 1
    while w < tree.depth and tree.descendant_count(tree.root, w) < 4 * (
            params.M + 3**tree.dim):
        w += 1
    sub = tree.subtree((), w) if w < tree.depth else tree
    D = sub.base**sub.depth
    return [tuple(Fraction(v, D) for v in c) for c in leaf_corners(sub)]


def _reference_greedy(cands, r):
    kept = []
    for p in cands:
        if all(_balls_disjoint(p, q, r) for q in kept):
            kept.append(p)
    return kept


def _reference_max_packing(cands, r):
    for size in range(len(cands), 0, -1):
        for combo in itertools.combinations(cands, size):
            if all(_balls_disjoint(a, b, r)
                   for a, b in itertools.combinations(combo, 2)):
                return size
    return 0


def _reference_lower(tree, params):
    """(centers, rows, failures), or the error text."""
    M, d = params.M, tree.dim
    pts = sorted(_reference_points(tree, params))
    centers = {(): pts[0]}
    for k in range(params.depth):
        R, r = params.radius(k), params.radius(k + 1)
        for word in sorted(w for w in centers if len(w) == k):
            x = centers[word]
            local = [p for p in pts if _in_ball(p, x, R)]
            where = f"at word {word or '(root)'}: insufficient packing"
            achieved = len(_reference_greedy(local, r))
            if achieved < M + 3**d:
                return f"{where}: need >= {M + 3**d}, achieved {achieved}"
            chosen = [x]
            for p in local:
                if len(chosen) < M and p != x and _ball_in_ball(
                        p, r, x, R) and all(_balls_disjoint(p, q, r)
                                            for q in chosen):
                    chosen.append(p)
            if len(chosen) < M:
                return f"{where}: selected only {len(chosen)} of {M}"
            for i, c in enumerate(chosen, start=1):
                centers[word + (i,)] = c
    failures = []
    for k in range(1, params.depth + 1):
        words = sorted(w for w in centers if len(w) == k)
        for a, b in itertools.combinations(words, 2):
            if not _balls_disjoint(centers[a], centers[b],
                                           params.radius(k)):
                failures.append((a, b))
        for w in words:
            if not _ball_in_ball(centers[w], params.radius(k),
                                         centers[w[:-1]],
                                         params.radius(k - 1)):
                failures.append(w)
    leaves = [centers[w] for w in sorted(centers)
              if len(w) == params.depth]
    rows = []
    for j in range(params.depth):
        for k in range(1, params.depth - j + 1):
            R, r = params.radius(j), params.radius(j + k)
            for x in leaves:
                cands = sorted(q for q in leaves
                               if _in_ball(q, x, R))
                if d == 1:
                    n_star = len(_reference_greedy(cands, r))
                elif len(cands) <= geometry.EXACT_PACKING_LIMIT:
                    n_star = _reference_max_packing(cands, r)
                else:
                    n_star = len(_reference_greedy(cands, r))
                rows.append((x, str(R), str(r), n_star,
                             n_star * (M + 1) >= M**k))
    return centers, rows, failures


def _random_source(seed, base, dim, depth, keep):
    rng = random.Random(seed)
    keys = list(itertools.product(range(base), repeat=dim))
    paths = [p for p in itertools.product(keys, repeat=depth)
             if rng.random() < keep]
    return CubeTree.from_leaves(base, dim, depth,
                                paths or [(keys[0],) * depth])


def _assert_matches_reference(source, params):
    expected = _reference_lower(source, params)
    try:
        with _unchecked():
            bt = construct_subset_lower(source, params)
    except DomainError as exc:
        assert str(exc) == expected
        return
    assert not isinstance(expected, str), expected
    centers, rows, failures = expected
    assert bt.centers == centers
    v = verify_lower_bounds(bt)
    assert [(x, str(R), str(r), n, ok)
            for x, R, r, n, _, ok in _flat_rows(v)] == rows
    assert v.invariants_ok == (not failures)


# (alpha, M): lambda = M^(-1/alpha) is 1/16, 1/8, 1/9 or 1/16 for the
# rational rows, 3^(-5/2), 2^(-7/2) and 5^(-5/2) for the irrational ones
LATTICE_1D = [(Fraction(1, 2), 4), (Fraction(1, 3), 2), (Fraction(2, 5), 3),
              (Fraction(2, 7), 2), (Fraction(2, 5), 5)]
LATTICE_2D = [(Fraction(1, 2), 3), (Fraction(1, 4), 2), (Fraction(2, 7), 2)]
RADII = [Fraction(1), Fraction(3, 4), Fraction(5, 3)]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(LATTICE_1D),
       st.integers(2, 4), st.integers(3, 5), st.integers(1, 2),
       st.sampled_from(RADII), st.sampled_from([1.0, 0.8, 0.6]))
def test_lattice_construction_matches_reference_1d(seed, am, base, depth,
                                                   levels, R0, keep):
    while base**depth > 256:
        depth -= 1
    source = _random_source(seed, base, 1, depth, keep)
    alpha, M = am
    _assert_matches_reference(source, LowerParams(alpha, M, levels,
                                                  R0=R0))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(LATTICE_2D),
       st.integers(3, 4), st.sampled_from(RADII),
       st.sampled_from([1.0, 0.8]))
def test_lattice_construction_matches_reference_2d(seed, am, depth, R0,
                                                   keep):
    source = _random_source(seed, 2, 2, depth, keep)
    alpha, M = am
    _assert_matches_reference(source, LowerParams(alpha, M, 1, R0=R0))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(2, 1, 6), (3, 1, 4),
                                                (2, 2, 3), (3, 2, 2)]),
       st.booleans(), st.integers(1, 3),
       st.sampled_from([0.1, 0.3, 0.6, 0.9, 1.0]),
       st.sampled_from(sorted({Fraction(p, q) for q in range(1, 7)
                               for p in range(1, q + 1)})),
       st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2),
                        Fraction(1)]),
       st.integers(0, 2))
def test_source_is_refused_exactly_when_its_leaves_miss_the_bound(
        seed, shape, holed, max_children, keep, alpha, eps, levels):
    base, dim, depth = shape
    tree = (_random_source(seed, base, dim, depth, keep)
            if holed else random_branching_tree(
                base, dim, depth, min(max_children, base**dim), seed))
    target = alpha + eps
    refused = (f"source lower estimate "
               f"{_log_ratio(tree.leaf_count, depth, base):.6f} "
               f"below alpha+eps={float(target):.6f}")
    try:
        construct_subset_lower(tree, LowerParams(alpha, 2, levels, eps))
    except DomainError as exc:
        message = str(exc)
    else:
        message = None
    if power_cmp(base, depth * target, tree.leaf_count) <= 0:
        assert message is None or not message.startswith("source")
    else:
        assert message == refused


def _draws_counted(drawn: list):
    """A context in which `CubeTree.level_counts` appends each count it
    yields to `drawn`."""
    real = CubeTree.level_counts

    def counted(tree):
        for count in real(tree):
            drawn.append(count)
            yield count
    return mock.patch.object(CubeTree, "level_counts", counted)


@pytest.mark.parametrize("tree, params, deepest", [
    # like the rational case of the lower_balls benchmark: a base-4
    # depth-7 tree with about a quarter of its leaves removed.  Level 4's
    # 256 cubes reach 4^(7/2); R_3 = 2^-12 fixes w = 7, the last level,
    # which needs no count
    (_random_source(601, 4, 1, 7, 0.75),
     LowerParams(Fraction(1, 2), 4, 3), 4),
    # R_4 = 2^-16 fixes w = 9, whose 4^9 cubes are enough; the bound
    # 4^10 is first reached at level 10
    (CubeTree.full(4, 1, 20), LowerParams(Fraction(1, 2), 4, 4), 10),
    # the bound 3^(12/5) < 16 is reached at level 4; R_2 = 2^-10 fixes
    # w = 7, whose 2^7 cubes are enough
    (digit_cantor(3, 1, [0, 2], 12), LowerParams(Fraction(1, 5), 2, 2), 7)])
def test_construction_draws_counts_only_down_to_the_deciding_level(
        tree, params, deepest):
    counts = list(tree.level_counts())
    bound = tree.depth * (params.alpha + params.eps)
    passed = next(level for level, count in enumerate(counts)
                  if power_cmp(tree.base, bound, count) <= 0)
    w = _tree_lattice(tree, params, counts)
    assert deepest == max(passed, w if w < tree.depth else 0)
    drawn = []
    with _draws_counted(drawn):
        bt = construct_subset_lower(tree, params)
    assert drawn == counts[:deepest + 1]
    assert len(bt.leaf_points) == params.M**params.depth


def _per_row_verification(tree):
    """(rows, failures, flags) of `verify_lower_bounds` with each row's
    ball copied by `ball_points` and packed on its own: a row is
    (center, j, j + k, Nstar, ok)."""
    p, M = tree.params, tree.params.M
    D, points = extract_lower._lattice(list(tree.centers.values()))
    lattice = dict(zip(tree.centers, points))
    inside, apart, nested = extract_lower._thresholds(p, D)
    leaf_words = tree.level_words(p.depth)
    ordered = sorted(lattice[w] for w in leaf_words)
    rows = []
    for j in range(p.depth):
        for k in range(1, p.depth - j + 1):
            lv = geometry.Level(inside[j], apart[j + k])
            for w in leaf_words:
                x = lattice[w]
                local = geometry.ball_points(ordered, x, lv.inside)
                if tree.dim == 1 or \
                        len(local) <= geometry.EXACT_PACKING_LIMIT:
                    n_star = geometry.exact_packing(local, x, lv)
                else:
                    n_star = len(geometry.greedy_packing(local, x, lv))
                rows.append((tree.centers[w], j, j + k, n_star,
                             n_star * (M + 1) >= M**k))
    cardinality_ok = all(len(tree.level_words(k)) == M**k
                         for k in range(p.depth + 1))
    failures = _pairwise_failures(tree, apart, nested, lattice)
    return rows, failures, (not failures, cardinality_ok, p.R0 == 1)


def _grid_ball_tree(rng, params, dim, D):
    """Random centers on the lattice of spacing 1/D: a child moves from
    its parent by up to the parent's radius, or by up to about one and
    a half times its own ball's diameter, on each axis, or keeps its
    center (most anchors do), and a few words are missing.  So balls are
    partial at every scale and repeat, greedy packings in d = 2 can fall
    short of the maximum, and the disjointness, nesting, anchor and
    cardinality checks often fail."""
    inside, apart, _ = extract_lower._thresholds(params, D)
    lattice = {(): tuple(rng.randrange(D) for _ in range(dim))}
    for k in range(1, params.depth + 1):
        for w in itertools.product(range(1, params.M + 1), repeat=k):
            parent = lattice.get(w[:-1])
            if parent is None or rng.random() < 0.05:
                continue
            move = rng.choice([inside[k - 1], apart[k] * 3 // 2])
            lattice[w] = parent if w[-1] == 1 and rng.random() < 0.8 \
                else tuple(v + rng.randint(-move, move) for v in parent)
    tree = BallTree(params, dim)
    tree.centers = {w: tuple(Fraction(v, D) for v in x)
                    for w, x in lattice.items()}
    return tree


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(2, 1), (3, 1), (2, 2)]),
       st.sampled_from(LATTICE_1D + LATTICE_2D), st.integers(1, 3),
       st.sampled_from(RADII + [Fraction(1, 3)]), st.integers(2, 5000))
def test_keyed_verifier_matches_the_per_row_loop(seed, shape, am, levels, R0,
                                                 D):
    # d = 2 trees reach 27 leaves, past EXACT_PACKING_LIMIT
    base, dim = shape
    alpha, M = am
    if dim == 2:
        levels = min(levels, 3 if M <= 3 else 2)
    params = LowerParams(alpha, M, levels, R0=R0)
    rng = random.Random(seed)
    trees = [_grid_ball_tree(rng, params, dim, D) for _ in range(3)]
    source = _random_source(seed, base, dim, 6 if dim == 1 else 3, 0.7)
    try:
        with _unchecked():
            trees.append(construct_subset_lower(source, params))
    except DomainError:
        pass
    radii = [params.radius(j) for j in range(levels + 1)]
    for tree in trees:
        v = verify_lower_bounds(tree)
        rows, failures, flags = _per_row_verification(tree)
        assert [(x, R, r, n, ok) for x, R, r, n, _, ok in _flat_rows(v)] \
            == [(x, radii[j], radii[i], n, ok) for x, j, i, n, ok in rows]
        assert v.failures == failures
        assert (v.invariants_ok, v.cardinality_ok, v.box_ratio_exact) \
            == flags


@pytest.mark.parametrize("dim, am, levels, R0, D", [
    (1, (Fraction(1, 2), 4), 2, Fraction(1), 400),
    (1, (Fraction(2, 7), 2), 3, Fraction(1, 3), 500),
    (2, (Fraction(1, 2), 3), 2, Fraction(5, 3), 60)])
def test_tsv_of_random_ball_trees_prints_their_fail_lines(dim, am, levels,
                                                          R0, D):
    params = LowerParams(*am, levels, R0=R0)
    rng = random.Random(D)
    fails = 0
    for _ in range(20):
        v = verify_lower_bounds(_grid_ball_tree(rng, params, dim, D))
        text = v.to_tsv()
        assert text == _flat_tsv(v)
        # a row is ok when none of its lines fails
        lines, m = text.splitlines()[1:], len(v.leaves)
        assert [row.ok for row in v.rows] == [
            all(line.endswith("\tok") for line in lines[i * m:(i + 1) * m])
            for i in range(len(v.rows))]
        assert v.ok == (v.invariants_ok and v.cardinality_ok
                        and "\tFAIL\n" not in text)
        fails += text.count("\tFAIL\n")
    assert fails


def _rebuilt_lattice(tree, params):
    """The lattice of `_tree_lattice` as one `descendant_count` walk per
    candidate level and a rebuilt truncation of the tree."""
    c, M, alpha = params.R0, params.M, Fraction(params.alpha)
    w = 1
    while w < tree.depth and floor_lambda(c * tree.base**w, M, alpha,
                                          params.depth) < 2:
        w += 1
    while w < tree.depth and tree.descendant_count(tree.root, w) < 4 * (
            params.M + 3**tree.dim):
        w += 1
    w = min(w, tree.depth)
    sub = tree.subtree((), w) if w < tree.depth else tree
    return tree.base**w, leaf_corners(sub)


def _deep_sparse_tree(seed, base, dim, head, tail):
    """A depth-6 random tree (at most 64 leaves) below a random chain of
    `head` keys, each of its leaves continued by `tail` random keys."""
    rng = random.Random(seed)
    keys = list(itertools.product(range(base), repeat=dim))
    chain = tuple(rng.choice(keys) for _ in range(head))
    return CubeTree.from_leaves(base, dim, head + 6 + tail, [
        chain + path + tuple(rng.choice(keys) for _ in range(tail))
        for path in random_branching_tree(base, dim, 6, 2,
                                          seed).iter_leaf_paths()])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(2, 1), (3, 1), (2, 2)]),
       st.integers(0, 300), st.integers(0, 60),
       st.sampled_from(LATTICE_1D + LATTICE_2D), st.integers(0, 3),
       st.sampled_from(RADII))
def test_tree_lattice_matches_rebuilt_truncation(seed, shape, head, tail,
                                                 am, levels, R0):
    tree = _deep_sparse_tree(seed, *shape, head, tail)
    alpha, M = am
    params = LowerParams(alpha, M, levels, R0=R0)
    w = _tree_lattice(tree, params, list(tree.level_counts()))
    assert (tree.base**w, leaf_corners(tree, w)) == _rebuilt_lattice(tree,
                                                                     params)


def _listed_lower(tree, params):
    """The construction on a listed lattice, as it was before d = 1 trees
    were swept without listing: every corner of the rebuilt truncation,
    the whole greedy packing of the ball as the feasibility count, and
    the d = 1 picks by bisection of the ball's list.  The BallTree, or
    the error text."""
    D, pts = _rebuilt_lattice(tree, params)
    inside, apart, nested = extract_lower._thresholds(params, D)
    M, d = params.M, tree.dim
    centers, words = {(): pts[0]}, [()]
    for k in range(params.depth):
        lv = geometry.Level(inside[k], apart[k + 1], nested[k])
        next_words = []
        for word in words:
            x = centers[word]
            local = geometry.ball_points(pts, x, lv.inside)
            where = f"at word {word or '(root)'}: insufficient packing"
            achieved = len(geometry.greedy_packing(local, x, lv))
            if d == 1:
                chosen = _listed_pick_1d(local, x, lv, M)
            else:
                chosen = geometry.greedy_scan(
                    geometry.ball_points(local, x, lv.nested), lv.apart,
                    [x], M)
            if achieved < M + 3**d:
                return f"{where}: need >= {M + 3**d}, achieved {achieved}"
            if len(chosen) < M:
                return f"{where}: selected only {len(chosen)} of {M}"
            for i, c in enumerate(chosen, start=1):
                centers[word + (i,)] = c
                next_words.append(word + (i,))
        words = next_words
    bt = BallTree(params, d)
    bt.centers = {w: tuple(Fraction(v, D) for v in x)
                  for w, x in centers.items()}
    return bt


def _listed_pick_1d(pts, center, lv, M):
    chosen, c, key = [center], center[0], itemgetter(0)
    i = bisect_left(pts, c - lv.nested, key=key)
    hi = bisect_right(pts, c + lv.nested, i, key=key)
    while len(chosen) < M and i < hi:
        if abs(pts[i][0] - c) <= lv.apart:
            i = bisect_right(pts, c + lv.apart, i, hi, key=key)
            if i == hi:
                break
        chosen.append(pts[i])
        i = bisect_right(pts, pts[i][0] + lv.apart, i, hi, key=key)
    return chosen


def _outputs(construct, tree, params):
    """(centers, verification TSV, failures), or the error text."""
    try:
        with _unchecked():
            bt = construct(tree, params)
    except DomainError as exc:
        return str(exc)
    if isinstance(bt, str):
        return bt
    v = verify_lower_bounds(bt)
    return bt.centers, v.to_tsv(), v.failures


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(2, 1), (3, 1), (5, 1),
                                               (2, 2)]),
       st.booleans(), st.sampled_from(LATTICE_1D + LATTICE_2D),
       st.integers(0, 3), st.sampled_from(RADII + [Fraction(1, 3)]),
       st.sampled_from([1.0, 0.8, 0.5]))
def test_tree_constructions_match_the_listed_lattice(seed, shape, deep, am,
                                                     levels, R0, keep):
    base, dim = shape
    if deep:
        tree = _deep_sparse_tree(seed, base, dim, seed % 40, seed % 7)
    else:
        depth = 3 if dim == 2 else {2: 7, 3: 5, 5: 4}[base]
        tree = _random_source(seed, base, dim, depth, keep)
    alpha, M = am
    params = LowerParams(alpha, M, levels if dim == 1 else min(levels, 1),
                         R0=R0)
    assert _outputs(construct_subset_lower, tree, params) == _outputs(
        _listed_lower, tree, params)


@pytest.mark.parametrize("tree, params, count", [
    (CubeTree.full(4, 1, 20), LowerParams(Fraction(1, 2), 4, 5), 1365),
    (CubeTree.full(2, 1, 40), LowerParams(Fraction(1, 2), 16, 3), 4369)])
def test_deep_1d_trees_build_past_the_listing_limit(tree, params, count):
    # level w holds 4^11 and 2^35 cubes, past MAX_LEAF_ENUM
    w = _tree_lattice(tree, params, list(tree.level_counts()))
    assert tree.base**w > 2_000_000
    bt = construct_subset_lower(tree, params)
    assert len(bt.centers) == count
    D, points = extract_lower._lattice(list(bt.centers.values()))
    _, apart, nested = extract_lower._thresholds(params, D)
    assert extract_lower._check_invariants(
        bt, apart, nested, dict(zip(bt.centers, points))) == []
    # one row per radius pair, each with one count per leaf: 15 rows of
    # 1,024 counts and 6 rows of 4,096
    n, M = params.depth, params.M
    v = verify_lower_bounds(bt)
    assert v.ok and len(v.rows) == n * (n + 1) // 2
    assert all(len(row.n_stars) == M**n for row in v.rows)


def test_tree_lattice_refuses_to_enumerate_too_many_cubes():
    # d >= 2 still lists its lattice: R_10 = 2^-10 first fits 2 / 2^w at
    # w = 11, the last level, which holds 4^11 cubes
    with pytest.raises(DomainError, match=(
            "^leaf enumeration of 4194304 exceeds 2000000$")):
        construct_subset_lower(CubeTree.full(2, 2, 11),
                               LowerParams(Fraction(1), 2, 10))


def _refuse_listing(*args, **kwargs):
    raise AssertionError("a d = 1 construction listed the tree's cubes")


def test_1d_tree_constructions_list_no_cube():
    half = Fraction(1, 2)
    runs = [(CubeTree.full(4, 1, 20), LowerParams(half, 4, 4), 341),
            (CubeTree.full(2, 1, 40), LowerParams(half, 16, 2), 273),
            (digit_cantor(3, 1, [0, 2], 12), LowerParams(Fraction(1, 5), 2,
                                                         2), 7),
            (random_branching_tree(4, 1, 7, 3, 5), LowerParams(half, 4, 2),
             "insufficient packing"),
            (digit_cantor(3, 1, [0, 2], 12), LowerParams(half, 2, 4),
             "insufficient packing")]
    with mock.patch.object(CubeTree, "leaf_values", _refuse_listing):
        for tree, params, want in runs:
            if isinstance(want, str):
                with pytest.raises(DomainError, match=want):
                    construct_subset_lower(tree, params)
            else:
                assert len(construct_subset_lower(tree, params).centers) \
                    == want

