import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from badicdim import geometry
from badicdim.core import CubeTree, DomainError, PointSet, \
    leaf_representatives
from badicdim.extract_lower import (BallTree, LowerParams,
                                    construct_subset_lower,
                                    select_packing_children,
                                    verify_lower_bounds)
from badicdim.generators import digit_cantor


def test_params_validation_and_lambda():
    p = LowerParams(alpha=Fraction(1, 2), M=4, depth=3)
    assert p.lam == Fraction(1, 16)  # lambda^alpha * M = 1
    assert p.radius(2) == Fraction(1, 256)
    with pytest.raises(DomainError):
        LowerParams(alpha=Fraction(3, 2), M=4, depth=3)
    with pytest.raises(DomainError):
        LowerParams(alpha=Fraction(1, 2), M=1, depth=3)
    with pytest.raises(DomainError):
        LowerParams(alpha=Fraction(1, 2), M=4, depth=3, R0=Fraction(0))


def test_lambda_irrational_case_is_exact():
    import sympy
    # alpha = 2/3, M = 2: lambda = 2^(-3/2), kept as an exact power
    p = LowerParams(alpha=Fraction(2, 3), M=2, depth=1)
    lam = p.lam
    assert sympy.simplify(lam ** sympy.Rational(2, 3) * 2 - 1) == 0
    # exact ordering still works on the radii
    assert p.radius(1) < p.radius(0)


def test_select_packing_children_example():
    pts = [(Fraction(i, 15),) for i in range(16)]
    chosen = select_packing_children(pts, (Fraction(0),), Fraction(1),
                                     Fraction(1, 64), 4)
    assert len(chosen) == 4
    assert chosen[0] == (Fraction(0),)


def test_select_packing_children_m1():
    pts = [(Fraction(i, 15),) for i in range(16)]
    chosen = select_packing_children(pts, (Fraction(0),), Fraction(1),
                                     Fraction(1, 64), 1)
    assert chosen == [(Fraction(0),)]


def test_select_packing_children_sparse_error():
    pts = [(Fraction(0),), (Fraction(1, 2),), (Fraction(1),)]
    with pytest.raises(DomainError, match="achieved 3"):
        select_packing_children(pts, (Fraction(0),), Fraction(2),
                                Fraction(1, 64), 4)


def test_construct_depth0():
    ps = PointSet.of(2, 1, [(Fraction(1, 4),), (Fraction(3, 4),)])
    bt = construct_subset_lower(ps, LowerParams(Fraction(1, 2), 2, 0))
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
    assert params.lam == Fraction(1, 4)
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
    with pytest.raises(DomainError, match="^empty report has no headline$"):
        construct_subset_lower(CubeTree.full(2, 1, 0),
                               LowerParams(Fraction(1, 2), 2, 0))


def test_construct_failure_names_word():
    ps = PointSet.of(4, 1, [(Fraction(i, 16),) for i in range(8)])
    with pytest.raises(DomainError, match="at word"):
        construct_subset_lower(ps, LowerParams(Fraction(1, 2), 4, 3))


def test_report_tsv_shape():
    E = CubeTree.full(4, 1, 6)
    bt = construct_subset_lower(E, LowerParams(Fraction(1, 2), 4, 2))
    text = verify_lower_bounds(bt).to_tsv()
    lines = text.splitlines()
    assert lines[0] == "x\tR\tr\tNstar\tbound\tok"
    assert all(line.endswith("ok") for line in lines[1:])


def test_invariant_checker_catches_violations():
    params = LowerParams(Fraction(1, 2), 2, 1)
    bad = BallTree(params, 1)
    bad.centers[()] = (Fraction(0),)
    bad.centers[(1,)] = (Fraction(1, 8),)   # anchor should equal parent
    bad.centers[(2,)] = (Fraction(1, 5),)
    v = verify_lower_bounds(bad)
    assert not v.invariants_ok
    assert any("anchor" in f for f in v.failures)


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


# -- brute-force reference: Fraction predicates and LowerParams.radius --


def _reference_points(tree, params):
    r_min = params.radius(params.depth)
    w = 1
    while w < tree.depth and not Fraction(2, tree.base**w) <= r_min:
        w += 1
    while w < tree.depth and tree.count_at_depth(w) < 4 * (
            params.M + 3**tree.dim):
        w += 1
    sub = tree.subtree((), w) if w < tree.depth else tree
    return list(leaf_representatives(sub).points)


def _reference_greedy(cands, r):
    kept = []
    for p in cands:
        if all(geometry.balls_disjoint(p, q, r) for q in kept):
            kept.append(p)
    return kept


def _reference_max_packing(cands, r):
    for size in range(len(cands), 0, -1):
        for combo in itertools.combinations(cands, size):
            if all(geometry.balls_disjoint(a, b, r)
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
            local = [p for p in pts if geometry.in_ball(p, x, R)]
            where = f"at word {word or '(root)'}: insufficient packing"
            achieved = len(_reference_greedy(local, r))
            if achieved < M + 3**d:
                return f"{where}: need >= {M + 3**d}, achieved {achieved}"
            chosen = [x]
            for p in local:
                if len(chosen) < M and p != x and geometry.ball_in_ball(
                        p, r, x, R) and all(geometry.balls_disjoint(p, q, r)
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
            if not geometry.balls_disjoint(centers[a], centers[b],
                                           params.radius(k)):
                failures.append((a, b))
        for w in words:
            if not geometry.ball_in_ball(centers[w], params.radius(k),
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
                               if geometry.in_ball(q, x, R))
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
        bt = construct_subset_lower(source, params,
                                    check_source_estimate=False)
    except DomainError as exc:
        assert str(exc) == expected
        return
    assert not isinstance(expected, str), expected
    centers, rows, failures = expected
    assert bt.centers == centers
    v = verify_lower_bounds(bt)
    assert [(row.center, str(row.R), str(row.r), row.n_star, row.ok)
            for row in v.rows] == rows
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
