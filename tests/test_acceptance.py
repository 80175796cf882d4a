"""Acceptance gate: one test per criterion, at the stated tolerances."""

import math
import random
import statistics
import time
from fractions import Fraction

import pytest

from badicdim import geometry
from badicdim.core import (CubeTree, Window, WindowedSet, corners_tree,
                           leaf_corners)
from badicdim.estimators import (h_star, star_dimension_report,
                                 verify_cover_pack_sandwich)
from badicdim.exactmath import power_cmp
from badicdim.extract_assouad import (PruneParams, check_gap_condition,
                                      construct_subset_assouad,
                                      construct_subset_assouad_global,
                                      prune, sandwich_assemble)
from badicdim.extract_lower import (LowerParams, construct_subset_lower,
                                    verify_lower_bounds)
from badicdim.generators import (digit_cantor, full_cube, integer_cantor,
                                 lattice_window, one_over_k,
                                 oracle_exact_hstar, prop5_union,
                                 random_branching_tree)

LOG2_3 = math.log(2) / math.log(3)


def test_criterion_1_prune_bound_200_trees():
    t0 = time.time()
    rng = random.Random(0)
    for trial in range(200):
        M = rng.choice([2, 3, 4])
        depth = rng.randint(2, 6)
        tree = random_branching_tree(M, 1, depth, M, rng.randrange(1 << 30))
        max_kids = max((len(n.children)
                        for layer in tree.levels() for n in layer),
                       default=1)
        # smallest eps (denominator 6) making every N <= max_kids
        # admissible under the child-count hypothesis with s = 0
        num = 0
        while power_cmp(M, Fraction(num, 6), max_kids) < 0:
            num += 1
        eps = Fraction(num, 6)
        for N in range(1, max_kids + 1):
            out = prune(tree, PruneParams(N, Fraction(0), eps))
            assert power_cmp(M, -depth * eps, Fraction(
                out.leaf_count, N**depth)) <= 0, (M, depth, N, trial)
            for layer in out.levels():
                for node in layer:
                    assert len(node.children) <= N, (M, depth, N, trial)
    assert time.time() - t0 < 30.0


def test_criterion_2_random_prune_expectation_1000():
    tree = full_cube(4, 1, 3)
    N, eps = 2, Fraction(0)
    counts = []
    for seed in range(1000):
        out = prune(tree, PruneParams(N, Fraction(1), eps,
                                      strategy="random", seed=seed))
        counts.append(out.leaf_count)
    bound = N**3 * 4.0 ** (-3 * float(eps))
    mean = statistics.fmean(counts)
    se = (statistics.stdev(counts) / math.sqrt(len(counts))
          if len(set(counts)) > 1 else 0.0)
    assert mean >= bound - 3 * se


def test_criterion_3_sandwich_500_triples():
    rng = random.Random(1)
    cantor16 = corners_tree(3, 1, 3**6, leaf_corners(
        digit_cantor(3, 1, [0, 2], 6))[:16])
    samples_per_set = 250
    for tree in (cantor16, None):
        for i in range(samples_per_set):
            if tree is None:
                use = corners_tree(2, 1, 64, [
                    (rng.randrange(0, 64),)
                    for _ in range(rng.randrange(2, 20))])
            else:
                use = tree
            pts = leaf_corners(use)
            center = pts[rng.randrange(len(pts))]
            R = Fraction(rng.randrange(8, 64), 64)
            r = R / rng.randrange(4, 16)
            rows = verify_cover_pack_sandwich(use, [(center, R, r)])
            assert all(row.ok for row in rows), (center, R, r)
            assert all(row.method == "exact" for row in rows)


def test_criterion_4_exact_star_values():
    for depth in range(1, 11):
        rep = star_dimension_report(digit_cantor(3, 1, [0, 2], depth))
        assert abs(rep.headline - LOG2_3) < 1e-6, depth
    for d, depth in ((1, 8), (2, 5), (3, 3)):
        rep = star_dimension_report(CubeTree.full(2, d, depth))
        assert rep.headline == float(d)
    for d, m in ((1, 6), (2, 4)):
        ws = lattice_window(2, d, m)
        assert star_dimension_report(ws, "local",
                                     k_max=m - 2).headline == 0.0
        assert star_dimension_report(ws, "global",
                                     k_max=m).headline == float(d)


def test_criterion_5_target_dimension_extraction():
    E = CubeTree.full(2, 1, 30).rebase(4)  # M = 16
    eps = Fraction(1, 4)
    for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        t0 = time.time()
        trace = construct_subset_assouad(E, alpha, eps, 3)
        assert time.time() - t0 < 60.0
        assert trace.delta < 0.1
        lo = float(alpha - eps) - trace.delta
        hi = float(alpha + eps) + trace.delta
        assert lo <= trace.headline <= hi, (alpha, trace.headline)


def test_criterion_6_sandwich_ladder_l2():
    E = CubeTree.full(2, 1, 30)
    res = sandwich_assemble(E, 0.5, 2)
    a1, a2 = res.a_trees
    b1, b2 = res.b_trees
    assert a2.contains_tree(a1)
    assert b2.contains_tree(a2)
    assert b1.contains_tree(b2)
    # fixed ladder sequences: a_n in (alpha(1-2^-n) prev, next], b_n in
    # [next, prev) descending toward alpha from above
    assert 0.25 < res.a_stages[0].headline <= 0.375
    assert 0.375 < res.a_stages[1].headline <= 0.4375
    assert 0.75 <= res.b_stages[0].headline < 1.0
    assert 0.625 <= res.b_stages[1].headline < 0.75


def test_criterion_7_global_construction():
    w1 = integer_cantor(16, 1, 2, list(range(16)), chain=3).windows[0]
    w2 = integer_cantor(16, 1, 3, list(range(16)), chain=3).windows[0]
    E = WindowedSet(16, 1, [Window((0,), 2, w1.tree),
                            Window((10_000,), 3, w2.tree)])
    alpha, eps = Fraction(1, 2), Fraction(1, 4)
    out = construct_subset_assouad_global(E, alpha, eps)
    assert check_gap_condition(out.windows, alpha + eps, 16)
    rep = star_dimension_report(out, "global", k_max=3)
    delta = math.log(2) / (3 * math.log(16))
    assert float(alpha - eps) - delta <= rep.headline \
        <= float(alpha + eps) + delta


def test_criterion_8_lower_construction():
    E = CubeTree.full(4, 1, 12)
    params = LowerParams(Fraction(1, 2), 4, 3)
    ball_tree = construct_subset_lower(E, params)
    assert len(ball_tree.leaf_points) == 64
    v = verify_lower_bounds(ball_tree)
    assert v.invariants_ok
    assert v.cardinality_ok
    assert all(row.ok for row in v.rows)
    assert v.box_ratio == Fraction(1, 2) and v.box_ratio_exact


def test_criterion_9_prop5_realization():
    ws = prop5_union(4, [0, 2], [0, 1, 2], m=4, local_depth=8)
    loc = star_dimension_report(ws, "local", k_max=8).headline
    glo = star_dimension_report(ws, "global", k_max=4).headline
    assert abs(loc - 0.5) < 1e-6
    assert abs(glo - math.log(3) / math.log(4)) < 1e-6
    assert loc < glo


def test_criterion_10_oracle_equivalence():
    trees = [
        digit_cantor(3, 1, [0, 2], 6),
        full_cube(2, 2, 4),
        full_cube(3, 1, 6),
        lattice_window(2, 1, 5).windows[0].tree,
        integer_cantor(4, 1, 3, [0, 1]).windows[0].tree,
        one_over_k(16, 8),
        one_over_k(64, 10),
        prop5_union(4, [0, 2], [0, 1, 2], m=3,
                    local_depth=6).windows[0].tree,
    ]
    for seed in range(4):
        trees.append(random_branching_tree(2, 1, 8, 2, seed=seed))
        trees.append(random_branching_tree(3, 1, 5, 3, seed=seed))
    for tree in trees:
        for k in range(1, tree.depth + 1):
            assert h_star(tree, k)[0] == oracle_exact_hstar(tree, k), \
                (tree.base, tree.depth, k)
    rng = random.Random(2)
    for trial in range(40):
        d = 1 + trial % 2
        tree = corners_tree(2, d, 16, [
            tuple(rng.randrange(0, 16) for _ in range(d))
            for _ in range(rng.randrange(2, 10))])
        pts = leaf_corners(tree)
        center = pts[rng.randrange(len(pts))]
        R = Fraction(rng.randrange(4, 16), 16)
        r = R / rng.randrange(3, 9)
        D = 2**tree.depth  # the thresholds of R and 2r at scale D
        lv = geometry.Level(math.floor(R * D), math.floor(2 * r * D))
        exact = geometry.exact_packing(pts, center, lv)
        greedy = len(geometry.greedy_packing(pts, center, lv))
        assert exact / 2**d <= greedy <= exact, (trial, exact, greedy)
