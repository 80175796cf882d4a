import math
import random
import statistics
from fractions import Fraction

import pytest

from badicdim.core import CubeTree, DomainError, Window, WindowedSet
from badicdim.estimators import star_dimension_report
from badicdim.exactmath import count_meets_power_bound
from badicdim.extract_assouad import (PruneParams, check_gap_condition,
                                      check_prune_hypotheses,
                                      construct_subset_assouad,
                                      construct_subset_assouad_global,
                                      find_dense_window, plan_caps, prune,
                                      prune_with_caps, sandwich_assemble)
from badicdim.generators import (digit_cantor, full_cube, integer_cantor,
                                 random_branching_tree)


def test_prune_full_example():
    # full b=4 depth-2 tree, N=2 greedy -> 4 leaves, bound N^n = 4
    t = full_cube(4, 1, 2)
    out = prune(t, PruneParams(4, 2, 2, Fraction(1), Fraction(0)))
    assert out.leaf_count == 4
    for layer in out.levels():
        for node in layer:
            assert len(node.children) <= 2


def test_prune_identity_when_cap_not_binding():
    t = random_branching_tree(3, 1, 5, 2, seed=4)
    out = prune(t, PruneParams(3, 5, 3, Fraction(0), Fraction(1)))
    assert out == t


def test_prune_single_chain():
    t = digit_cantor(3, 1, [0, 2], 3)
    out = prune(t, PruneParams(3, 3, 1, Fraction(0), Fraction(1)))
    assert out.leaf_count == 1


def test_prune_hypothesis_violations_are_reported():
    t = full_cube(4, 1, 2)
    with pytest.raises(DomainError, match="exceeds"):
        check_prune_hypotheses(t, PruneParams(4, 2, 3, Fraction(0),
                                              Fraction(1, 2)))
    with pytest.raises(DomainError, match="children"):
        check_prune_hypotheses(t, PruneParams(4, 2, 1, Fraction(0),
                                              Fraction(1, 2)))


def test_prune_monotone_in_caps():
    t = random_branching_tree(4, 1, 4, 4, seed=8)
    small = prune_with_caps(t, [1, 2, 1, 2])
    big = prune_with_caps(t, [2, 3, 2, 3])
    assert big.contains_tree(small)


def test_random_prune_reproducible_and_bounded():
    t = full_cube(4, 1, 3)
    p = PruneParams(4, 3, 2, Fraction(1), Fraction(1, 2),
                    strategy="random", seed=7)
    a, b = prune(t, p), prune(t, p)
    assert a == b
    assert count_meets_power_bound(a.leaf_count, 4, 3, 2, Fraction(1, 2))


def test_random_prune_expectation():
    # proof-fidelity check: mean realized leaf count over seeded runs
    # stays above N^n M^(-n eps) within 3 standard errors
    t = full_cube(4, 1, 3)
    N, eps = 2, Fraction(0)
    counts = []
    for seed in range(300):
        out = prune(t, PruneParams(4, 3, N, Fraction(1), eps,
                                   strategy="random", seed=seed))
        counts.append(out.leaf_count)
    bound = N**3 * 4.0 ** (-3 * float(eps))
    mean = statistics.fmean(counts)
    se = statistics.stdev(counts) / math.sqrt(len(counts)) \
        if len(set(counts)) > 1 else 0.0
    assert mean >= bound - 3 * se


def test_find_dense_window_examples():
    cantor = digit_cantor(3, 1, [0, 2], 8)
    path, level, count = find_dense_window(cantor, 2)
    assert count == 4
    assert path == ((0,), (0,))  # homogeneity + lexicographic tie-break
    full = full_cube(2, 1, 6)
    _, _, count = find_dense_window(full, 3)
    assert count == 8
    # one full subtree under "1", single chain under "0"
    sub = full_cube(2, 1, 5)
    paths = [((1,),) + p for p in sub.iter_leaf_paths()]
    paths.append((((0,),) * 6))
    t = CubeTree.from_leaves(2, 1, 6, paths)
    path, level, count = find_dense_window(t, 2)
    assert path[0] == (1,) and count == 4


def test_construct_assouad_cantor_example():
    # Cantor b=3 depth 18 viewed in M=27, alpha=0.4 -> N=3; eps=0.2 is
    # the smallest slack meeting the large-M condition N >= M^(a-e/2)
    E = digit_cantor(3, 1, [0, 2], 18).rebase(3)
    trace = construct_subset_assouad(E, Fraction(2, 5), Fraction(1, 5), 3)
    assert trace.cap == 3
    assert 0.2 - trace.delta <= trace.headline <= 0.6 + trace.delta


def test_construct_assouad_full_square_example():
    E = CubeTree.full(2, 2, 24).rebase(4)  # d=2, M=16, depth 6
    trace = construct_subset_assouad(E, Fraction(1), Fraction(1, 4), 3)
    assert 0.75 - trace.delta <= trace.headline <= 1.25 + trace.delta


def test_construct_assouad_alpha_too_large():
    E = digit_cantor(3, 1, [0, 2], 9).rebase(3)
    with pytest.raises(DomainError, match="exceeds the source"):
        construct_subset_assouad(E, Fraction(9, 10), Fraction(1, 4), 2)


def test_construct_assouad_source_check_is_exact():
    # log_3 2 = 0.6309297535..., and 16266/25781 lies above it by about
    # 9e-10: inside a 1e-9 float tolerance, yet not a valid target
    E = digit_cantor(3, 1, [0, 2], 12).rebase(6)
    with pytest.raises(DomainError, match="exceeds the source estimate "
                                          "0.630930"):
        construct_subset_assouad(E, Fraction(16266, 25781),
                                 Fraction(1, 4), 1)
    trace = construct_subset_assouad(E, Fraction(5, 8), Fraction(1, 4), 1)
    assert E.contains_tree(trace.tree)


def test_construct_assouad_corner_condition_named():
    E = CubeTree.full(2, 1, 12).rebase(2)  # M = 4
    with pytest.raises(DomainError, match="N\\+1 > M"):
        construct_subset_assouad(E, Fraction(1, 2), Fraction(1, 4), 2)


def test_construct_assouad_resolution_exhaustion():
    E = CubeTree.full(2, 1, 8).rebase(4)  # depth 2 in base 16
    with pytest.raises(DomainError, match="resolution exhausted"):
        construct_subset_assouad(E, Fraction(1, 2), Fraction(1, 4), 5)


@pytest.mark.parametrize("seed", range(12))
def test_construct_assouad_output_is_subset_of_random_source(seed):
    # random trees lack the all-zero chain below most cubes, so kept
    # cubes must be padded with chains the source holds
    source = random_branching_tree(2, 1, 20, 2, seed).rebase(4)
    trace = construct_subset_assouad(source, Fraction(1, 4),
                                     Fraction(1, 4), 2)
    assert source.contains_tree(trace.tree)


def test_construct_trace_tsv_columns():
    E = CubeTree.full(2, 1, 20).rebase(4)
    trace = construct_subset_assouad(E, Fraction(1, 2), Fraction(1, 4), 2)
    lines = trace.to_tsv().splitlines()
    assert lines[0] == "stage\twindow\tlevel\tcount\tbound\tok"
    assert len(lines) == 3
    assert trace.tree.leaf_count >= 1
    assert trace.paper_corner_ok in (True, False)


def _two_window_set():
    w1 = integer_cantor(16, 1, 2, list(range(16)), chain=3).windows[0]
    w2 = integer_cantor(16, 1, 3, list(range(16)), chain=3).windows[0]
    return WindowedSet(16, 1, [Window((0,), 2, w1.tree),
                               Window((10_000,), 3, w2.tree)])


def test_global_construction_gap_and_headline():
    E = _two_window_set()
    alpha, eps = Fraction(1, 2), Fraction(1, 4)
    out = construct_subset_assouad_global(E, alpha, eps)
    assert check_gap_condition(out.windows, alpha + eps, 16)
    rep = star_dimension_report(out, "global", k_max=3)
    delta = math.log(2) / (3 * math.log(16))
    assert float(alpha - eps) - delta <= rep.headline \
        <= float(alpha + eps) + delta


def test_global_single_window_reduces_to_prune():
    w = integer_cantor(16, 1, 2, list(range(16)), chain=3).windows[0]
    E = WindowedSet(16, 1, [w])
    out = construct_subset_assouad_global(E, Fraction(1, 2), Fraction(1, 4))
    assert len(out) == 1
    assert out.windows[0].tree.leaf_count <= w.tree.leaf_count


def test_gap_condition_rejects_tight_windows():
    t = CubeTree.full(2, 1, 2)
    close = [Window((0,), 1, t), Window((3,), 1, t)]
    # gap of 1 = 2^0; sum of diam^(3/4) = 2^(3/4) > 1
    assert not check_gap_condition(close, Fraction(3, 4), 2)


def test_plan_caps_tracks_target():
    caps = plan_caps(6, math.log(2.0**3), [2] * 6)
    assert all(1 <= c <= 2 for c in caps)
    got = sum(math.log(c) for c in caps)
    assert abs(got - 3 * math.log(2)) < math.log(2) / 2 + 1e-9


def test_sandwich_ladder_l1():
    E = CubeTree.full(2, 1, 24)
    res = sandwich_assemble(E, 0.5, 1)
    a, b = res.final_pair
    assert b.contains_tree(a)
    assert res.a_stages[0].headline <= 0.375 + 1e-9
    assert res.b_stages[0].headline >= 0.75 - 1e-9


def test_sandwich_ladder_l2_intervals_and_nesting():
    E = CubeTree.full(2, 1, 30)
    res = sandwich_assemble(E, 0.5, 2)
    a1, a2 = res.a_trees
    b1, b2 = res.b_trees
    assert a2.contains_tree(a1)
    assert b2.contains_tree(a2)
    assert b1.contains_tree(b2)
    assert 0.25 < res.a_stages[0].headline <= 0.375
    assert 0.375 < res.a_stages[1].headline <= 0.4375
    assert 0.75 <= res.b_stages[0].headline < 1.0
    assert 0.625 <= res.b_stages[1].headline < 0.75


def test_sandwich_alpha_out_of_range():
    E = CubeTree.full(2, 1, 12)
    with pytest.raises(DomainError):
        sandwich_assemble(E, 1.5, 1)
