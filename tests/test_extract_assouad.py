import itertools
import math
import random
import statistics
import time
from fractions import Fraction
from operator import le

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from badicdim import extract_assouad
from badicdim.core import (CubeNode, CubeTree, DomainError, Window,
                           WindowedSet, write_bdt, write_wdt)
from badicdim.estimators import _log_ratio, star_dimension_report
from badicdim.exactmath import (badic_power_sum_le, floor_power,
                                least_fitting, power_cmp)
from badicdim.extract_assouad import (LadderResult, PruneParams,
                                      check_gap_condition,
                                      check_prune_hypotheses,
                                      construct_subset_assouad,
                                      construct_subset_assouad_global,
                                      find_dense_window, headline_in_window,
                                      prune, prune_with_caps,
                                      sandwich_assemble)
from badicdim.extract_lower import (LowerParams, construct_subset_lower,
                                    verify_lower_bounds)
from badicdim.generators import (digit_cantor, full_cube, integer_cantor,
                                 random_branching_tree)


def test_prune_full_example():
    # full b=4 depth-2 tree, N=2 greedy -> 4 leaves, bound N^n = 4
    t = full_cube(4, 1, 2)
    out = prune(t, PruneParams(2, Fraction(1), Fraction(0)))
    assert out.leaf_count == 4
    for layer in out.levels():
        for node in layer:
            assert len(node.children) <= 2


def test_prune_identity_when_cap_not_binding():
    t = random_branching_tree(3, 1, 5, 2, seed=4)
    out = prune(t, PruneParams(3, Fraction(0), Fraction(1)))
    assert out == t


def test_prune_single_chain():
    t = digit_cantor(3, 1, [0, 2], 3)
    out = prune(t, PruneParams(1, Fraction(0), Fraction(1)))
    assert out.leaf_count == 1


def test_prune_hypothesis_violations_are_reported():
    t = full_cube(4, 1, 2)
    with pytest.raises(DomainError, match="exceeds"):
        check_prune_hypotheses(t, PruneParams(3, Fraction(0), Fraction(1, 2)))
    with pytest.raises(DomainError, match="children"):
        check_prune_hypotheses(t, PruneParams(1, Fraction(0), Fraction(1, 2)))


def test_prune_monotone_in_caps():
    t = random_branching_tree(4, 1, 4, 4, seed=8)
    small = prune_with_caps(t, [1, 2, 1, 2])
    big = prune_with_caps(t, [2, 3, 2, 3])
    assert big.contains_tree(small)


def test_prune_with_caps_refuses_a_cap_below_one():
    # a zero cap would leave interior nodes without children: a tree of
    # no leaves, which no .bdt file holds
    with pytest.raises(DomainError,
                       match="^child cap N=0 at level 1 must be >= 1$"):
        prune_with_caps(CubeTree.full(2, 1, 3), [2, 0, 2])


def test_random_prune_reproducible_and_bounded():
    t = full_cube(4, 1, 3)
    p = PruneParams(2, Fraction(1), Fraction(1, 2),
                    strategy="random", seed=7)
    a, b = prune(t, p), prune(t, p)
    assert a == b
    assert power_cmp(4, -3 * p.eps, Fraction(a.leaf_count, 2**3)) <= 0


def _preorder_prune_paths(tree, cap, seed):
    """The leaf paths of a random prune's first attempt, drawn by a
    recursive depth-first walk: one rng draw per node, in preorder."""
    rng = random.Random(seed)

    def walk(node, path):
        if len(path) == tree.depth:
            yield path
            return
        picked = rng.sample(list(node.children), min(cap, len(node.children)))
        for key, child in sorted(picked, key=lambda kc: kc[0]):
            yield from walk(child, path + (key,))

    return list(walk(tree.root, ()))


def test_random_prune_draws_in_preorder():
    for seed in range(30):
        tree = random_branching_tree(2, 2, 5, 4, seed)
        for cap in (1, 2, 3):
            # eps = 1 puts the bound below one leaf: the first attempt
            # is kept
            out = prune(tree, PruneParams(cap, Fraction(0), Fraction(1),
                                          strategy="random", seed=seed),
                        check_hypotheses=False)
            assert list(out.iter_leaf_paths()) == \
                _preorder_prune_paths(tree, cap, seed)


def test_random_prune_of_a_deep_tree():
    out = prune(CubeTree.full(2, 1, 1500),
                PruneParams(1, Fraction(0), Fraction(1), strategy="random"),
                check_hypotheses=False)
    assert out.leaf_count == 1 and out.depth == 1500


def test_random_prune_expectation():
    # proof-fidelity check: mean realized leaf count over seeded runs
    # stays above N^n M^(-n eps) within 3 standard errors
    t = full_cube(4, 1, 3)
    N, eps = 2, Fraction(0)
    counts = []
    for seed in range(300):
        out = prune(t, PruneParams(N, Fraction(1), eps,
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
    # log_3 2 = 0.6309297535..., and 665/1054, the closest fraction above
    # it within the exponent bound, lies above it by about 3.8e-8: inside
    # a 1e-7 float tolerance, yet not a valid target
    E = digit_cantor(3, 1, [0, 2], 12).rebase(6)
    with pytest.raises(DomainError, match="exceeds the source estimate "
                                          "0.630930"):
        construct_subset_assouad(E, Fraction(665, 1054), Fraction(1, 4), 1)
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


def test_construct_assouad_headline_outside_its_window_is_named():
    # six full levels above six of chains: from stage 3 on the window's
    # dense content stops short of its stage length, so the last stage
    # keeps too few cubes
    node = CubeNode(())
    for level in range(12):
        node = CubeNode(tuple(((key,), node)
                              for key in (range(16) if level >= 6 else [0])))
    E = CubeTree(16, 1, 12, node)
    trace = construct_subset_assouad(E, Fraction(1, 2), Fraction(1, 4), 3)
    assert trace.to_tsv().splitlines()[-1] == "3\t0|0|0|0\t4\t256\t16\tFAIL"
    with pytest.raises(DomainError, match=r"^achieved headline 0\.158983 "
                       r"outside \[0\.218750, 0\.781250\]$"):
        construct_subset_assouad(E, Fraction(1, 2), Fraction(1, 4), 4)


@pytest.mark.parametrize("seed", range(12))
def test_construct_assouad_output_is_subset_of_random_source(seed):
    # random trees lack the all-zero chain below most cubes, so kept
    # cubes must be padded with chains the source holds
    source = random_branching_tree(2, 1, 20, 2, seed).rebase(4)
    trace = construct_subset_assouad(source, Fraction(1, 4),
                                     Fraction(1, 4), 2)
    assert source.contains_tree(trace.tree)


def _listed_assembly(tree, alpha, eps, stages, strategy):
    """The construction's output assembled from leaf paths: each kept
    cube's path extended by the source's minimum-key chain below it,
    built with `from_leaves`."""
    M, n, leaves = tree.base, 1, set()
    for stage in range(1, stages + 1):
        path, level, _ = find_dense_window(tree, n)
        piece = prune(tree.subtree(path, n),
                      PruneParams(floor_power(M, alpha), Fraction(0),
                                  eps / 2, strategy=strategy, seed=stage),
                      check_hypotheses=False)
        for sub in piece.iter_leaf_paths():
            node, chain = tree.node_at(path + sub), ()
            while node.children:
                key, node = node.children[0]
                chain += (key,)
            leaves.add(path + sub + chain)
        n += level
    return CubeTree.from_leaves(M, tree.dim, tree.depth, leaves)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6),
       st.sampled_from([(2, 1, 20, 2, 4), (2, 1, 18, 2, 3), (3, 1, 12, 3, 2),
                        (2, 2, 10, 4, 2), (3, 2, 6, 5, 2)]),
       st.sampled_from([(Fraction(1, 4), Fraction(1, 4)),
                        (Fraction(1, 2), Fraction(1, 4)),
                        (Fraction(1, 2), Fraction(1, 2))]),
       st.integers(1, 3), st.sampled_from(["greedy", "random"]))
def test_grafted_assembly_matches_listed_leaf_paths(seed, shape, target,
                                                    stages, strategy):
    *spec, t = shape
    source = random_branching_tree(*spec, seed).rebase(t)
    alpha, eps = target
    try:
        trace = construct_subset_assouad(source, alpha, eps, stages,
                                         strategy=strategy)
    except DomainError:
        return
    assert write_bdt(trace.tree) == write_bdt(
        _listed_assembly(source, alpha, eps, stages, strategy))


def test_construct_assouad_output_beyond_the_leaf_enumeration_cap():
    # stage lengths 1, 2, 4, 8, 16 keep 4^16 cubes in the last stage
    E = CubeTree.full(2, 1, 200).rebase(4)
    trace = construct_subset_assouad(E, Fraction(1, 2), Fraction(1, 4), 5)
    assert trace.k_star == 16
    assert trace.tree.leaf_count == 4_295_033_104


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


def test_far_windows_past_ten_thousand_levels():
    # a gap search that counted up from 0 gave up above exponent 10,000
    t1, t2, t3 = (integer_cantor(16, 1, m, [0, 5], chain=1).windows[0].tree
                  for m in (1, 10050, 10050))
    side = 16**10050
    E = WindowedSet(16, 1, [Window((0,), 1, t1), Window((side,), 10050, t2),
                            Window((3 * side,), 10050, t3)])
    alpha, eps = Fraction(1, 2), Fraction(1, 4)
    out = construct_subset_assouad_global(E, alpha, eps)
    # gaps 16^1 and 16^10051: the last window starts at 2 side + 16 side
    assert [(w.offset, w.side_exp) for w in out.windows] == [
        ((0,), 1), ((side,), 10050), ((18 * side,), 10050)]
    assert check_gap_condition(out.windows, alpha + eps, 16)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 20), st.lists(st.integers(0, 12), min_size=1,
                                    max_size=4),
       st.integers(1, 12), st.integers(1, 12))
def test_gap_exponent_search_matches_a_linear_one(M, exps, p, q):
    # the global construction's search, from the largest side exponent
    t, want = Fraction(p, q), 0
    while not badic_power_sum_le(M, exps, want, t):
        want += 1
    assert least_fitting(lambda ell: badic_power_sum_le(M, exps, ell, t),
                         max(exps)) == want


def test_gap_condition_rejects_tight_windows():
    t = CubeTree.full(2, 1, 2)
    close = [Window((0,), 1, t), Window((3,), 1, t)]
    # gap of 1 = 2^0; sum of diam^(3/4) = 2^(3/4) > 1
    assert not check_gap_condition(close, Fraction(3, 4), 2)


def test_sandwich_ladder_l1():
    E = CubeTree.full(2, 1, 24)
    res = sandwich_assemble(E, 0.5, 1)
    a, b = res.a_trees[-1], res.b_trees[-1]
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


def _stages(res):
    return [(stage.caps, stage.headline)
            for stage in res.a_stages + res.b_stages]


def _lower(params):
    bt = construct_subset_lower(CubeTree.full(2, 1, 12), params)
    return bt.centers, verify_lower_bounds(bt).to_tsv()


def _prune(params):
    out = prune(full_cube(4, 1, 3), params)
    return params.s, params.eps, write_bdt(out)


def _trace(trace):
    return (write_bdt(trace.tree), trace.to_tsv(), trace.headline,
            trace.delta, trace.k_star, trace.cap)


# Each construction as a function of the one target it reads, with
# what it produces.
_HALF, _THIRD, _QUARTER = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)
_TARGETS = {
    "assouad-alpha": ("alpha", lambda x: _trace(construct_subset_assouad(
        CubeTree.full(16, 1, 7), x, _QUARTER, 2))),
    "assouad-eps": ("eps", lambda x: _trace(construct_subset_assouad(
        CubeTree.full(16, 1, 7), _HALF, x, 2))),
    "assouad-global-alpha": ("alpha", lambda x: write_wdt(
        construct_subset_assouad_global(_two_window_set(), x, _QUARTER))),
    "assouad-global-eps": ("eps", lambda x: write_wdt(
        construct_subset_assouad_global(_two_window_set(), _HALF, x))),
    "sandwich-alpha": ("alpha", lambda x: _stages(
        sandwich_assemble(CubeTree.full(2, 1, 12), x, 1))),
    "prune-s": ("s", lambda x: _prune(PruneParams(2, x, Fraction(1)))),
    "prune-eps": ("eps", lambda x: _prune(PruneParams(2, Fraction(1), x))),
    "lower-alpha": ("alpha", lambda x: _lower(LowerParams(x, 3, 2))),
    "lower-eps": ("eps", lambda x: _lower(LowerParams(_THIRD, 3, 2, eps=x))),
    "lower-R0": ("R0", lambda x: _lower(LowerParams(_THIRD, 3, 2, R0=x))),
}


@pytest.mark.parametrize("construction", sorted(_TARGETS))
def test_every_construction_reads_a_float_target_as_its_small_fraction(
        construction):
    name, run = _TARGETS[construction]
    for value, exact in ((1 / 3, Fraction(1, 3)), (0.3, Fraction(3, 10))):
        assert run(value) == run(exact)
    # no fraction of denominator <= 10^4 rounds to these: refused before
    # any power is taken
    for value in (0.1 + 0.2, float("nan")):
        with pytest.raises(DomainError, match=f"^{name} {value} is not a "
                                              "fraction of denominator "
                                              "<= 10000$"):
            run(value)


def test_sandwich_refuses_a_fraction_of_large_denominator():
    # the stage powers carry alpha's denominator
    E = CubeTree.full(2, 1, 12)
    for value in (Fraction(0.3), Fraction(1, 10**4 + 1)):
        with pytest.raises(DomainError, match="is not a fraction of "
                                              "denominator <= 10000$"):
            sandwich_assemble(E, value, 1)


def _refusal(name: str, value, part: str) -> str:
    return f"^{name} {value} is not a fraction of {part} <= 10000$"


def test_library_callers_refuse_an_exponent_beyond_the_bound_at_once():
    # without the bound the first four ran for 6 s to minutes: exact
    # powers of the exponent carry its numerator and denominator
    E, tiny, huge = CubeTree.full(2, 1, 8), Fraction(1, 10**9), 10**9
    calls = [
        (lambda: construct_subset_lower(E, LowerParams(
            Fraction(1, 3), 4, 1, eps=tiny)), "eps", tiny, "denominator"),
        (lambda: construct_subset_lower(E, LowerParams(
            Fraction(1, 3), 4, 1, eps=Fraction(huge))), "eps", huge,
         "numerator"),
        (lambda: construct_subset_assouad(E, _HALF, Fraction(huge), 1),
         "eps", huge, "numerator"),
        (lambda: prune(E, PruneParams(1, Fraction(0), tiny)), "eps",
         tiny, "denominator"),
        (lambda: prune(E, PruneParams(1, -tiny, Fraction(1))), "s",
         -tiny, "denominator"),
        (lambda: construct_subset_assouad_global(
            _two_window_set(), Fraction(huge), _QUARTER), "alpha", huge,
         "numerator"),
        (lambda: sandwich_assemble(E, Fraction(huge, 7), 1), "alpha",
         Fraction(huge, 7), "numerator")]
    for call, name, value, part in calls:
        start = time.perf_counter()
        with pytest.raises(DomainError, match=_refusal(name, value, part)):
            call()
        assert time.perf_counter() - start < 1


def test_construction_stages_prune_with_half_a_bounded_eps():
    # eps/2 = 5003/19998 has a denominator above the bound; the stages
    # skip check_prune_hypotheses, the one place that holds a prune's s
    # and eps to it
    for strategy in ("greedy", "random"):
        trace = construct_subset_assouad(CubeTree.full(4, 1, 6), _HALF,
                                         Fraction(5003, 9999), 2,
                                         strategy=strategy)
        assert [stage.bound_ok for stage in trace.stages] == [True, True]
    with pytest.raises(DomainError, match=_refusal(
            "eps", Fraction(5003, 19998), "denominator")):
        prune(CubeTree.full(4, 1, 2),
              PruneParams(2, Fraction(0), Fraction(5003, 19998)))


def test_sandwich_needs_a_source_of_depth_one():
    with pytest.raises(DomainError,
                       match="^ladder needs a source of depth >= 1$"):
        sandwich_assemble(CubeTree.full(2, 1, 0), Fraction(1, 2), 1)


def _power_below(M: int, e: Fraction, c: int) -> bool:
    """M^e < c for a rational e >= 0, in integers."""
    return M**e.numerator < c**e.denominator


def _reaches_b(c: int, C: int, M: int, D: int, alpha: Fraction,
               n: int) -> bool:
    """log(c) / (D log M) >= b_n = s + (alpha - s)(1 - 2^(1-n)), s =
    log(C) / (D log M): c^t >= C M^(alpha D (t - 1)), t = 2^(n-1)."""
    t = 2 ** (n - 1)
    e = alpha * D * (t - 1)
    return c ** (t * e.denominator) >= C**e.denominator * M**e.numerator


def _assert_ladder_in_windows(tree, alpha, levels, res):
    """Each stage's leaf count lies in its integer window, and A_1 c ...
    c A_L c B_L c ... c B_1 c the source."""
    M, D, C = tree.base, tree.depth, tree.leaf_count
    assert len(res.a_trees) == len(res.b_trees) == levels
    for n, (a, b) in enumerate(zip(res.a_trees, res.b_trees), start=1):
        lo, hi = (alpha * D * (1 - Fraction(1, 2**m)) for m in (n, n + 1))
        assert _power_below(M, lo, a.leaf_count)
        assert not _power_below(M, hi, a.leaf_count)
        assert _reaches_b(b.leaf_count, C, M, D, alpha, n + 1)
        assert not _reaches_b(b.leaf_count, C, M, D, alpha, n)
    chain = res.a_trees + res.b_trees[::-1] + [tree]
    assert all(outer.contains_tree(inner)
               for inner, outer in zip(chain, chain[1:]))


def _assemble_or_refuse(tree, alpha, levels):
    """The ladder, or None when `sandwich_assemble` refuses it with the
    named interval error, which is the only refusal allowed for
    alpha < s."""
    try:
        return sandwich_assemble(tree, alpha, levels)
    except DomainError as exc:
        assert str(exc).startswith("no caps give stage "), str(exc)
        assert "a leaf count in [" in str(exc)
        return None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(6, 16),
       st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]),
       st.integers(1, 2))
def test_ladder_stage_counts_lie_in_their_integer_windows(seed, depth, alpha,
                                                          levels):
    tree = random_branching_tree(2, 1, depth, 2, seed)
    M, D, C = 2, depth, tree.leaf_count
    if not _power_below(M, alpha * D, C):  # alpha >= s
        with pytest.raises(DomainError, match=r"^alpha must lie in \(0, "):
            sandwich_assemble(tree, alpha, levels)
        return
    res = _assemble_or_refuse(tree, alpha, levels)
    if res is not None:
        _assert_ladder_in_windows(tree, alpha, levels, res)


def _float_planner_builds(tree, alpha, levels) -> bool:
    """Whether the former float planner built this ladder, as a
    reference: per-level caps planned from float logs toward each
    stage's middle headline under the per-level maximum child count,
    each stage nested under the one enclosing it, then checked exactly
    on the leaf counts of the pruned trees and for nesting."""
    D, M, C = tree.depth, tree.base, tree.leaf_count
    s = math.log(C) / (D * math.log(M))

    def plan(target_log, upper):
        caps, remaining = [], target_log
        for i in range(D):
            ideal = math.exp(remaining / (D - i))
            caps.append(min(upper[i], max(1, round(ideal))))
            remaining -= math.log(caps[-1])

        def err(cs):
            return abs(sum(math.log(c) for c in cs) - target_log)

        improved = True
        while improved:
            improved = False
            for i in range(D):
                for step in (-1, 1):
                    trial = caps[:i] + [caps[i] + step] + caps[i + 1:]
                    if 1 <= trial[i] <= upper[i] and err(trial) < err(caps):
                        caps, improved = trial, True
        return caps

    a = [float(alpha) * (1 - 2.0**-n) for n in range(1, levels + 2)]
    b = [s + (float(alpha) - s) * (1 - 2.0 ** (1 - n))
         for n in range(1, levels + 2)]
    caps_b, upper = [], [tree.extreme_count(1, lo=i, hi=i)[0]
                         for i in range(D)]
    for n in range(levels):
        upper = plan((b[n + 1] + b[n]) / 2 * D * math.log(M), upper)
        caps_b.append(upper)
    caps_a = []
    for n in reversed(range(levels)):
        upper = caps_b[n] if not caps_a else \
            [min(x, y) for x, y in zip(caps_b[n], caps_a[0])]
        caps_a.insert(0, plan((a[n] + a[n + 1]) / 2 * D * math.log(M),
                              upper))
    res = LadderResult([prune_with_caps(tree, caps) for caps in caps_a],
                       [prune_with_caps(tree, caps) for caps in caps_b],
                       [], [])
    try:
        _assert_ladder_in_windows(tree, alpha, levels, res)
    except AssertionError:
        return False
    return True


@st.composite
def _ladder_cases(draw):
    base = draw(st.integers(2, 4))
    tree = random_branching_tree(
        base, 1, draw(st.integers(3, 10)), draw(st.integers(2, base)),
        draw(st.integers(0, 10**6)))
    alpha = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 3),
                                  Fraction(1, 2), Fraction(2, 3)]))
    return tree, alpha, draw(st.integers(1, 2))


# The float planner builds both pinned ladders; a search made only of
# chain bisection and gentle decrements does not, since every single
# decrement from the last caps above the window undershoots it.
_PINNED = [(random_branching_tree(3, 1, 8, 3, 34), Fraction(1, 4), 2),
           (random_branching_tree(4, 1, 7, 4, 75), Fraction(1, 4), 2)]


# The float planner builds these four too; a search made of chain
# bisection, gentle decrements and unit moves refused each at A_2 (the
# first is a draw of --hypothesis-seed=11).
_MISSED = [(random_branching_tree(4, 1, 6, 4, 362880), Fraction(1, 4), 2)] + [
    (random_branching_tree(*args), Fraction(1, 3), 2) for args in
    [(4, 1, 8, 4, 167338), (3, 1, 10, 3, 0), (4, 1, 5, 4, 16)]]


@settings(max_examples=80, deadline=None)
@given(_ladder_cases())
@example(_PINNED[0])
@example(_PINNED[1])
@example(_MISSED[0])
@example(_MISSED[1])
@example(_MISSED[2])
@example(_MISSED[3])
def test_ladder_builds_wherever_the_float_planner_did(case):
    tree, alpha, levels = case
    assume(_power_below(tree.base, alpha * tree.depth, tree.leaf_count))
    res = _assemble_or_refuse(tree, alpha, levels)
    if res is None:
        assert not _float_planner_builds(tree, alpha, levels)
    else:
        _assert_ladder_in_windows(tree, alpha, levels, res)


@pytest.mark.parametrize("case", range(len(_PINNED)))
def test_pinned_ladders_build_as_the_float_planner_did(case):
    tree, alpha, levels = _PINNED[case]
    assert _float_planner_builds(tree, alpha, levels)
    _assert_ladder_in_windows(tree, alpha, levels,
                              sandwich_assemble(tree, alpha, levels))


def _stages_reached(tree, alpha, levels) -> int:
    """How many stages, in the search order B_1, ..., B_L, A_L, ..., A_1,
    some nested chain of caps prunes reaches, by brute force over every
    caps vector up to each level's most children."""
    M, D, C = tree.base, tree.depth, tree.leaf_count
    widest = [tree.extreme_count(1, lo=i, hi=i)[0] for i in range(D)]
    counts = {caps: prune_with_caps(tree, caps).leaf_count for caps in
              itertools.product(*[range(1, w + 1) for w in widest])}

    def in_a(c, n):
        lo, hi = (alpha * D * (1 - Fraction(1, 2**m)) for m in (n, n + 1))
        return _power_below(M, lo, c) and not _power_below(M, hi, c)

    def in_b(c, n):
        return _reaches_b(c, C, M, D, alpha, n + 1) and \
            not _reaches_b(c, C, M, D, alpha, n)

    order = [(in_b, n) for n in range(1, levels + 1)]
    order += [(in_a, n) for n in range(levels, 0, -1)]
    uppers = [tuple(widest)]
    for k, (fits, n) in enumerate(order):
        uppers = [caps for caps, c in counts.items() if fits(c, n) and any(
            all(map(le, caps, upper)) for upper in uppers)]
        if not uppers:
            return k
    return len(order)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3), st.integers(1, 6), st.integers(0, 10**6),
       st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                        Fraction(2, 3)]), st.integers(1, 2))
def test_ladder_builds_exactly_when_a_nested_chain_exists(base, depth, seed,
                                                          alpha, levels):
    tree = random_branching_tree(base, 1, depth, base, seed)
    assume(_power_below(base, alpha * depth, tree.leaf_count))
    reached = _stages_reached(tree, alpha, levels)
    order = [f"B_{n}" for n in range(1, levels + 1)]
    order += [f"A_{n}" for n in range(levels, 0, -1)]
    if reached == len(order):
        _assert_ladder_in_windows(tree, alpha, levels, sandwich_assemble(
            tree, alpha, levels))
        return
    with pytest.raises(DomainError, match="^no caps give stage ") as exc:
        sandwich_assemble(tree, alpha, levels)
    named = order.index(str(exc.value).split()[4])
    if str(exc.value).endswith(f"is empty at depth {depth}"):
        assert named >= reached  # refused before any search
    else:
        assert named == reached


def test_ladder_builds_at_depth_3000():
    # the search keeps its levels on a list, not the call stack
    tree = CubeTree.full(2, 1, 3000)
    _assert_ladder_in_windows(tree, Fraction(1, 2), 2, sandwich_assemble(
        tree, Fraction(1, 2), 2))


@pytest.mark.parametrize("depth, lo, hi", [(20, 664, 824),
                                           (30, 17110, 23677)])
def test_ladder_refuses_a_stage_that_no_caps_reach_in_time(depth, lo, hi):
    # every count of a full binary tree is a power of 2, none of them in
    # A_4's interval, while B_1, ..., B_4 nest: the refusal must not try
    # each of B_4's many caps vectors in turn
    start = time.perf_counter()
    with pytest.raises(DomainError, match=(
            rf"^no caps give stage A_4 a leaf count in \[{lo}, {hi}\]$")):
        sandwich_assemble(CubeTree.full(2, 1, depth), Fraction(1, 2), 4)
    assert time.perf_counter() - start < 5


def test_ladder_search_stops_after_its_step_budget():
    # A_3 needs a cap of 3 at three levels, A_4 keeps no cap above 2: no
    # nested chain exists, but the search would have to try every
    # arrangement of the stages before it to show that
    start = time.perf_counter()
    with pytest.raises(DomainError, match=(
            r"^ladder search stopped after 100000 steps short of stage "
            r"A_3$")):
        sandwich_assemble(CubeTree.full(3, 1, 10), Fraction(1, 3), 4)
    assert time.perf_counter() - start < 30


def test_ladder_builds_on_random_binary_trees():
    # the float planner built 2 of these 40
    for seed in range(40):
        tree = random_branching_tree(2, 1, 16, 2, seed)
        _assert_ladder_in_windows(tree, Fraction(1, 4), 1, sandwich_assemble(
            tree, Fraction(1, 4), 1))


def test_ladder_refuses_an_empty_stage_before_any_cap_search(monkeypatch):
    # at depth 8, floor(2^(8 a_1)) = floor(2^(8 a_2)) = 2 for alpha = 1/4:
    # no leaf count has a headline in (a_1, a_2]
    def search(*args):
        raise AssertionError("the caps of a stage were searched")

    monkeypatch.setattr(extract_assouad, "_caps_within", search)
    with pytest.raises(DomainError, match=(
            r"^no caps give stage A_1 a leaf count in \[3, 2\]: the "
            r"interval is empty at depth 8$")):
        sandwich_assemble(random_branching_tree(2, 1, 8, 2, 0),
                          Fraction(1, 4), 1)


@st.composite
def _headline_cases(draw):
    """A count, at random or next to one end of the headline window."""
    M, d, k = draw(st.integers(2, 16)), draw(st.integers(1, 3)), \
        draw(st.integers(1, 8))
    alpha = Fraction(draw(st.integers(1, 24)), draw(st.integers(1, 8)))
    eps = Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 8)))
    ends = [floor_power(M, k * (alpha + eps)) * 2**d]
    if alpha > eps:
        ends.append(floor_power(M, k * (alpha - eps)) // 2**d)
    count = max(1, draw(st.sampled_from(ends)) + draw(st.integers(-2, 2))
                if draw(st.booleans()) else draw(st.integers(1, M**(k * d))))
    return count, M, d, k, alpha, eps


@settings(max_examples=300, deadline=None)
@given(_headline_cases())
def test_exact_headline_window_agrees_with_float(case):
    count, M, d, k, alpha, eps = case
    delta = d * math.log(2) / (k * math.log(M))
    lo, hi = float(alpha - eps) - delta, float(alpha + eps) + delta
    headline = _log_ratio(count, k, M)
    if min(abs(headline - lo), abs(headline - hi)) > 1e-6:
        assert headline_in_window(count, M, d, k, alpha, eps) == \
            (lo <= headline <= hi)
