import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from badicdim import geometry
from badicdim.core import CubeTree, DomainError, WindowedSet, \
    all_keys, corners_tree, leaf_corners
from badicdim.estimators import h_star, star_dimension_report
from badicdim.generators import (FAMILIES, GeneratorSpec, digit_cantor,
                                 full_cube, generate, integer_cantor,
                                 lattice_window, one_over_k,
                                 oracle_exact_hstar, prop5_union,
                                 random_branching_tree)


def test_generator_spec_validation():
    with pytest.raises(DomainError):
        GeneratorSpec("no-such-family")
    with pytest.raises(DomainError):
        generate(GeneratorSpec("digit-cantor", {"base": 3}))


def test_negative_chain_is_refused():
    # a negative chain declared a depth below the tree's real depth
    for make in (lambda: lattice_window(2, 1, 2, chain=-1),
                 lambda: prop5_union(4, [0, 2], [0, 1, 2], 2, 3, chain=-2)):
        with pytest.raises(DomainError, match="^chain length -[12] must be"):
            make()


def test_lattice_window_refuses_a_base_below_two_by_its_shape():
    # it is `integer_cantor` with digits range(base), which is empty here
    for base in (0, 1):
        with pytest.raises(DomainError, match="^need base >= 2, dim >= 1"):
            lattice_window(base, 1, 2)


def test_digit_cantor_leaf_count():
    t = digit_cantor(3, 1, [0, 2], 8)
    assert t.leaf_count == 256


def test_lattice_window_values():
    ws = lattice_window(2, 1, 6)
    tree = ws.windows[0].tree
    assert tree.descendant_count(tree.root, 6) == 64
    loc = star_dimension_report(ws, "local", k_max=4)
    glo = star_dimension_report(ws, "global", k_max=6)
    assert loc.headline == 0.0
    assert glo.headline == 1.0


def test_integer_cantor_global_value():
    # digits {0,1} in base 4: global estimate log2/log4 = 1/2 at window
    # scales, local estimate 0
    ws = integer_cantor(4, 1, 4, [0, 1])
    glo = star_dimension_report(ws, "global", k_max=4)
    loc = star_dimension_report(ws, "local", k_max=4)
    assert abs(glo.headline - 0.5) < 1e-9
    assert loc.headline == 0.0


def test_one_over_k_bounds():
    with pytest.raises(DomainError):
        one_over_k(0, 4)
    t = one_over_k(4, 4)
    # leaves for 1/1 -> 15, 1/2 -> 8, 1/3 -> 5, 1/4 -> 4
    assert t.leaf_count == 4


def test_prop5_union_realizes_gap():
    ws = prop5_union(4, [0, 2], [0, 1, 2], m=4, local_depth=8)
    loc = star_dimension_report(ws, "local", k_max=8)
    glo = star_dimension_report(ws, "global", k_max=4)
    assert abs(loc.headline - 0.5) < 1e-9
    assert abs(glo.headline - math.log(3) / math.log(4)) < 1e-9
    assert loc.headline < glo.headline


def test_random_branching_reproducible():
    a = random_branching_tree(2, 1, 4, 2, seed=1)
    b = random_branching_tree(2, 1, 4, 2, seed=1)
    c = random_branching_tree(2, 1, 4, 2, seed=2)
    assert a == b
    assert (a == c) is False or a.leaf_count == c.leaf_count


def _preorder_leaf_paths(base, dim, depth, max_children, seed):
    """The leaf paths of `random_branching_tree`, drawn by a recursive
    depth-first walk: one rng draw per internal node, in preorder."""
    rng = random.Random(seed)
    keys = all_keys(base, dim)

    def walk(path):
        if len(path) == depth:
            yield path
            return
        for key in sorted(rng.sample(keys, rng.randint(1, max_children))):
            yield from walk(path + (key,))

    return list(walk(()))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]),
       st.sampled_from([1, 2]), st.integers(0, 7), st.integers(1, 9))
def test_random_branching_draws_in_preorder(seed, b, d, depth, kids):
    kids = min(kids, b**d)
    tree = random_branching_tree(b, d, depth, kids, seed)
    assert list(tree.iter_leaf_paths()) == \
        _preorder_leaf_paths(b, d, depth, kids, seed)


def test_random_branching_respects_max_children():
    t = random_branching_tree(3, 1, 6, 2, seed=42)
    for layer in t.levels():
        for node in layer:
            assert len(node.children) <= 2
    full = random_branching_tree(2, 1, 3, 2, seed=9)
    assert full.leaf_count <= 8


def test_generate_dispatch_families():
    specs = [
        GeneratorSpec("digit-cantor", {"base": 3, "digits": [0, 2],
                                       "depth": 4}),
        GeneratorSpec("full-cube", {"base": 2, "depth": 3, "dim": 2}),
        GeneratorSpec("lattice-window", {"base": 2, "m": 3}),
        GeneratorSpec("integer-cantor", {"base": 4, "m": 3,
                                         "digits": [0, 2]}),
        GeneratorSpec("one-over-k", {"count": 8, "depth": 6}),
        GeneratorSpec("prop5-union", {"base": 4, "local_digits": [0, 2],
                                      "global_digits": [0, 1, 2], "m": 3,
                                      "local_depth": 6}),
        GeneratorSpec("random-branching", {"base": 2, "depth": 5,
                                           "max_children": 2, "seed": 7}),
    ]
    assert len(specs) == len(FAMILIES)
    for spec in specs:
        obj = generate(spec)
        assert isinstance(obj, (CubeTree, WindowedSet))


def test_oracle_hstar_examples():
    assert oracle_exact_hstar(digit_cantor(3, 1, [0, 2], 6), 3) == 8
    assert oracle_exact_hstar(full_cube(2, 2, 4), 2) == 16


def test_oracle_equivalence_families():
    trees = [
        digit_cantor(3, 1, [0, 2], 6),
        full_cube(2, 2, 4),
        one_over_k(16, 8),
        one_over_k(64, 10),
    ]
    for seed in range(6):
        trees.append(random_branching_tree(2, 1, 8, 2, seed=seed))
        trees.append(random_branching_tree(3, 1, 5, 3, seed=seed))
    for tree in trees:
        for k in range(1, tree.depth + 1):
            assert h_star(tree, k)[0] == oracle_exact_hstar(tree, k), \
                f"mismatch base={tree.base} depth={tree.depth} k={k}"


def test_oracle_size_guard_is_hard_error():
    big = full_cube(2, 1, 24)
    with pytest.raises(DomainError):
        oracle_exact_hstar(big, 2)


def _level(R, r, D):
    """The thresholds of exact radii R > r on the lattice of spacing
    1/D."""
    return geometry.Level(math.floor(R * D), math.floor(2 * r * D))


def test_oracle_packing_examples():
    # the points 0, 1/4 and 1/2 at scale 4, the radii of 0, 1/2, 1 halved
    three = leaf_corners(corners_tree(2, 1, 4, [(0,), (1,), (2,)]))
    assert geometry.exact_packing(
        three, (1,), _level(Fraction(3, 10), Fraction(1, 10), 4)) == 3
    assert geometry.exact_packing(
        [(0,)], (0,), _level(Fraction(1), Fraction(1, 2), 2)) == 1
    five = leaf_corners(corners_tree(10, 1, 10, [(i,) for i in range(5)]))
    assert geometry.exact_packing(
        five, (2,), _level(Fraction(1, 2), Fraction(3, 20), 10)) == 2


def test_greedy_packing_within_2d_factor_of_oracle():
    import random
    rng = random.Random(0)
    for trial in range(40):
        d = 1 + trial % 2
        tree = corners_tree(2, d, 16, [
            tuple(rng.randrange(0, 16) for _ in range(d))
            for _ in range(rng.randrange(2, 10))])
        pts = leaf_corners(tree)
        center = pts[rng.randrange(len(pts))]
        R = Fraction(rng.randrange(4, 16), 16)
        r = R / rng.randrange(3, 9)
        lv = _level(R, r, 2**tree.depth)
        exact = geometry.exact_packing(pts, center, lv)
        greedy = len(geometry.greedy_packing(pts, center, lv))
        assert exact / 2**d <= greedy <= exact
        if exact >= 1:
            assert greedy >= 1
