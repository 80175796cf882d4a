import math
import random
from fractions import Fraction

import pytest

from badicdim import geometry
from badicdim.core import (CubeTree, DomainError, corners_tree, leaf_corners,
                           path_text)
from badicdim.estimators import (ball_cover_count, h_star,
                                 lower_dimension_report,
                                 star_dimension_report,
                                 verify_cover_pack_sandwich)
from badicdim.generators import (digit_cantor, lattice_window, one_over_k,
                                 random_branching_tree)

LOG2_3 = math.log(2) / math.log(3)


def _cantor(depth):
    return digit_cantor(3, 1, [0, 2], depth)


def _envelope(report):
    """The least and the largest log-ratio of a report's rows."""
    ratios = [r.log_ratio for r in report.records]
    return min(ratios), max(ratios)


def test_count_hit_subcubes_examples():
    full = CubeTree.full(2, 1, 3)
    assert full.descendant_count(full.node_at(()), 1) == 2
    c = _cantor(4)
    assert c.descendant_count(c.node_at(()), 1) == 2
    assert c.descendant_count(c.node_at(()), 2) == 4
    assert c.node_at(((1,),)) is None  # the middle third is empty


def test_h_star_tree_examples():
    count, witness = h_star(_cantor(6), 3)
    assert count == 8
    assert witness == "root"  # root witness by homogeneity + tie-break
    chain = CubeTree.from_leaves(2, 1, 5, [(((0,),) * 5)[0:5]])
    for k in range(1, 6):
        assert h_star(chain, k)[0] == 1


def test_h_star_witness_reproduces_count():
    tree = random_branching_tree(3, 1, 6, 2, seed=11)
    cubes = {path_text(3, leaf[:level]): leaf[:level]
             for leaf in tree.iter_leaf_paths()
             for level in range(tree.depth + 1)}
    for k in (1, 2, 3):
        count, witness = h_star(tree, k)
        assert tree.descendant_count(tree.node_at(cubes[witness]),
                                     k) == count


@pytest.mark.parametrize("make", [
    lambda: random_branching_tree(2, 1, 6, 2, seed=5),
    lambda: random_branching_tree(2, 2, 4, 3, seed=0),
    lambda: lattice_window(2, 1, 2)], ids=["tree-d1", "tree-d2", "windowed"])
def test_h_star_witness_is_the_report_text(make):
    obj = make()
    for row in star_dimension_report(obj).records:
        count, witness = h_star(obj, row.k)
        assert type(witness) is str
        assert (count, witness) == (row.count, row.witness)


def test_star_report_cantor_every_scale():
    rep = star_dimension_report(_cantor(8))
    for rec in rep.records:
        assert abs(rec.log_ratio - LOG2_3) < 1e-9
    assert rep.headline == rep.records[-1].log_ratio
    lo, hi = _envelope(rep)
    assert abs(lo - hi) < 1e-12


def test_star_report_full_square():
    rep = star_dimension_report(CubeTree.full(2, 2, 5))
    assert all(abs(r.log_ratio - 2.0) < 1e-12 for r in rep.records)


def test_star_report_one_over_k_envelope():
    # convergence diagnostic only: headline strictly inside (0, 1)
    t = one_over_k(64, 12)
    rep = star_dimension_report(t)
    assert 0 < rep.headline < 1
    lo, hi = _envelope(rep)
    assert 0 < lo <= hi <= 1


def test_submultiplicativity():
    for seed in range(5):
        tree = random_branching_tree(2, 1, 8, 2, seed=seed)
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                hjk = h_star(tree, j + k)[0]
                assert hjk <= h_star(tree, j)[0] * h_star(tree, k)[0]


def test_monotonicity_under_subtree():
    big = random_branching_tree(2, 1, 7, 2, seed=3)
    from badicdim.extract_assouad import prune_with_caps
    small = prune_with_caps(big, [1] * 7)
    for k in range(1, 8):
        assert h_star(small, k)[0] <= h_star(big, k)[0]


def test_windowed_local_vs_global():
    ws = lattice_window(2, 1, 6)
    loc = star_dimension_report(ws, "local", k_max=4)
    glo = star_dimension_report(ws, "global", k_max=6)
    assert all(r.count == 1 for r in loc.records)      # exactly 0
    assert all(r.log_ratio == 0.0 for r in loc.records)
    assert glo.headline == 1.0                          # exactly d
    # by default, the largest k a local cube admits (cells of side 2^-4)
    # and the depth of the window tree
    assert star_dimension_report(ws, "local").records[-1].k == 4
    assert star_dimension_report(ws, "global").records[-1].k == 10


@pytest.mark.parametrize("call, kind", [
    (lambda kind: star_dimension_report(lattice_window(2, 1, 6), kind, 3),
     "bogus"),
    (lambda kind: star_dimension_report(_cantor(4), kind), "Local"),
    (lambda kind: h_star(_cantor(4), 1, kind), "nonsense"),
    (lambda kind: h_star(lattice_window(2, 1, 6), 1, kind), "star-global")])
def test_star_kinds_other_than_local_and_global_are_refused_by_name(call,
                                                                    kind):
    with pytest.raises(DomainError, match=(
            f"^kind must be 'local' or 'global', got '{kind}'$")):
        call(kind)


def test_star_report_refuses_an_unsupported_set_by_name():
    points = [(1,)]  # a list of corners is no set type
    with pytest.raises(DomainError, match="unsupported set type <class "):
        star_dimension_report(points)


def test_lower_report_examples():
    rep = lower_dimension_report(_cantor(8))
    assert all(abs(r.log_ratio - LOG2_3) < 1e-9 for r in rep.records)
    assert lower_dimension_report(CubeTree.full(2, 1, 6)).headline == 1.0
    # full subtree under 0, single chain under 1 -> min count 1
    full = CubeTree.full(2, 1, 9)
    from badicdim.extract_assouad import prune_with_caps
    chain = prune_with_caps(full, [1] * 9)
    mixed = full.subtree(((0,),), 8)
    a = CubeTree.from_leaves(2, 1, 9, [((0,),) + p for p in
                                       mixed.iter_leaf_paths()])
    b = CubeTree.from_leaves(2, 1, 9, [((1,),) + p[1:] for p in
                                       chain.iter_leaf_paths()])
    u = a.union(b)
    # at k_max = 8 the chain under "1" is a candidate cube with count 1
    assert lower_dimension_report(u, k_max=8).headline == 0.0


# the points 0, 1/4 and 1/2: the corners 0, 1 and 2 at scale 4
THREE = corners_tree(2, 1, 4, [(0,), (1,), (2,)])


def test_ball_cover_count_examples():
    single = corners_tree(2, 1, 2, [(1,)])  # the point 1/2
    assert ball_cover_count(single, (1,), Fraction(1), Fraction(1, 4)) == 1
    assert ball_cover_count(THREE, (1,), Fraction(9, 32),
                            Fraction(1, 16)) == 3
    assert ball_cover_count(_cantor(8), (0,), Fraction(1),
                            Fraction(1, 81)) == 16  # = N_{3^4} count


def test_ball_cover_count_refuses_radii_and_centers_by_name():
    for r in (Fraction(1, 4), Fraction(0), Fraction(-1, 8)):
        with pytest.raises(DomainError, match="^cover requires 0 < r < R$"):
            ball_cover_count(THREE, (1,), Fraction(1, 4), r)
    with pytest.raises(DomainError, match=(
            "^center must be a leaf corner of the tree$")):
        ball_cover_count(THREE, (3,), Fraction(1), Fraction(1, 4))


def _packing_count(tree, center, R, r) -> int:
    """The greedy packing count of the exact radii R > r on the tree's
    leaf corners, at scale D = base^depth."""
    D = tree.base**tree.depth
    lv = geometry.Level(math.floor(R * D), math.floor(2 * r * D))
    return len(geometry.greedy_packing(leaf_corners(tree), center, lv))


def test_packing_count_examples():
    assert _packing_count(THREE, (1,), Fraction(3, 10), Fraction(1, 10)) == 3
    single = corners_tree(2, 1, 2, [(0,)])
    assert _packing_count(single, (0,), Fraction(1), Fraction(1, 2)) == 1
    close = corners_tree(2, 1, 16, [(0,), (1,)])  # 0 and 1/16
    assert _packing_count(close, (0,), Fraction(1), Fraction(1, 5)) == 1


def test_sandwich_examples():
    rows = verify_cover_pack_sandwich(
        THREE, [((1,), Fraction(1, 2), Fraction(1, 10))])
    assert rows[0].ok and rows[0].method == "exact"
    single = corners_tree(2, 1, 2, [(0,)])
    rows = verify_cover_pack_sandwich(
        single, [((0,), Fraction(1), Fraction(1, 4))])
    assert rows[0].ok
    assert rows[0].cover_2r <= rows[0].packing <= rows[0].cover_r3 == 1


def test_sandwich_cantor_samples():
    tree = corners_tree(3, 1, 3**6, leaf_corners(_cantor(6))[:16])
    pts = leaf_corners(tree)
    rng = random.Random(0)
    samples = []
    for _ in range(10):
        center = pts[rng.randrange(len(pts))]
        R = Fraction(rng.randrange(6, 27), 27)
        r = R / rng.randrange(4, 9)
        samples.append((center, R, r))
    assert all(row.ok for row in verify_cover_pack_sandwich(tree, samples))


def test_ball_cube_consistency_factor():
    # finite-scale ball/cube agreement within 6^d on digit-rule trees
    tree = _cantor(6)
    for k in (1, 2, 3, 4):
        n_cube = h_star(tree, k)[0]
        n_ball = ball_cover_count(tree, (0,), Fraction(2), Fraction(1, 3**k))
        assert n_ball <= n_cube * 6 and n_cube <= n_ball * 6
