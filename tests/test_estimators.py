import math
import random
from fractions import Fraction

import pytest

from badicdim.core import (BadicCube, CubeTree, DomainError, PointSet,
                           Window, WindowedSet, leaf_representatives)
from badicdim.estimators import (ball_cover_count, count_hit_subcubes,
                                 h_star, lower_dimension_report,
                                 packing_count, star_dimension_report,
                                 verify_cover_pack_sandwich)
from badicdim.generators import (digit_cantor, lattice_window, one_over_k,
                                 random_branching_tree)

LOG2_3 = math.log(2) / math.log(3)


def _cantor(depth):
    return digit_cantor(3, 1, [0, 2], depth)


def test_count_hit_subcubes_examples():
    full = CubeTree.full(2, 1, 3)
    root = BadicCube(2, 0, ((),))
    assert count_hit_subcubes(full, root, 1) == 2
    c = _cantor(4)
    root3 = BadicCube(3, 0, ((),))
    assert count_hit_subcubes(c, root3, 1) == 2
    assert count_hit_subcubes(c, root3, 2) == 4
    assert count_hit_subcubes(c, BadicCube(3, 1, ((1,),)), 1) == 0
    with pytest.raises(DomainError):
        count_hit_subcubes(c, root3, 5)  # beyond resolution
    with pytest.raises(DomainError):
        count_hit_subcubes(c, root3, 0)


def test_h_star_tree_examples():
    count, witness = h_star(_cantor(6), 3)
    assert count == 8
    assert witness.level == 0  # root witness by homogeneity + tie-break
    chain = CubeTree.from_leaves(2, 1, 5, [(((0,),) * 5)[0:5]])
    for k in range(1, 6):
        assert h_star(chain, k)[0] == 1


def test_h_star_witness_reproduces_count():
    tree = random_branching_tree(3, 1, 6, 2, seed=11)
    for k in (1, 2, 3):
        count, witness = h_star(tree, k)
        assert count_hit_subcubes(tree, witness, k) == count


def test_star_report_cantor_every_scale():
    rep = star_dimension_report(_cantor(8))
    for rec in rep.records:
        assert abs(rec.log_ratio - LOG2_3) < 1e-9
    assert rep.headline == rep.records[-1].log_ratio
    lo, hi = rep.envelope
    assert abs(lo - hi) < 1e-12


def test_star_report_full_square():
    rep = star_dimension_report(CubeTree.full(2, 2, 5))
    assert all(abs(r.log_ratio - 2.0) < 1e-12 for r in rep.records)


def test_star_report_one_over_k_envelope():
    # convergence diagnostic only: headline strictly inside (0, 1)
    t = one_over_k(64, 12)
    rep = star_dimension_report(t)
    assert 0 < rep.headline < 1
    lo, hi = rep.envelope
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


def test_ball_cover_count_examples():
    single = PointSet.of(2, 1, [(Fraction(1, 2),)])
    assert ball_cover_count(single, (Fraction(1, 2),), Fraction(1),
                            Fraction(1, 4)) == 1
    three = PointSet.of(2, 1, [(0,), (Fraction(1, 2),), (1,)])
    assert ball_cover_count(three, (Fraction(1, 2),), Fraction(9, 16),
                            Fraction(1, 8)) == 3
    pts = leaf_representatives(_cantor(8))
    pts3 = PointSet.of(3, 1, pts.points)
    assert ball_cover_count(pts3, (Fraction(0),), Fraction(1),
                            Fraction(1, 81)) == 16  # = N_{3^4} count


def test_packing_count_examples():
    three = PointSet.of(2, 1, [(0,), (Fraction(1, 2),), (1,)])
    assert packing_count(three, (Fraction(1, 2),), Fraction(3, 5),
                         Fraction(1, 5)) == 3
    single = PointSet.of(2, 1, [(Fraction(0),)])
    assert packing_count(single, (Fraction(0),), Fraction(1),
                         Fraction(1, 2)) == 1
    close = PointSet.of(2, 1, [(0,), (Fraction(1, 10),)])
    assert packing_count(close, (Fraction(0),), Fraction(1),
                         Fraction(1, 5)) == 1


def test_sandwich_examples():
    three = PointSet.of(2, 1, [(0,), (Fraction(1, 2),), (1,)])
    rows = verify_cover_pack_sandwich(
        three, [((Fraction(1, 2),), Fraction(1), Fraction(1, 5))])
    assert rows[0].ok and rows[0].method == "exact"
    single = PointSet.of(2, 1, [(Fraction(0),)])
    rows = verify_cover_pack_sandwich(
        single, [((Fraction(0),), Fraction(1), Fraction(1, 4))])
    assert rows[0].ok
    assert rows[0].cover_2r <= rows[0].packing <= rows[0].cover_r3 == 1


def test_sandwich_cantor_samples():
    pts = PointSet.of(3, 1, leaf_representatives(_cantor(6)).points[:16])
    rng = random.Random(0)
    samples = []
    for _ in range(10):
        center = pts.points[rng.randrange(len(pts.points))]
        R = Fraction(rng.randrange(6, 27), 27)
        r = R / rng.randrange(4, 9)
        samples.append((center, R, r))
    assert all(row.ok for row in verify_cover_pack_sandwich(pts, samples))


def test_ball_cube_consistency_factor():
    # finite-scale ball/cube agreement within 6^d on digit-rule trees
    tree = _cantor(6)
    pts = leaf_representatives(tree)
    pts = PointSet.of(3, 1, pts.points)
    for k in (1, 2, 3, 4):
        n_cube = h_star(tree, k)[0]
        n_ball = ball_cover_count(pts, (Fraction(0),), Fraction(2),
                                  Fraction(1, 3**k))
        assert n_ball <= n_cube * 6 and n_cube <= n_ball * 6
