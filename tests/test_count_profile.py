"""The cached count profile and the windowed kernel against flat
recounts from the leaf list alone."""

import itertools

from hypothesis import given, settings, strategies as st

from badicdim.core import CubeTree, Window, WindowedSet, leaf_corners
from badicdim.estimators import (h_star, lower_dimension_report,
                                 star_dimension_report)
from badicdim.extract_assouad import find_dense_window
from badicdim.generators import (integer_cantor, lattice_window,
                                 oracle_exact_hstar, prop5_union,
                                 random_branching_tree)


def _flat_counts(tree):
    """{(level, k): {cube path: count}} from the leaf paths."""
    leaves = list(tree.iter_leaf_paths())
    table = {}
    for level in range(tree.depth + 1):
        for k in range(1, tree.depth - level + 1):
            per_cube = {}
            for path in leaves:
                per_cube.setdefault(path[:level], set()).add(
                    path[:level + k])
            table[level, k] = {q: len(s) for q, s in per_cube.items()}
    return table


def _scan(table, k, levels, largest):
    """(count, level, path) of the largest (smallest) count over the
    cubes of `levels`; ties to the smallest level, then path."""
    sign = -1 if largest else 1
    c, level, path = min((sign * c, level, q) for level in levels
                         for q, c in table[level, k].items())
    return sign * c, level, path


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]),
       st.sampled_from([1, 2]), st.integers(1, 7), st.integers(1, 3))
def test_profile_readers_match_flat_recounts(seed, b, d, depth, kids):
    tree = random_branching_tree(b, d, depth, min(kids, b**d), seed)
    table = _flat_counts(tree)
    star = star_dimension_report(tree).records
    lower = lower_dimension_report(tree).records
    for k in range(1, depth + 1):
        levels = range(depth - k + 1)
        count, _, path = _scan(table, k, levels, True)
        assert star[k - 1].count == count == oracle_exact_hstar(tree, k)
        assert star[k - 1].witness == str(tree.cube(path))
        count, _, path = _scan(table, k, levels, False)
        assert lower[k - 1].count == count
        assert lower[k - 1].witness == str(tree.cube(path))
    for n in range(1, depth + 1):
        count, level, path = _scan(
            table, n, range(min(n, depth - n), depth - n + 1), True)
        assert find_dense_window(tree, n) == (path, level, count)


def test_profile_is_one_walk_per_tree(monkeypatch):
    walks = []
    levels = CubeTree.levels

    def counted(self):
        walks.append(self)
        return levels(self)

    monkeypatch.setattr(CubeTree, "levels", counted)
    tree = random_branching_tree(2, 1, 8, 2, seed=5)
    star_dimension_report(tree)
    lower_dimension_report(tree)
    for n in range(1, 9):
        find_dense_window(tree, n)
    assert len(walks) == 1


# -- windowed kernel ------------------------------------------------------


def _flat_windowed_h_star(wset, k, kind):
    """H* and its witness from every occupied unit cell, scanning each
    aligned candidate cube (ties to the smallest side, then corner)."""
    b = wset.base
    unit = min(min(w.side_exp - w.tree.depth for w in wset.windows), 0)
    cells = set()
    for w in wset.windows:
        leaf = b ** (w.side_exp - w.tree.depth - unit)
        for corner in leaf_corners(w.tree):
            origin = [o * b**-unit + x * leaf
                      for o, x in zip(w.offset, corner)]
            cells.update(itertools.product(
                *(range(x, x + leaf) for x in origin)))
    top = unit
    while b ** (top - unit) <= max(max(c) for c in cells):
        top += 1
    best = None
    for j in range(unit + k, (0 if kind == "local" else top + 2) + 1):
        side, sub = b ** (j - unit), b ** (j - k - unit)
        per_cube = {}
        for c in cells:
            per_cube.setdefault(tuple(x // side * side for x in c),
                                set()).add(tuple(x // sub for x in c))
        for corner, subs in per_cube.items():
            key = (-len(subs), j, corner)
            if best is None or key < best:
                best = key
    return -best[0], (f"side=b^{best[1]} corner_units={best[2]} "
                      f"unit_exp={unit}")


def _coarse_and_fine():
    """Shallow windows beside deep ones, so that leaves are larger than
    the candidate cubes at small scales."""
    return [
        WindowedSet(2, 1, [
            Window((0,), 0, random_branching_tree(2, 1, 5, 2, 1)),
            Window((8,), 3, CubeTree.full(2, 1, 1)),
            Window((32,), 4, random_branching_tree(2, 1, 2, 2, 4))]),
        WindowedSet(2, 2, [
            Window((0, 0), 0, random_branching_tree(2, 2, 3, 3, 1)),
            Window((4, 0), 2, CubeTree.full(2, 2, 1)),
            Window((0, 8), 3, random_branching_tree(2, 2, 1, 2, 4))]),
        prop5_union(3, [0, 2], [0, 1, 2], 2, 3, chain=1),
    ]


def test_windowed_kernel_matches_flat_recount():
    sets = [lattice_window(2, 1, 5), lattice_window(2, 2, 2, chain=2),
            integer_cantor(3, 1, 3, [0, 2]),
            integer_cantor(3, 2, 2, [0, 2], chain=2),
            prop5_union(3, [0, 2], [0, 1, 2], 2, 3)] + _coarse_and_fine()
    for wset in sets:
        for kind in ("local", "global"):
            for k in range(1, 5):
                if kind == "local" and k > -min(
                        w.side_exp - w.tree.depth for w in wset.windows):
                    continue  # no candidate cube of side <= 1
                assert h_star(wset, k, kind) == \
                    _flat_windowed_h_star(wset, k, kind), (kind, k)


def test_windowed_full_leaf_witness_is_its_corner():
    # the far leaf of side 2^7 units at 8 * 2^5 fills every side-2^3
    # candidate inside it; its own corner is the smallest of them
    wset = _coarse_and_fine()[0]
    assert h_star(wset, 3, "global") == (
        8, "side=b^-2 corner_units=(256,) unit_exp=-5")
    assert h_star(wset, 4, "local") == (
        16, "side=b^-1 corner_units=(256,) unit_exp=-5")
