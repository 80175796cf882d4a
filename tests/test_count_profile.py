"""The cached count profile and the windowed kernel against flat
recounts from the leaf list alone."""

import itertools
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from badicdim import core
from badicdim.core import (CubeNode, CubeTree, DomainError, Window,
                           WindowedSet, leaf_corners, path_text)
from badicdim.estimators import (h_star, lower_dimension_report,
                                 star_dimension_report)
from badicdim.extract_assouad import find_dense_window, prune_with_caps
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
        assert star[k - 1].witness == path_text(b, path)
        count, _, path = _scan(table, k, levels, False)
        assert lower[k - 1].count == count
        assert lower[k - 1].witness == path_text(b, path)
    for n in range(1, depth + 1):
        count, level, path = _scan(
            table, n, range(min(n, depth - n), depth - n + 1), True)
        assert find_dense_window(tree, n) == (path, level, count)
    for (level, k), per_cube in table.items():
        for q, count in per_cube.items():
            assert tree.descendant_count(tree.node_at(q), k) == count
            if level == 0:
                assert list(tree.level_counts())[k] == count
    assert tree.leaf_count == table[0, depth][()]


def _unshared(tree):
    """A copy of `tree` with one node object per path."""
    def copy(node):
        return CubeNode(tuple((key, copy(child))
                              for key, child in node.children))

    return CubeTree(tree.base, tree.dim, tree.depth, copy(tree.root))


def _readings(tree):
    return (star_dimension_report(tree).to_tsv(),
            lower_dimension_report(tree).to_tsv(),
            [find_dense_window(tree, n) for n in range(1, tree.depth + 1)])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]),
       st.sampled_from([1, 2]), st.integers(2, 6), st.integers(1, 3))
def test_profile_does_not_depend_on_sharing(seed, b, d, depth, kids):
    tree = random_branching_tree(b, d, depth, min(kids, b**d), seed)
    for form in (tree, tree.rebase(2)):
        copies = [form, _unshared(form), CubeTree.from_leaves(
            form.base, form.dim, form.depth, form.iter_leaf_paths())]
        first = _readings(copies[0])
        for copy in copies[1:]:
            assert _readings(copy) == first


def test_profile_of_deep_trees_needs_no_recursion():
    for tree in (random_branching_tree(2, 1, 1500, 1, 0),
                 CubeTree.full(2, 1, 1500)):
        star = star_dimension_report(tree).records
        lower = lower_dimension_report(tree).records
        full = tree.leaf_count > 1
        assert [r.count for r in star] == \
            [2**k if full else 1 for k in range(1, 1501)]
        assert [r.count for r in lower] == [r.count for r in star]
        assert star[-1].witness == lower[-1].witness == "root"


@pytest.mark.parametrize("k, lo, hi", [
    (0, 0, None), (-1, 0, None), (4, 0, None), (1, 2, 1), (1, -2, None),
    (1, 0, 3), (2, 2, None)])
def test_extreme_count_rejects_scales_and_levels_out_of_range(k, lo, hi):
    with pytest.raises(DomainError):
        CubeTree.full(2, 1, 3).extreme_count(k, lo=lo, hi=hi)


def test_deep_leaf_counts_keep_one_count_per_node():
    # a whole count vector per node would hold O(depth^3) bits here
    tree = CubeTree.full(2, 1, 5000)
    tracemalloc.start()
    try:
        assert tree.leaf_count == 2**5000
        assert prune_with_caps(tree, [1] * 5000).leaf_count == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_profile_is_one_walk_per_tree(monkeypatch):
    tree = random_branching_tree(2, 1, 8, 2, seed=5)
    walks = []
    walk = core.walk

    def counted(layer, *args, **kwargs):
        if tree.root in layer:
            walks.append(layer)
        return walk(layer, *args, **kwargs)

    def uncounted(self, node, k):
        raise AssertionError("the profile sums count vectors instead")

    monkeypatch.setattr(core, "walk", counted)
    monkeypatch.setattr(CubeTree, "descendant_count", uncounted)
    star_dimension_report(tree)
    lower_dimension_report(tree)
    for n in range(1, 9):
        find_dense_window(tree, n)
    assert len(walks) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]),
       st.sampled_from([1, 2]), st.integers(1, 6), st.integers(1, 3))
def test_single_level_reads_match_flat_recounts(seed, b, d, depth, kids):
    # the windowed kernel and check_prune_hypotheses read one level each
    tree = random_branching_tree(b, d, depth, min(kids, b**d), seed)
    table = _flat_counts(tree)
    for k in range(1, depth + 1):
        for i in range(depth - k + 1):
            for largest in (True, False):
                assert tree.extreme_count(k, largest, lo=i, hi=i) == \
                    _scan(table, k, [i], largest)


def test_deep_witness_path_is_built_without_recursion():
    tree = random_branching_tree(2, 1, 1500, 1, 0)
    (leaf,) = tree.iter_leaf_paths()
    assert tree.extreme_count(1, lo=1499, hi=1499) == (1, 1499, leaf[:1499])


# -- windowed kernel ------------------------------------------------------


def _flat_windowed_h_star(wset, k, kind):
    """H* and its witness from every occupied unit cell, scanning each
    aligned candidate cube of side up to b^(top + 1), b^top the first
    power of b that reaches the largest absolute coordinate (ties to the
    smallest side, then corner)."""
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
    top = unit  # b^top: the first power reaching the largest |coordinate|
    while b ** (top - unit) < max(max(x + 1, -x) for c in cells for x in c):
        top += 1
    scales = range(unit + k, (0 if kind == "local" else top + 1) + 1)
    if not scales:
        raise DomainError(f"no admissible cubes for k={k} ({kind})")
    best = None
    for j in scales:
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
        # side-3 leaves one cell off the base-3 grid
        WindowedSet(3, 1, [Window((1,), 2, CubeTree.full(3, 1, 1))]),
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


def _answer(kernel, wset, k, kind):
    try:
        return kernel(wset, k, kind)
    except DomainError as exc:
        return str(exc)


@st.composite
def _windowed_sets(draw):
    """Up to three disjoint windows at any integer offset, negative and
    off the grid included, with leaves finer or coarser than one unit."""
    b, d = draw(st.sampled_from([2, 3])), draw(st.sampled_from([1, 2]))
    windows = []
    for _ in range(draw(st.integers(1, 3))):
        m, n = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        offset = tuple(draw(st.integers(-12, 12)) * draw(
            st.sampled_from([1, b, b * b])) for _ in range(d))
        tree = random_branching_tree(b, d, n, draw(st.integers(1, b**d)),
                                     draw(st.integers(0, 10**6)))
        try:
            WindowedSet(b, d, windows + [Window(offset, m, tree)])
        except DomainError:  # overlapping footprints
            continue
        windows.append(Window(offset, m, tree))
    unit = min(min(w.side_exp - w.tree.depth for w in windows), 0)
    assume(sum(b ** ((w.side_exp - unit) * d) for w in windows) <= 2000)
    return WindowedSet(b, d, windows)


@settings(max_examples=100, deadline=None)
@given(_windowed_sets())
def test_windowed_kernel_matches_flat_oracle(wset):
    for kind in ("local", "global"):
        for k in itertools.count(1):
            got = _answer(h_star, wset, k, kind)
            assert got == _answer(_flat_windowed_h_star, wset, k, kind), \
                (kind, k)
            if isinstance(got, str):  # no scale admits k, nor any larger k
                break


def test_global_range_reaches_negative_coordinates():
    # the side-4 cube [-4, 0) holds all four cells, as [4, 8) does at
    # offset 4; a range from the largest coordinate alone stopped at side 2
    for offset in (-4, 4):
        wset = WindowedSet(2, 1, [
            Window((offset,), 2, CubeTree.full(2, 1, 2))])
        assert h_star(wset, 2, "global") == (
            4, f"side=b^2 corner_units=({offset},) unit_exp=0")
        assert h_star(wset, 2, "global") == \
            _flat_windowed_h_star(wset, 2, "global")


def test_windowed_kernel_on_a_deep_window():
    chain = CubeTree.from_leaves(2, 1, 1500, [((1,),) * 1500])
    wset = WindowedSet(2, 1, [Window((4,), 0, chain)])
    for kind in ("local", "global"):
        report = star_dimension_report(wset, kind, 3)
        assert [r.count for r in report.records] == [1, 1, 1]
    assert h_star(wset, 1500, "global") == (
        1, f"side=b^0 corner_units=({4 * 2**1500},) unit_exp=-1500")


def test_lattice_forest_shares_the_window_trees():
    wset = prop5_union(4, [0, 2], [0, 1, 2], 6, 8)
    unit, j_hi, roots = wset.lattice_forest()
    top = unit + roots[0][1].depth
    forest = set().union(*(level for _, tree in roots
                           for level in tree.levels()))
    windows = set().union(*(level for w in wset.windows
                            for level in w.tree.levels()))
    # both windows are aligned: each is grafted at its root, level side_exp
    grafts = sum(top - w.side_exp for w in wset.windows)
    assert len(roots) == 1
    assert len(forest) <= len(windows) + grafts
    assert {w.tree.root for w in wset.windows} <= forest
