import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from badicdim import geometry
from badicdim.core import (CubeTree, DomainError, SetFormatError, Window,
                           WindowedSet, corners_tree, leaf_corners, path_text,
                           read_bdt, read_wdt, write_bdt, write_wdt)
from badicdim.estimators import (lower_dimension_report,
                                 star_dimension_report,
                                 verify_cover_pack_sandwich)
from badicdim.extract_assouad import (StageRecord, construct_subset_assouad,
                                      sandwich_assemble)
from badicdim.extract_lower import (LowerParams, construct_subset_lower,
                                    verify_lower_bounds)
from badicdim.generators import digit_cantor, random_branching_tree


def test_report_digits_are_set_file_digits():
    # a base-16 witness names its cube as the set file does: 1f, not 1.15
    tree = read_bdt("bdt b=16 d=1 n=3\n1f0\n1f1\n1fa\n200\n")
    assert [r.witness for r in star_dimension_report(tree).records] == [
        "1f", "1", "root"]
    # a path is level-major; the text is axis-major
    assert path_text(16, ((1, 10), (15, 0))) == "1f,a0"
    assert path_text(16, ()) == "root"
    row = StageRecord(1, ((1,), (15,)), 2, 3, 4, True, base=16)
    assert row.tsv_row() == "1\t1|f\t2\t3\t4\tok"
    # bases above 36 have no digit characters: dotted decimals
    assert path_text(40, ((1,), (38,))) == "1.38"
    assert path_text(40, ((1, 0), (38, 39))) == "1.38,0.39"


@pytest.mark.parametrize("run", [
    lambda: star_dimension_report(random_branching_tree(2, 1, 6, 2, 1)),
    lambda: lower_dimension_report(random_branching_tree(2, 1, 6, 2, 1)),
    lambda: construct_subset_assouad(
        digit_cantor(3, 1, [0, 2], 18).rebase(3), Fraction(2, 5),
        Fraction(1, 5), 3),
    lambda: sandwich_assemble(CubeTree.full(2, 1, 12), Fraction(1, 2), 2),
    lambda: verify_cover_pack_sandwich(
        digit_cantor(3, 1, [0, 2], 4),
        [((0,), Fraction(1, 2), Fraction(1, 9))]),
    lambda: verify_lower_bounds(construct_subset_lower(
        CubeTree.full(5, 1, 4), LowerParams(Fraction(2, 5), 5, 1)))],
    ids=["star", "lower", "construct", "ladder", "sandwich", "verify"])
def test_records_compare_by_value(run):
    # the lower case's radii are irrational: 5**(-5/2) at k = 1
    first, second = run(), run()
    assert first is not second and first == second


def test_full_tree_counts():
    t = CubeTree.full(2, 1, 30)
    assert t.leaf_count == 2**30  # exact, via shared subtrees
    assert t.descendant_count(t.root, 7) == 128


def test_digit_rule_tree():
    t = CubeTree.from_digit_rule(3, 1, 4, [(0,), (2,)])
    assert t.leaf_count == 16
    assert t.node_at(((1,),)) is None
    assert t.node_at(((0,), (2,))) is not None


def test_from_leaves_and_levels():
    paths = [((0,), (0,)), ((0,), (1,)), ((1,), (1,))]
    t = CubeTree.from_leaves(2, 1, 2, paths)
    assert t.leaf_count == 3
    layers = list(t.levels())
    assert len(layers) == 3
    assert list(layers[0].values()) == [()]


def test_contains_and_union():
    a = CubeTree.from_leaves(2, 1, 2, [((0,), (0,))])
    b = CubeTree.from_leaves(2, 1, 2, [((1,), (1,))])
    u = a.union(b)
    assert u.leaf_count == 2
    assert u.contains_tree(a) and u.contains_tree(b)
    assert not a.contains_tree(u)


def test_subtree_truncation():
    t = CubeTree.full(2, 1, 5)
    s = t.subtree(((0,),), 3)
    assert s.depth == 3 and s.leaf_count == 8
    with pytest.raises(DomainError):
        t.subtree(((0,),), 5)


def test_rebase_and_debase_roundtrip():
    t = random_branching_tree(2, 1, 8, 2, seed=5)
    r = t.rebase(2)
    assert r.base == 4 and r.depth == 4
    assert r.leaf_count == t.leaf_count
    back = r.debase(2)
    assert back == t
    with pytest.raises(DomainError):
        r.debase(3)


def test_rebase_counts_match_full():
    t = CubeTree.full(2, 1, 12)
    r = t.rebase(4)
    assert r.base == 16 and r.depth == 3 and r.leaf_count == 2**12


def test_leaf_representatives():
    # one point per leaf cube: its lower-left corner, at scale 9
    t = CubeTree.from_digit_rule(3, 1, 2, [(0,), (2,)])
    assert leaf_corners(t) == [(0,), (2,), (6,), (8,)]


def _values(tree) -> set:
    """The leaf corners of `tree` as exact points of [0, 1)^d."""
    D = tree.base**tree.depth
    return {tuple(Fraction(v, D) for v in c) for c in leaf_corners(tree)}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (4, 1), (6, 1), (2, 2), (3, 2)]),
       st.integers(1, 5), st.integers(0, 10**6), st.integers(0, 3))
def test_corners_tree_inverts_leaf_corners(shape, depth, seed, finer):
    # the corners may be given at any scale base^(depth + finer)
    base, dim = shape
    tree = random_branching_tree(base, dim, depth, 2, seed)
    scale = base**(depth + finer)
    back = corners_tree(base, dim, scale, [
        tuple(v * base**finer for v in c) for c in leaf_corners(tree)])
    assert _values(back) == _values(tree)
    assert 1 <= back.depth <= depth
    # the shallowest: one level less leaves some corner off the grid
    assert back.depth == 1 or any(
        v % base for c in leaf_corners(back) for v in c)
    if any(any(path[-1]) for path in tree.iter_leaf_paths()):
        assert back == tree


def test_corners_tree_edge_cases():
    origin = corners_tree(2, 2, 8, [(0, 0)])
    assert (origin.depth, list(origin.iter_leaf_paths())) == (
        1, [((0, 0),)])
    # scales that divide a power of the base: 1/2 in base 6, 5/6 in 36
    assert _values(corners_tree(6, 1, 2, [(1,)])) == {(Fraction(1, 2),)}
    assert _values(corners_tree(36, 1, 12, [(10,)])) == {(Fraction(5, 6),)}
    # repeated corners are one leaf
    assert corners_tree(2, 1, 2, [(1,), (0,), (1,)]).leaf_count == 2
    for scale, corner in ((3, (1,)), (2, (2,)), (2, (-1,))):
        with pytest.raises(DomainError, match=(
                f"^a coordinate over {scale} is not a base-2 fraction in "
                r"\[0, 1\)$")):
            corners_tree(2, 1, scale, [corner])
    with pytest.raises(DomainError, match="^bad digit key"):
        corners_tree(2, 1, 2, [(0, 0)])


def test_windowed_set_disjointness():
    t = CubeTree.full(2, 1, 1)
    with pytest.raises(DomainError):
        WindowedSet(2, 1, [Window((0,), 1, t), Window((1,), 1, t)])
    ws = WindowedSet(2, 1, [Window((0,), 1, t), Window((4,), 1, t)])
    assert len(ws) == 2


def test_windowed_set_needs_a_window():
    with pytest.raises(DomainError,
                       match="^windowed set needs at least one window$"):
        WindowedSet(2, 1, [])


@pytest.mark.parametrize("offset", [(0,), (0, 0, 0)], ids=["short", "long"])
def test_windowed_set_refuses_an_offset_of_another_dim(offset):
    t = CubeTree.full(2, 2, 2)
    text = f"window offset {offset} does not have 2 coordinates"
    with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
        WindowedSet(2, 2, [Window((4, 4), 1, t), Window(offset, 1, t)])


def test_bdt_roundtrip_fixed():
    t = CubeTree.from_digit_rule(3, 1, 3, [(0,), (2,)])
    text = write_bdt(t)
    assert text.splitlines()[0] == "bdt b=3 d=1 n=3"
    assert read_bdt(text) == t


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=2, max_value=3),
       st.integers(min_value=1, max_value=5))
def test_bdt_roundtrip_random(seed, base, depth):
    t = random_branching_tree(base, 1, depth, base, seed)
    assert read_bdt(write_bdt(t)) == t


def test_bdt_parse_errors_report_lines():
    with pytest.raises(SetFormatError) as e:
        read_bdt("")
    assert e.value.line_no == 1
    with pytest.raises(SetFormatError) as e:
        read_bdt("bdt b=2 d=1 n=2\n01\n0")
    assert e.value.line_no == 3
    with pytest.raises(SetFormatError) as e:
        read_bdt("bdt b=2 d=1 n=2\n02")
    assert e.value.line_no == 2
    with pytest.raises(SetFormatError) as e:
        read_bdt("bdt b=2 d=1 n=1\n0\n0")
    assert e.value.line_no == 3  # duplicate leaf


@pytest.mark.parametrize("dim", [1, 2])
def test_depth0_roundtrip(dim):
    # the root's leaf line is empty in d = 1 and "," in d = 2
    t = CubeTree.full(2, dim, 0)
    back = read_bdt(write_bdt(t))
    assert back.depth == 0 and back.leaf_count == 1
    assert back.contains_tree(t) and t.contains_tree(back)
    ws = WindowedSet(2, dim, [Window((0,) * dim, 0, t)])
    wback = read_wdt(write_wdt(ws))
    assert wback.windows[0].tree.depth == 0
    assert wback.windows[0].tree.leaf_count == 1


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "a", "-"])
def test_non_ascii_or_bad_digit_is_a_format_error(digit):
    # '\u00b2' (superscript two) passes str.isdigit() but not int()
    with pytest.raises(SetFormatError) as e:
        read_bdt(f"bdt b=4 d=1 n=2\n01\n0{digit}\n")
    assert e.value.line_no == 3
    with pytest.raises(SetFormatError) as e:
        read_wdt(f"wdt b=4 d=1 windows=1\nwindow off=0 m=2\n{digit}1\n")
    assert e.value.line_no == 3


def test_wdt_roundtrip():
    t1 = CubeTree.full(2, 1, 2)
    t2 = CubeTree.from_leaves(2, 1, 2, [((0,), (1,))])
    ws = WindowedSet(2, 1, [Window((0,), 1, t1), Window((8,), 1, t2)])
    text = write_wdt(ws)
    back = read_wdt(text)
    assert len(back) == 2
    assert back.windows[0].offset == (0,)
    assert back.windows[1].tree == t2
    assert write_wdt(back) == text


def test_wdt_parse_errors():
    with pytest.raises(SetFormatError):
        read_wdt("wdt b=2 d=1 windows=2\nwindow off=0 m=1\n00\n")
    with pytest.raises(SetFormatError):
        read_wdt("not a header\n")


def test_structure_sharing_is_compact():
    # a full depth-30 binary tree must be one node chain via interning
    t = CubeTree.full(2, 1, 30)
    seen = set()
    node = t.root
    while node.children:
        seen.add(id(node))
        assert all(c is node.children[0][1] for _, c in node.children)
        node = node.children[0][1]
    assert len(seen) == 30


def _listed_sweep(tree, w, lo, hi, apart, skip):
    """`CubeTree.sweep` by its definition: the greedy sweep of the listed
    corners of level w in [lo, hi], less those within `apart` of
    `skip`."""
    return geometry._sweep([
        c for c in leaf_corners(tree, w) if lo <= c[0] <= hi
        and (skip is None or abs(c[0] - skip) > apart)], apart)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5), st.integers(0, 5), st.integers(0, 10**6),
       st.sampled_from([1.0, 0.6, 0.3, 0.05]))
def test_sweep_matches_the_listed_sweep(base, depth, seed, keep):
    while base**depth > 625:
        depth -= 1
    rng = random.Random(seed)
    keys = [(k,) for k in range(base)]
    paths = [p for p in itertools.product(keys, repeat=depth)
             if rng.random() < keep]
    tree = CubeTree.from_leaves(base, 1, depth,
                                paths or [(rng.choice(keys),) * depth])
    for w in range(depth + 1):
        side = base**w
        # the whole level and beyond it on both sides, then random windows
        windows = [(-2, side + 1, apart, skip) for apart in (0, 1, side)
                   for skip in (None, 0, side // 2)]
        for _ in range(12):
            lo = rng.randint(-3, side + 1)
            windows.append((lo, rng.randint(lo - 1, side + 3),
                            rng.randint(0, side),
                            rng.choice([None, rng.randint(-3, side + 3)])))
        for lo, hi, apart, skip in windows:
            assert list(tree.sweep(w, lo, hi, apart, skip)) == _listed_sweep(
                tree, w, lo, hi, apart, skip)


def test_sweep_needs_one_dimension():
    with pytest.raises(DomainError, match="d = 1"):
        next(CubeTree.full(2, 2, 3).sweep(1, 0, 7, 0))


def test_sweep_walks_a_deep_chain_without_recursion():
    # one leaf at depth 3000: its corner is the only one at every level
    rng = random.Random(3000)
    path = tuple((rng.randrange(3),) for _ in range(3000))
    tree = CubeTree.from_leaves(3, 1, 3000, [path])
    corner = 0
    for (key,) in path:
        corner = corner * 3 + key
    assert list(tree.sweep(3000, -1, 3**3000, 0)) == [(corner,)]
    assert list(tree.sweep(3000, 0, corner - 1, 0)) == []
    assert list(tree.sweep(3000, corner + 1, 3**3000, 0)) == []
    assert list(tree.sweep(3000, 0, 3**3000, 1, corner)) == []
