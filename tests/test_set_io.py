"""Set I/O: `.bdt`/`.wdt` round trips, the bottom-up builder's sharing,
pinned error texts and deep trees."""

import pytest
from hypothesis import given, settings, strategies as st

from badicdim.core import (CubeTree, DomainError, SetFormatError, Window,
                           WindowedSet, read_bdt, read_wdt, write_bdt,
                           write_wdt)
from badicdim.generators import random_branching_tree


def _nodes(tree):
    return sum(len(level) for level in tree.levels())


def _distinct_subtrees(tree):
    """The number of structurally distinct subtrees: the distinct-node
    count of a fully hash-consed tree."""
    memo = {}

    def shape(node):
        if id(node) not in memo:
            memo[id(node)] = tuple((key, shape(child))
                                   for key, child in node.children)
        return memo[id(node)]

    return len({shape(node) for level in tree.levels() for node in level})


@st.composite
def _trees(draw):
    base = draw(st.integers(2, 10))
    dim = draw(st.sampled_from([1, 2]))
    depth = draw(st.integers(0, 6))
    cap = draw(st.integers(1, min(3, base**dim)))
    seeds = draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=2))
    return [random_branching_tree(base, dim, depth, cap, s) for s in seeds]


@settings(max_examples=60, deadline=None)
@given(_trees())
def test_round_trips_keep_text_set_and_sharing(trees):
    for t in trees:
        text = write_bdt(t)
        back = read_bdt(text)
        assert write_bdt(back) == text
        assert back == t
        assert _nodes(back) == _distinct_subtrees(t) <= _nodes(t)
    a, b = trees
    wset = WindowedSet(a.base, a.dim, [
        Window((0,) * a.dim, a.depth, a),
        Window((3 * a.base**a.depth,) + (0,) * (a.dim - 1), 1, b)])
    text = write_wdt(wset)
    back = read_wdt(text)
    assert write_wdt(back) == text
    for w, v in zip(wset.windows, back.windows):
        assert (v.offset, v.side_exp) == (w.offset, w.side_exp)
        assert v.tree == w.tree
        assert _nodes(v.tree) == _distinct_subtrees(w.tree)


@pytest.mark.parametrize("text, line_no, message", [
    ("bdt b=3 d=1 n=2\n01\n\n02\n", 3, "blank line"),
    ("bdt b=3 d=1 n=2\n01\n01\n", 3, "duplicate leaf line '01'"),
    ("bdt b=3 d=2 n=2\n01,12\n0112\n", 3, "expected 2 coordinates"),
    ("bdt b=3 d=2 n=2\n01,12\n01,1\n", 3,
     "digit string '1' must have length 2"),
    ("bdt b=3 d=1 n=2\n0²\n", 2, "bad digit '²'"),
    ("bdt b=3 d=1 n=2\n10\na1\n", 3, "bad digit 'a'"),
    ("bdt b=3 d=1 n=2\n03\n", 2, "bad digit '3'"),
    # axis by axis: the first axis's bad digit comes before the second
    # axis's bad length
    ("bdt b=3 d=2 n=2\n0a,1\n", 2, "bad digit 'a'"),
    ("wdt b=2 d=1 windows=2\nwindow off=0 m=1\n01\nwindow off=8 m=1\n",
     4, "window has no leaf lines"),
    ("wdt b=3 d=2 windows=1\nwindow off=0,0 m=1\n01,12\n0,1\n", 4,
     "digit string '0' must have length 2"),
    ("wdt b=3 d=1 windows=1\nwindow off=0 m=1\n01\n0²\n", 4,
     "bad digit '²'"),
])
def test_parse_errors_are_pinned(text, line_no, message):
    read = read_bdt if text.startswith("bdt") else read_wdt
    with pytest.raises(SetFormatError) as e:
        read(text)
    assert e.value.line_no == line_no
    assert str(e.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize("paths, message", [
    ([((1,),), ((0,), (5,))], "bad digit key (5,)"),
    ([((0,),), ((1,), (5,))], "leaf path length must equal depth"),
])
def test_builder_names_the_first_bad_path_in_sorted_order(paths, message):
    with pytest.raises(DomainError) as e:
        CubeTree.from_leaves(2, 1, 2, paths)
    assert str(e.value) == message


def test_depth_3000_chain_round_trips():
    path = tuple((i % 3,) for i in range(3000))
    tree = CubeTree.from_leaves(3, 1, 3000, [path])
    back = read_bdt(write_bdt(tree))
    assert back.depth == 3000 and back.leaf_count == 1
    assert write_bdt(back) == write_bdt(tree)


def test_write_refuses_too_many_leaves():
    with pytest.raises(DomainError) as e:
        write_bdt(CubeTree.full(2, 1, 3), limit=7)
    assert str(e.value) == "leaf enumeration of 8 exceeds 7"
