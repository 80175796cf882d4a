"""Tree transforms (`subtree`, `union`, `contains_tree`, `rebase`,
`debase`, `prune_with_caps`, random `prune`) against flat leaf-path
sets, their hash-consing, and trees deeper than the interpreter's
recursion limit."""

from hypothesis import given, settings, strategies as st

from badicdim.core import CubeTree
from badicdim.extract_assouad import PruneParams, prune, prune_with_caps
from badicdim.generators import random_branching_tree


def _paths(tree):
    return set(tree.iter_leaf_paths())


def _nodes(tree):
    return sum(len(level) for level in tree.levels())


def _distinct_subtrees(tree):
    """The number of structurally distinct subtrees, bottom level first:
    the distinct-node count of a fully hash-consed tree."""
    shape = {}
    for level in reversed(list(tree.levels())):
        for node in level:
            shape[node] = tuple((key, shape[child])
                                for key, child in node.children)
    return len(set(shape.values()))


def _hash_consed(tree):
    return _nodes(tree) == _distinct_subtrees(tree)


def _regroup(path, t, base):
    """A base-b key path read as base b^t: each block of t keys becomes
    one key, digit by digit per axis; a partial last block is dropped."""
    out = []
    for start in range(0, len(path) - t + 1, t):
        block = path[start:start + t]
        key = []
        for axis in range(len(block[0])):
            value = 0
            for k in block:
                value = value * base + k[axis]
            key.append(value)
        out.append(tuple(key))
    return tuple(out)


def _ascending(tree):
    return all(list(level.values()) == sorted(level.values())
               for level in tree.levels())


def test_levels_are_in_ascending_path_order():
    for seed in range(6):
        a, b = (random_branching_tree(3, 2, 4, 5, seed + i) for i in (0, 9))
        r = a.rebase(2)
        for tree in (a, r, r.debase(3), prune_with_caps(a, [2, 1, 3, 2]),
                     a.union(b)):
            assert tree.dim == 2 and _ascending(tree)


@st.composite
def _trees(draw):
    base = draw(st.sampled_from([2, 3]))
    dim = draw(st.sampled_from([1, 2]))
    depth = draw(st.integers(0, 6))
    cap = draw(st.integers(1, base**dim))
    seeds = draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=2))
    caps = draw(st.lists(st.integers(1, base**dim), min_size=depth,
                         max_size=depth))
    return [random_branching_tree(base, dim, depth, cap, s)
            for s in seeds], caps


@settings(max_examples=80, deadline=None)
@given(_trees())
def test_transforms_match_flat_leaf_sets(case):
    (a, b), caps = case
    pa, pb = _paths(a), _paths(b)
    assert _hash_consed(a)

    for k in range(a.depth + 1):
        sub = a.subtree((), k)
        assert _paths(sub) == {p[:k] for p in pa}
        assert _hash_consed(sub)
    some = min(pa)
    for n in range(a.depth + 1):
        sub = a.subtree(some[:n], a.depth - n)
        assert _paths(sub) == {p[n:] for p in pa if p[:n] == some[:n]}

    u = a.union(b)
    assert _paths(u) == pa | pb
    assert _hash_consed(u)

    assert a.contains_tree(b) == (pb <= pa)
    assert b.contains_tree(a) == (pa <= pb)
    assert u.contains_tree(a) and u.contains_tree(b)
    assert (a == b) == (pa == pb)

    for t in (2, 3):
        r = a.rebase(t)
        assert (r.base, r.depth) == (a.base**t, a.depth // t)
        assert _paths(r) == {_regroup(p, t, a.base) for p in pa}
        assert _hash_consed(r)
        if a.depth % t == 0:
            back = r.debase(a.base)
            assert back == a
            assert _hash_consed(back)

    pruned = prune_with_caps(a, caps)
    kept = _paths(pruned)
    assert kept <= pa
    assert a.contains_tree(pruned)
    assert _hash_consed(pruned)
    # each kept node keeps min(cap, its children in the source)
    for level in range(a.depth):
        wanted = {}
        for p in pa:
            wanted.setdefault(p[:level], set()).add(p[level])
        got = {}
        for p in kept:
            got.setdefault(p[:level], set()).add(p[level])
        for prefix, keys in got.items():
            assert len(keys) == min(caps[level], len(wanted[prefix]))

    # eps = d puts the random prune's leaf bound at or below 1
    cap = min(caps, default=1)
    drawn = prune(a, PruneParams(cap, 0, a.dim, "random", len(pa)),
                  check_hypotheses=False)
    assert _paths(drawn) <= pa
    assert _hash_consed(drawn)


def _first_path(tree, n):
    """The first n keys of the tree's smallest leaf path."""
    node, path = tree.root, []
    for _ in range(n):
        key, node = node.children[0]
        path.append(key)
    return tuple(path)


def _deep_trees():
    chain = CubeTree.from_leaves(3, 1, 3000,
                                 [tuple((i % 3,) for i in range(3000))])
    return [chain, CubeTree.full(2, 1, 5000)]


def test_deep_trees_go_through_every_transform():
    for tree in _deep_trees():
        n = tree.depth
        assert tree == tree
        assert tree.subtree((), n) == tree
        half = tree.subtree(_first_path(tree, n // 2), n - n // 2)
        assert half.depth == n - n // 2
        thin = prune_with_caps(tree, [1] * n)
        assert thin.leaf_count == 1
        assert tree.contains_tree(thin)
        assert tree.union(thin) == tree
        r = tree.rebase(2)
        assert (r.depth, r.leaf_count) == (n // 2, tree.leaf_count)
        assert r.debase(tree.base) == tree
