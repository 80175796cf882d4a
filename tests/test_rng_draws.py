"""The in-house sampler against the standard library, and seeded random
trees and random prunes against golden digests and flat references that
draw with the standard library: a change to the order in which trees
draw from their rng fails here."""

import hashlib
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from badicdim import extract_assouad, generators
from badicdim.core import (CubeTree, DomainError, all_keys, rng_draws,
                           write_bdt)
from badicdim.exactmath import power_cmp
from badicdim.extract_assouad import PruneParams, prune
from badicdim.generators import random_branching_tree


def _cases():
    """(n, k) pairs in `Random.sample`'s pool regime (n <= 21, or k > 5
    with n at most its set size) and its set regime (n > 21, with k <= 5
    and k > 5), k = 0 and k = n included."""
    rng = random.Random(0)
    cases = [(n, k) for n in (1, 2, 5, 21, 22, 25, 37, 38, 85, 86, 200)
             for k in sorted({0, 1, 5, 6, 7, n // 2, n - 1, n}) if 0 <= k <= n]
    for _ in range(3000):
        n = rng.randint(1, 200)
        cases.append((n, rng.randint(0, n)))
    return cases


def test_sampler_draws_as_the_standard_library():
    regimes = set()
    for i, (n, k) in enumerate(_cases()):
        ours, theirs = random.Random(i), random.Random(i)
        sample, subsets = rng_draws(ours)
        assert sample(n, 1) == (theirs.randrange(n),)
        for _ in range(2):  # the second draw reuses the (n, k) plan
            assert sample(n, k) == tuple(sorted(theirs.sample(range(n), k)))
        if k:
            draw = subsets(n, k)
            for _ in range(3):
                assert draw(None) == tuple(sorted(
                    theirs.sample(range(n), theirs.randint(1, k))))
        assert ours.getstate() == theirs.getstate()  # no draw more or less
        setsize = 21 + (4**math.ceil(math.log(3 * k, 4)) if k > 5 else 0)
        regimes.add((n > setsize, k > 5))
    assert regimes == {(False, False), (False, True), (True, False),
                       (True, True)}


def test_sampler_refuses_impossible_draws():
    sample, subsets = rng_draws(random.Random(0))
    for n, k in ((3, 4), (0, 1), (5, -1)):
        with pytest.raises(DomainError):
            sample(n, k)
    for n, cap in ((3, 4), (3, 0), (0, 1)):
        with pytest.raises(DomainError):
            subsets(n, cap)


def _digest(tree):
    return hashlib.sha256(write_bdt(tree).encode()).hexdigest()


# recorded from the standard library's `randint`/`sample` draws; the last
# two sets have b^d > 21 children to draw from (`sample`'s set regime)
@pytest.mark.parametrize("params, leaves, digest", [
    ((2, 1, 19, 2, 3), 2813,
     "41dac1048175f744765077829d52357649d42f38d45a16d475d13d2be473c777"),
    ((4, 1, 8, 4, 5), 1654,
     "779acc2a4e720b83bb14bdb132ce4d6bc1f55d59db35f4eb7d6a244e6dd55a8b"),
    ((3, 1, 9, 3, 11), 489,
     "8a54e3b61fc1cbe53fc695181833810865bcb8a9cf22631ed1a1c22b74854723"),
    ((3, 2, 4, 9, 2), 66,
     "bf79b002e63e55d1c9df6064440ef75ecc7125d68ee6390296c9be31e84ff94a"),
    ((5, 2, 3, 4, 7), 15,
     "b49ae511142be5716a86b8527b5a5d3568aa62db1ee00237c2dda00370aa81cd"),
    ((10, 2, 2, 20, 13), 78,
     "30251ec885a99b940013be0868d7f8b4c51fba6a36b3c66d386b475747c49d23"),
    ((6, 2, 2, 36, 1), 161,
     "7382c2021a6ec523d038bdff07e6307d22346b790d799a067d3a08080be84420"),
])
def test_random_trees_keep_their_golden_digests(params, leaves, digest):
    tree = random_branching_tree(*params)
    assert (tree.leaf_count, _digest(tree)) == (leaves, digest)


@pytest.mark.parametrize("tree, params, leaves, digest", [
    (random_branching_tree(4, 1, 6, 4, 9),
     PruneParams(2, Fraction(1, 2), Fraction(1, 2), strategy="random",
                 seed=21), 21,
     "f098a73ad51bcc90a5a5b8c9a1fa47ea04e7296450b73328b912ff5154e6fb14"),
    (CubeTree.full(10, 2, 2),  # 100 children: the set regime
     PruneParams(8, Fraction(1), Fraction(1), strategy="random",
                 seed=5), 64,
     "f29453f839c477595dc9e92130342bfef29e285ba7a87530a4d2786794a5e83e"),
])
def test_random_prunes_keep_their_golden_digests(tree, params, leaves,
                                                 digest):
    out = prune(tree, params, check_hypotheses=False)
    assert (out.leaf_count, _digest(out)) == (leaves, digest)


def _reference_tree(base, dim, depth, max_children, seed):
    """A flat reference: recurse in preorder, drawing each node's keys
    with the standard library's `randint` and `sample`."""
    rng, keys, leaves = random.Random(seed), all_keys(base, dim), []

    def grow(path):
        if len(path) == depth:
            leaves.append(path)
            return
        k = rng.randint(1, max_children)
        for i in sorted(rng.sample(range(base**dim), k)):
            grow(path + (keys[i],))

    grow(())
    return CubeTree.from_leaves(base, dim, depth, leaves)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (4, 2), (5, 2), (2, 5), (6, 2),
                        (10, 2)]),
       st.integers(0, 5), st.integers(1, 36), st.integers(0, 10**6))
def test_random_trees_match_a_flat_reference(shape, depth, max_children,
                                             seed):
    # b^d on both sides of `sample`'s 21, and up to 36 children: k > 5
    # in both regimes (b^d = 100 is above the set size 85 of k = 6, 7)
    base, dim = shape
    max_children = min(max_children, base**dim)
    while depth and (max_children**depth > 4000):
        depth -= 1
    tree = random_branching_tree(base, dim, depth, max_children, seed)
    reference = _reference_tree(base, dim, depth, max_children, seed)
    assert write_bdt(tree) == write_bdt(reference)


def _reference_prune(tree, params, retries):
    """A flat reference of the random prune: each of up to `retries`
    attempts recurses in preorder on one standard library rng, keeping
    `sample(children, min(N, #children))` of each node."""
    rng, n, cap = random.Random(params.seed), tree.depth, params.cap
    for _ in range(retries):
        leaves = []

        def grow(node, path):
            if len(path) == n:
                leaves.append(path)
                return
            kids = node.children
            for i in sorted(rng.sample(range(len(kids)),
                                       min(cap, len(kids)))):
                grow(kids[i][1], path + (kids[i][0],))

        grow(tree.root, ())
        out = CubeTree.from_leaves(tree.base, tree.dim, n, leaves)
        if power_cmp(tree.base, -n * params.eps,
                     Fraction(out.leaf_count, cap**n)) <= 0:
            return out
    return None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1, 6, 2), (4, 1, 4, 4), (3, 2, 3, 9),
                        (6, 2, 2, 36)]),
       st.integers(0, 10**6), st.integers(1, 8),
       st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(1)]),
       st.integers(0, 10**6), st.integers(1, 4))
def test_random_prunes_match_a_flat_reference(shape, tree_seed, cap, eps,
                                              seed, retries):
    # small eps makes attempts fail, so retries draw on the same stream;
    # fewer retries than the prune's own make failures reachable
    base, dim, depth, max_children = shape
    tree = random_branching_tree(base, dim, depth, max_children, tree_seed)
    params = PruneParams(cap, Fraction(0), eps, strategy="random", seed=seed)
    reference = _reference_prune(tree, params, retries)
    with mock.patch.object(extract_assouad, "RANDOM_RETRIES", retries):
        if reference is None:
            with pytest.raises(DomainError, match="random prune failed"):
                prune(tree, params, check_hypotheses=False)
        else:
            out = prune(tree, params, check_hypotheses=False)
            assert write_bdt(out) == write_bdt(reference)


def test_wide_alphabets_are_drawn_without_listing_their_keys():
    # 36^5 = 60,466,176 keys per node: listing them would take gigabytes
    tracemalloc.start()
    try:
        tree = random_branching_tree(36, 5, 2, 3, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert 1 <= tree.leaf_count <= 9
    paths = list(tree.iter_leaf_paths())
    assert all(len(key) == 5 and all(0 <= dig < 36 for dig in key)
               for path in paths for key in path)
    rng, path = random.Random(5), []  # a one-leaf chain, key by key
    for _ in range(2):
        assert rng.randint(1, 1) == 1
        index = rng.sample(range(36**5), 1)[0]
        path.append(tuple(index // 36**(4 - i) % 36 for i in range(5)))
    assert random_branching_tree(36, 5, 2, 1, 5) == CubeTree.from_leaves(
        36, 5, 2, [tuple(path)])


@pytest.mark.parametrize("shape", [(1, 1, 3, 1), (2, 0, 3, 1), (2, 1, -1, 1),
                                   (2, 1, 3, 0), (2, 1, 3, 3)])
def test_random_trees_check_their_shape_before_drawing(shape, monkeypatch):
    def no_draws(rng):
        raise AssertionError("drew before checking the shape")

    monkeypatch.setattr(generators, "rng_draws", no_draws)
    with pytest.raises(DomainError):
        generators.random_branching_tree(*shape, 0)
