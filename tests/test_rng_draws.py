"""The in-house sampler against the standard library, and golden digests
of seeded random trees and random prunes: a change to the order in
which trees draw from their rng fails here."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from badicdim.core import CubeTree, DomainError, rng_draws, write_bdt
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
        below, sample = rng_draws(ours)
        assert below(n) == theirs.randrange(n)
        assert 1 + below(n) == theirs.randint(1, n)
        assert sample(n, k) == sorted(theirs.sample(range(n), k))
        assert ours.getstate() == theirs.getstate()  # no draw more or less
        setsize = 21 + (4**math.ceil(math.log(3 * k, 4)) if k > 5 else 0)
        regimes.add((n > setsize, k > 5))
    assert regimes == {(False, False), (False, True), (True, False),
                       (True, True)}


def test_sampler_refuses_impossible_draws():
    _, sample = rng_draws(random.Random(0))
    for n, k in ((3, 4), (0, 1), (5, -1)):
        with pytest.raises(DomainError):
            sample(n, k)


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
     PruneParams(4, 6, 2, Fraction(1, 2), Fraction(1, 2), strategy="random",
                 seed=21), 21,
     "f098a73ad51bcc90a5a5b8c9a1fa47ea04e7296450b73328b912ff5154e6fb14"),
    (CubeTree.full(10, 2, 2),  # 100 children: the set regime
     PruneParams(10, 2, 8, Fraction(1), Fraction(1), strategy="random",
                 seed=5), 64,
     "f29453f839c477595dc9e92130342bfef29e285ba7a87530a4d2786794a5e83e"),
])
def test_random_prunes_keep_their_golden_digests(tree, params, leaves,
                                                 digest):
    out = prune(tree, params, check_hypotheses=False)
    assert (out.leaf_count, _digest(out)) == (leaves, digest)
