"""Canonical set generators with known finite-scale dimension values,
plus an independent brute-force H* oracle for the property tests.

The oracle's size guard is a hard error, never a silent fallback.
"""

from __future__ import annotations

import random

from .core import (CubeNode, CubeTree, DomainError, Window, WindowedSet,
                   _LEAF, all_keys, check_shape, grow_preorder, rng_draws)

FAMILIES = ("digit-cantor", "full-cube", "lattice-window", "integer-cantor",
            "one-over-k", "prop5-union", "random-branching")

ORACLE_LEAF_LIMIT = 300_000


class GeneratorSpec:
    __slots__ = ("family", "params")

    def __init__(self, family: str, params: dict = None):
        if family not in FAMILIES:
            raise DomainError(f"unknown family '{family}'; "
                              f"choose from {FAMILIES}")
        self.family = family
        self.params = {} if params is None else params


def _base_digits(digits, base: int) -> set:
    """`digits` as a set; the least one outside 0..base-1 raises, and so
    does an empty set."""
    digits = set(digits)
    for dig in sorted(digits):
        if not 0 <= dig < base:
            raise DomainError(f"digit {dig} outside 0..{base - 1}")
    if not digits:
        raise DomainError("allowed digit set is empty")
    return digits


def digit_cantor(base: int, dim: int, digits, depth: int) -> CubeTree:
    """Self-similar set with per-level digit restriction: every axis
    takes its digits from the set `digits`."""
    digits = _base_digits(digits, base)
    return CubeTree.from_digit_rule(base, dim, depth, [
        k for k in all_keys(base, dim) if digits.issuperset(k)])


def full_cube(base: int, dim: int, depth: int) -> CubeTree:
    return CubeTree.full(base, dim, depth)


def _window_tree(base: int, dim: int, m: int, cell_keys, chain: int
                 ) -> CubeTree:
    """Tree over a side-b^m window: m levels of lattice structure given
    by `cell_keys`, then `chain` levels of single-corner chains so each
    occupied unit cell holds one point (local star estimate 0)."""
    if chain < 0:
        raise DomainError(f"chain length {chain} must be >= 0")
    node = _LEAF
    for keys in [[(0,) * dim]] * chain + [sorted(cell_keys)] * m:
        node = CubeNode(tuple((k, node) for k in keys))
    return CubeTree(base, dim, m + chain, node)


def lattice_window(base: int, dim: int, m: int, chain: int = 4
                   ) -> WindowedSet:
    """`integer_cantor` with every digit: every integer-corner unit cell
    of [0, b^m)^d, local star estimate 0, global estimate d."""
    return integer_cantor(base, dim, m, range(base), chain)


def integer_cantor(base: int, dim: int, m: int, digits, chain: int = 4
                   ) -> WindowedSet:
    """Integers whose base-b digits lie in a fixed digit set, one point
    per occupied unit cell: global star estimate log(#digits)/log(b) at
    window scales, local estimate 0."""
    digits = sorted(set(digits))  # a base below 2 fails with the tree
    if base > 1 and (not digits or not 0 <= digits[0] <= digits[-1] < base):
        raise DomainError("bad integer-cantor digit set")
    keys = [k for k in all_keys(base, dim) if all(d in digits for d in k)]
    tree = _window_tree(base, dim, m, keys, chain)
    return WindowedSet(base, dim, [Window((0,) * dim, m, tree)])


def one_over_k(count: int, depth: int) -> CubeTree:
    """{1/k : 1 <= k <= count} as a depth-n binary tree (b=2, d=1)."""
    if count < 1:
        raise DomainError("need count >= 1")
    scale = 2**depth
    leaves = set()
    for k in range(1, count + 1):
        idx = scale // k
        if idx >= scale:  # the point 1 lives in the top cube's closure
            idx = scale - 1
        leaves.add(idx)
    paths = []
    for idx in leaves:
        digs = [(idx >> (depth - 1 - j)) & 1 for j in range(depth)]
        paths.append(tuple((dig,) for dig in digs))
    return CubeTree.from_leaves(2, 1, depth, paths)


def prop5_union(base: int, local_digits, global_digits, m: int,
                local_depth: int, chain: int = None) -> WindowedSet:
    """Disjoint union of a digit-restricted Cantor tree in [0,1]^d and a
    digit-restricted integer window: realizes local star estimate
    log|local_digits|/log b strictly below the global estimate
    log|global_digits|/log b.

    The lattice chains must reach the union's finest resolution (the
    Cantor depth), else its cells turn into solid sub-cubes there; hence
    chain defaults to local_depth."""
    dim = 1
    cantor = digit_cantor(base, dim, local_digits, local_depth)
    global_digits = _base_digits(global_digits, base)
    keys = [k for k in all_keys(base, dim) if global_digits.issuperset(k)]
    lattice = _window_tree(base, dim, m, keys,
                           local_depth if chain is None else chain)
    # the integer window sits at base**m: any cube containing both
    # windows captures at most a 1/b fraction of the lattice counts
    windows = [
        Window(tuple(0 for _ in range(dim)), 0, cantor),
        Window((base**m,) + tuple(0 for _ in range(dim - 1)), m, lattice),
    ]
    return WindowedSet(base, dim, windows)


class _FullNode(dict):
    """A source node with all b^d children: index -> `(key, self)`.  The
    sorted keys are the base-b digits of their indices, so a key is
    decoded when first looked up and the b^d keys are never listed."""

    __hash__ = object.__hash__  # by identity, as a `CubeNode`

    def __init__(self, base: int, dim: int):
        super().__init__()
        self.base, self.dim, self.children = base, dim, self

    def __missing__(self, index):
        digits, rest = [], index
        for _ in range(self.dim):
            rest, digit = divmod(rest, self.base)
            digits.append(digit)
        pair = self[index] = (tuple(reversed(digits)), self)
        return pair


def random_branching_tree(base: int, dim: int, depth: int,
                          max_children: int, seed: int) -> CubeTree:
    """Reproducible pseudo-random tree; every internal node has between
    1 and max_children children, drawn in preorder as the standard
    library's `sample(keys, randint(1, max_children))` of the sorted keys
    would draw them."""
    check_shape(base, dim, depth)
    if not 1 <= max_children <= base**dim:
        raise DomainError("need 1 <= max_children <= b^d")
    _, subsets = rng_draws(random.Random(seed))
    return CubeTree(base, dim, depth, grow_preorder(
        _FullNode(base, dim), depth, subsets(base**dim, max_children)))


def generate(spec: GeneratorSpec):
    p = dict(spec.params)
    try:
        if spec.family == "digit-cantor":
            return digit_cantor(p["base"], p.get("dim", 1), p["digits"],
                                p["depth"])
        if spec.family == "full-cube":
            return full_cube(p["base"], p.get("dim", 1), p["depth"])
        if spec.family == "lattice-window":
            return lattice_window(p["base"], p.get("dim", 1), p["m"],
                                  p.get("chain", 4))
        if spec.family == "integer-cantor":
            return integer_cantor(p["base"], p.get("dim", 1), p["m"],
                                  p["digits"], p.get("chain", 4))
        if spec.family == "one-over-k":
            return one_over_k(p["count"], p["depth"])
        if spec.family == "prop5-union":
            return prop5_union(p["base"], p["local_digits"],
                               p["global_digits"], p["m"],
                               p["local_depth"], p.get("chain"))
        if spec.family == "random-branching":
            return random_branching_tree(p["base"], p.get("dim", 1),
                                         p["depth"], p["max_children"],
                                         p.get("seed", 0))
    except KeyError as exc:
        raise DomainError(
            f"family '{spec.family}' missing parameter {exc}") from None
    raise DomainError(f"unknown family '{spec.family}'")


# -- oracle -----------------------------------------------------------


def oracle_exact_hstar(tree: CubeTree, k: int) -> int:
    """Independent H* by flat enumeration over the leaf list: no shared
    counting, no tree pruning.  Size-guarded."""
    if not 1 <= k <= tree.depth:
        raise DomainError(f"k {k} outside 1..{tree.depth}")
    leaves = list(tree.iter_leaf_paths(ORACLE_LEAF_LIMIT))
    best = 0
    for level in range(0, tree.depth - k + 1):
        per_cube = {}
        for path in leaves:
            q = path[:level]
            per_cube.setdefault(q, set()).add(path[:level + k])
        best = max(best, max(len(s) for s in per_cube.values()))
    return best

