"""Exact b-adic geometry: prefix trees of cubes and windowed sets.

Sets are represented at finite resolution as prefix trees over the b^d
child alphabet.  A cube is its path from the root, one key of d digits
per level; `path_text` prints it as report witnesses do.  All
arithmetic is on integer digits; the real footprint of a node is the
half-open cube prod_i [0.c_i, 0.c_i + b^-n) in base-b positional
notation.  Identical subtrees are hash-consed, so homogeneous sets
(full cubes, digit-restricted Cantor sets) stay small in memory at any
depth.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import groupby, islice, product
from math import ceil, log
from operator import add, itemgetter, mul, ne
from typing import Iterator, NamedTuple

MAX_LEAF_ENUM = 2_000_000
DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"  # .bdt/.wdt, base <= 36


class DomainError(ValueError):
    """A precondition or domain hypothesis was violated."""


class SetFormatError(Exception):
    """A .bdt/.wdt file failed to parse; carries a line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


Key = tuple  # d-tuple of digits, one level's step
Path = tuple  # tuple of Keys


class CubeNode:
    """Immutable tree node; children sorted by key.  Leaf = no children."""

    __slots__ = ("children",)

    def __init__(self, children: tuple):
        self.children = children  # tuple of (Key, CubeNode), key-sorted

    def child(self, key: Key):
        for k, c in self.children:
            if k == key:
                return c
        return None


_LEAF = CubeNode(())


class _Interner(dict):
    """Hash-cons nodes so identical subtrees are one object.  Nodes hash
    and compare by identity, so a children tuple is its own signature."""

    def node(self, children: tuple) -> CubeNode:
        return self[children] if children else _LEAF

    def __missing__(self, children):
        node = self[children] = CubeNode(children)
        return node


def rebuild(start, depth: int, children) -> CubeNode:
    """The hash-consed depth-`depth` tree grown from the hashable state
    `start`, where `children(state, level)` lists a state's `(key, child
    state)` pairs in key order.  The walk goes down level by level and
    expands each distinct state of a level once, then interns the nodes
    bottom-up; there is no recursion."""
    states, edges = [start], []
    for level in range(depth):
        index = {}  # child state -> its position in the next level
        edges.append([[(key, index.setdefault(child, len(index)))
                       for key, child in children(state, level)]
                      for state in states])
        states = list(index)
    intern = _Interner().node
    nodes = [_LEAF] * len(states)
    for level_edges in reversed(edges):
        nodes = [intern(tuple([(key, nodes[i]) for key, i in pairs]))
                 for pairs in level_edges]
    return nodes[0]


def _split_level(heads: list, depth: int, width: int) -> int:
    """The first level at which the sorted distinct `heads` (`width`
    items per level) all have different prefixes: a bisection whose
    probes compare adjacent prefixes and stop at the first equal pair."""
    if len(heads) < 2:
        return 0
    lo, hi = 1, depth
    while lo < hi:
        mid = (lo + hi) // 2
        cut = itemgetter(slice(mid * width))
        if all(map(ne, map(cut, heads), map(cut, islice(heads, 1, None)))):
            hi = mid
        else:
            lo = mid + 1
    return lo


def build_sorted(heads: list, depth: int, width: int, edge) -> CubeNode:
    """The tree of the sorted distinct strings or tuples `heads`, built
    bottom-up; `edge` keys the `width` items of each distinct edge once.
    Below the split level each head's tail is a single path, built once
    per distinct tail; above it, consecutive heads that share a prefix
    become one node, level by level."""
    node, pair = _Interner().__getitem__, itemgetter(1)  # no node is a leaf
    split = _split_level(heads, depth, width)
    cut, nodes = split * width, [_LEAF] * len(heads)
    if split < depth:
        tails = list(map(itemgetter(slice(cut, None)), heads))
        chains = dict.fromkeys(tails)
        for tail in chains:
            below = _LEAF
            for i in range(len(tail) - width, -1, -width):
                below = node(((edge(tail[i:i + width]), below),))
            chains[tail] = below
        nodes = list(map(chains.__getitem__, tails))
    for cut in range(cut - width, -1, -width):
        items = zip(map(itemgetter(slice(cut)), heads), zip(
            map(edge, map(itemgetter(slice(cut, cut + width)), heads)), nodes))
        heads, nodes = [], []
        for prefix, group in groupby(items, key=itemgetter(0)):
            heads.append(prefix)
            nodes.append(node(tuple(map(pair, group))))
    return nodes[0]


class _LastLevel(dict):
    """`(source, draw)` -> the hash-consed node with the drawn children of
    `source` as leaves, built on the first such draw only."""

    def __init__(self, nodes: _Interner):
        super().__init__()
        self.nodes = nodes  # shared with the grower

    def __missing__(self, drawn):
        source, picked = drawn
        kids = source.children
        node = self[drawn] = self.nodes[
            tuple([(kids[j][0], _LEAF) for j in picked])]
        return node


def grow_preorder(root, depth: int, draw) -> CubeNode:
    """The hash-consed depth-`depth` tree drawn from the source node
    `root` in depth-first preorder, on a stack of open nodes.  A drawn
    node keeps the children `draw(source)` of its source: sorted indices
    into `source.children`, a sequence of `(key, source child)` pairs,
    looked up only for the kept children.  Kept children are drawn in
    key order; a last-level node is built once per distinct draw."""
    if not depth:
        return _LEAF
    nodes, stack = _Interner(), []  # no drawn node is a leaf
    lasts = _LastLevel(nodes)
    # a frame: a source's pairs, its kept indices and its built children;
    # the first keeps the root alone and returns it once it is built
    pairs, picks, built = ((None, root),), (0,), []
    level, bottom = 0, depth - 1  # level: that of the kept children
    while True:
        if level < bottom:
            if len(built) < len(picks):  # open the next kept child
                source = pairs[picks[len(built)]][1]
                stack.append((pairs, picks, built))
                pairs, picks, built = source.children, draw(source), []
                level += 1
                continue
        else:  # the kept children are last-level nodes
            for i in picks:
                source = pairs[i][1]
                built.append(lasts[source, draw(source)])
        if not stack:
            return built[0]
        key = tuple(zip(map(itemgetter(0), map(pairs.__getitem__, picks)),
                        built))
        pairs, picks, built = stack.pop()
        built.append(nodes[key])
        level -= 1


class _SamplePlans(dict):
    """`(n, k)` -> how `Random.sample(range(n), k)` draws: None in its set
    regime (redraw repeats), else its pool and the bit widths of the
    pool draws."""

    def __missing__(self, nk):
        n, k = nk
        if not 0 <= k <= n:
            raise DomainError(f"cannot draw {k} of {n}")
        if n > 21 + (4**ceil(log(3 * k, 4)) if k > 5 else 0):
            plan = None
        else:
            plan = list(range(n)), [i.bit_length()
                                    for i in range(n, n - k, -1)]
        self[nk] = plan
        return plan


def rng_draws(rng) -> tuple:
    """`(sample, subsets)`, drawn bit for bit as CPython's `random` draws
    from `rng.getrandbits`, so seeded trees do not hang on a Python
    version's `random` module.  `sample(n, k)` is the sorted tuple of
    `rng.sample(range(n), k)`, and `sample(n, 1)` is `(rng.randrange(n),)`
    in both of its regimes.  `subsets(n, cap)` is a `grow_preorder` draw
    that ignores its source: the sorted tuple of `rng.sample(range(n),
    rng.randint(1, cap))`.  Each (n, k) is planned once per call, and
    `sample`'s pool holds at most 21 + 4^ceil(log4 3k) entries."""
    bits, plans = rng.getrandbits, _SamplePlans()

    def sample(n, k):
        plan = plans[n, k]
        if plan is None:  # the set regime
            w, picked = n.bit_length(), set()
            while len(picked) < k:
                r = bits(w)
                while r >= n:
                    r = bits(w)
                picked.add(r)
            return tuple(sorted(picked))
        pool, widths = plan
        pool, picked, i = pool.copy(), [], n
        for w in widths:  # the pool regime: w is i's bit width
            r = bits(w)
            while r >= i:
                r = bits(w)
            picked.append(pool[r])
            i -= 1
            pool[r] = pool[i]
        picked.sort()
        return tuple(picked)

    def subsets(n, cap):
        if not 1 <= cap <= n:
            raise DomainError(f"cannot draw 1 to {cap} of {n}")
        wc, wn = cap.bit_length(), n.bit_length()

        def draw(source):
            k = bits(wc)  # randint(1, cap) - 1
            while k >= cap:
                k = bits(wc)
            if k:
                return sample(n, k + 1)
            r = bits(wn)  # sample(n, 1): one randrange(n)
            while r >= n:
                r = bits(wn)
            return (r,)

        return draw

    return sample, subsets


def descend(layer: list, levels: int, step) -> list:
    """The `(value, node)` pairs `levels` levels below `layer`'s, in path
    order: `step(value, key)` down each edge."""
    for _ in range(levels):
        layer = [(step(value, key), child) for value, node in layer
                 for key, child in node.children]
    return layer


def corner_step(base: int, dim: int):
    """The `step` of integer corners in units of their side: a child's
    corner is its parent's times base plus its key."""
    bases = (base,) * dim
    return lambda corner, key: tuple(map(add, map(mul, corner, bases), key))


def walk(layer: dict, levels: int, step=None, pick=None, key=None):
    """Yield `layer` (node -> value) and the `levels` layers below it,
    each distinct node once, in order of first reach.  A child's value
    is `step(value, key)` down its first parent edge, or with `pick` the
    fold `pick(value, other, key=key)` of its edges' values; with no
    `step`, None.  A `corner_step` keeps the order of corners and of
    each coordinate, so parents' choices decide their children's."""
    yield layer
    for _ in range(levels):
        below = {}
        for node, value in layer.items():
            for edge, child in node.children:
                if child not in below:
                    below[child] = step and step(value, edge)
                elif pick:
                    below[child] = pick(below[child], step(value, edge),
                                        key=key)
        layer = below
        yield layer


def counts_below(nodes, k: int) -> dict:
    """Each distinct node on the `k` levels from `nodes` (all of one
    level) down -> its number of descendants on the bottom one: one
    `walk` down, then sums back up."""
    layers = list(walk(dict.fromkeys(nodes), k))
    counts = dict.fromkeys(layers.pop(), 1)
    count, child = counts.__getitem__, itemgetter(1)
    for layer in reversed(layers):
        for node in layer:
            counts[node] = sum(map(count, map(child, node.children)))
    return counts


def _child_sums(children, below: dict) -> tuple:
    """A node's count vector: its number of children, then the sum of
    its children's vectors in `below`, entry by entry."""
    (_, first), *rest = children
    total = below[first]
    for _, child in rest:
        total = tuple(map(add, total, below[child]))
    return (len(children), *total)


def digit_text(digits, base: int) -> str:
    """Base-`base` digits as report text, one `DIGITS` character each as
    in set files; bases above 36 have no characters, so there the digits
    are decimals joined by dots."""
    if base <= len(DIGITS):
        return "".join(map(DIGITS.__getitem__, digits))
    return ".".join(map(str, digits))


def path_text(base: int, path: Path) -> str:
    """A cube's report text: `root`, or its digits axis by axis
    (`digit_text`), the axes joined by commas."""
    if not path:
        return "root"
    return ",".join(digit_text(axis, base) for axis in zip(*path))


def check_shape(base: int, dim: int, depth: int):
    if base < 2 or dim < 1 or depth < 0:
        raise DomainError("need base >= 2, dim >= 1, depth >= 0")


class CubeTree:
    """Uniform-depth prefix tree; depth-k nodes are the occupied cubes
    of D_b(k).  The set is the union of the leaf cubes."""

    def __init__(self, base: int, dim: int, depth: int, root: CubeNode):
        check_shape(base, dim, depth)
        self.base = base
        self.dim = dim
        self.depth = depth
        self.root = root
        self._leaves = None
        self._profile = None

    # -- construction -------------------------------------------------

    @classmethod
    def full(cls, base: int, dim: int, depth: int) -> "CubeTree":
        check_shape(base, dim, depth)
        return cls.from_digit_rule(base, dim, depth, all_keys(base, dim))

    @classmethod
    def from_digit_rule(cls, base: int, dim: int, depth: int,
                        allowed) -> "CubeTree":
        allowed = sorted(set(tuple(a) for a in allowed))
        if not allowed:
            raise DomainError("allowed digit set is empty")
        for key in allowed:
            if len(key) != dim or any(not 0 <= dig < base for dig in key):
                raise DomainError(f"bad digit tuple {key}")
        node = _LEAF
        for _ in range(depth):
            node = CubeNode(tuple((k, node) for k in allowed))
        return cls(base, dim, depth, node)

    @classmethod
    def from_leaves(cls, base: int, dim: int, depth: int,
                    leaf_paths) -> "CubeTree":
        # sorting makes duplicates adjacent; it is linear on sorted input
        paths = [p for p, _ in groupby(sorted(leaf_paths))]
        if not paths:
            raise DomainError("tree needs at least one leaf")

        def bad(key):
            return len(key) != dim or any(not 0 <= dig < base for dig in key)

        if any(len(p) != depth for p in paths) or any(
                map(bad, set().union(*paths))):
            for p in paths:  # name the first bad path
                if len(p) != depth:
                    raise DomainError("leaf path length must equal depth")
                for key in filter(bad, p):
                    raise DomainError(f"bad digit key {key}")
        return cls(base, dim, depth,
                   build_sorted(paths, depth, 1, itemgetter(0)))

    # -- queries ------------------------------------------------------

    def node_at(self, path: Path):
        node = self.root
        for key in path:
            node = node.child(key)
            if node is None:
                return None
        return node

    def descendant_count(self, node: CubeNode, k: int) -> int:
        """Number of depth-k descendants of `node` (exact)."""
        return counts_below((node,), k)[node]

    @property
    def leaf_counts(self) -> dict:
        """Each distinct node -> its number of leaves; cached."""
        if self._leaves is None:
            self._leaves = counts_below((self.root,), self.depth)
        return self._leaves

    @property
    def leaf_count(self) -> int:
        return self.leaf_counts[self.root]

    def level_counts(self) -> Iterator[int]:
        """Each level's number of cubes, root first, lazily: one `walk`
        carrying each distinct node's number of paths, summed over edges."""
        for layer in walk({self.root: 1}, self.depth, lambda n, _: n,
                          lambda n, more, key: n + more):
            yield sum(layer.values())

    def levels(self) -> Iterator[dict]:
        """Yield, per level, a dict mapping each distinct node object to
        its lexicographically smallest path, in ascending path order
        (parents go in path order, children in key order).  Shared
        subtrees appear once: traversal stays cheap on homogeneous trees."""
        yield from walk({self.root: ()}, self.depth,
                        lambda path, key: path + (key,))

    def _count_profile(self) -> tuple:
        """The count profile `(maxima, minima)`, read only through
        `extreme_count`: `maxima[i][k - 1]` is
        `(count, chain)` for the level-i node with the most depth-k
        descendants, k = 1..depth-i, ties going to the smallest path;
        `minima` likewise for the fewest.  A chain is the node's smallest
        path as links `(parent's chain, key)`, the root's None.  Built
        bottom-up after one `walk` from per-node count vectors (entry
        k - 1: the depth-k count), keeping only the level below's; cached."""
        if self._profile is None:
            levels = list(walk({self.root: None}, self.depth,
                               lambda up, key: (up, key)))
            below = dict.fromkeys(levels.pop(), ())
            maxima, minima = [[]], [[]]
            while levels:
                nodes = levels.pop()
                vectors = [_child_sums(node.children, below)
                           for node in nodes]
                below = dict(zip(nodes, vectors))
                chains = list(nodes.values())  # ascending paths
                columns = list(zip(*vectors))  # one per k
                for table, pick in ((maxima, max), (minima, min)):
                    best = list(map(pick, columns))
                    first = map(tuple.index, columns, best)  # smallest path
                    table.append(list(zip(best, map(chains.__getitem__,
                                                    first))))
            self._profile = (maxima[::-1], minima[::-1])
        return self._profile

    def extreme_count(self, k: int, largest: bool = True, lo: int = 0,
                      hi: int = None) -> tuple:
        """`(count, level, path)` of the node of level lo..hi (default
        depth - k) with the most (or, if not `largest`, the fewest)
        depth-k descendants; ties go to the smallest level, then the
        smallest path."""
        if not 1 <= k <= self.depth:
            raise DomainError(f"k {k} outside 1..{self.depth}")
        hi = self.depth - k if hi is None else hi
        if not 0 <= lo <= hi <= self.depth - k:
            raise DomainError(
                f"levels {lo}..{hi} outside 0..{self.depth - k}")
        maxima, minima = self._count_profile()
        rows = [row[k - 1]
                for row in (maxima if largest else minima)[lo:hi + 1]]
        counts = [count for count, _ in rows]
        i = counts.index((max if largest else min)(counts))
        keys, chain = [], rows[i][1]
        while chain is not None:
            chain, key = chain
            keys.append(key)
        return counts[i], lo + i, tuple(reversed(keys))

    def leaf_values(self, start, step, limit: int = MAX_LEAF_ENUM,
                    level: int = None) -> list:
        """One value per leaf, or per cube of `level`, in path order,
        built level by level: `start` at the root and `step(value, key)`
        down each edge.  More than `limit` cubes are refused before any
        is listed."""
        if level is None:
            level, count = self.depth, self.leaf_count
        else:
            count = self.descendant_count(self.root, level)
        if count > limit:
            raise DomainError(f"leaf enumeration of {count} exceeds {limit}")
        return [value for value, _ in descend([(start, self.root)],
                                              level, step)]

    def sweep(self, level: int, lo: int, hi: int, apart: int, skip=None):
        """Greedy packing of the corners of the cubes of `level` of this
        d = 1 tree that lie in [lo, hi], as 1-tuples of integers in units
        of their side: the first corner, then each first corner more than
        `apart` (>= 0) past the last one yielded, passing over corners
        within `apart` of `skip` (`geometry._sweep` of the listed corners
        less that band).  One walk in key order on an explicit stack,
        lazily: a subtree that ends before the next admissible corner t
        is skipped, and the walk stops at the first cube past `hi`.  It
        starts one level above the root, whose only child, of side
        base^level, is the root."""
        if self.dim != 1:
            raise DomainError("sweeps need a d = 1 tree")
        b, t = self.base, lo
        stack = [(0, b**level, iter((((0,), self.root),)))]
        while stack:
            corner, side, children = stack[-1]
            for (key,), child in children:
                start = corner + key * side
                if start > hi:
                    return
                if start + side <= t:
                    continue
                if side > 1:
                    stack.append((start, side // b, iter(child.children)))
                    break
                if skip is not None and abs(start - skip) <= apart:
                    t = skip + apart + 1
                else:
                    yield (start,)
                    t = start + apart + 1
            else:
                stack.pop()

    def iter_leaf_paths(self, limit: int = MAX_LEAF_ENUM) -> Iterator[Path]:
        yield from self.leaf_values((), lambda path, key: path + (key,),
                                    limit)

    def contains_tree(self, other: "CubeTree") -> bool:
        """True iff every node of `other` is a node of self."""
        if (other.base, other.dim, other.depth) != \
                (self.base, self.dim, self.depth):
            return False
        pairs = {(self.root, other.root)}
        for _ in range(self.depth):  # level by level, each pair once
            below = set()
            for a, b in pairs:
                kids = dict(a.children)
                for key, child in b.children:
                    if key not in kids:
                        return False
                    below.add((kids[key], child))
            pairs = below
        return True

    def __eq__(self, other):
        return (isinstance(other, CubeTree)
                and self.contains_tree(other) and other.contains_tree(self))

    __hash__ = object.__hash__  # by identity; trees are compared explicitly

    # -- transforms ---------------------------------------------------

    def subtree(self, path: Path, depth: int) -> "CubeTree":
        """The depth-`depth` truncation of the subtree rooted at `path`."""
        node = self.node_at(path)
        if node is None:
            raise DomainError(f"no node at path {path}")
        if depth > self.depth - len(path):
            raise DomainError(
                f"subtree depth {depth} exceeds remaining "
                f"{self.depth - len(path)} levels")
        return CubeTree(self.base, self.dim, depth, rebuild(
            node, depth, lambda cur, level: cur.children))

    def union(self, other: "CubeTree") -> "CubeTree":
        if (other.base, other.dim, other.depth) != \
                (self.base, self.dim, self.depth):
            raise DomainError("union requires matching base/dim/depth")

        def children(nodes, level):  # a state: the distinct nodes merged
            merged = {}
            for node in nodes:
                for key, child in node.children:
                    merged.setdefault(key, {})[child] = None
            return [(key, tuple(merged[key])) for key in sorted(merged)]

        return CubeTree(self.base, self.dim, self.depth, rebuild(
            tuple(dict.fromkeys((self.root, other.root))), self.depth,
            children))

    def rebase(self, t: int) -> "CubeTree":
        """View the tree in base b^t; depth truncates to a multiple of t."""
        if t < 1:
            raise DomainError("rebase factor must be >= 1")
        if t == 1:
            return self
        step = corner_step(self.base, self.dim)

        def children(node, level):
            # the depth-t descendants, their t keys combined per axis;
            # for d >= 2 path order is not key order
            return sorted(descend([((0,) * self.dim, node)], t, step),
                          key=itemgetter(0))

        return CubeTree(self.base**t, self.dim, self.depth // t,
                        rebuild(self.root, self.depth // t, children))

    def debase(self, b: int) -> "CubeTree":
        """Inverse of rebase: view a base b^t tree in base b, with depth
        multiplied by t."""
        t, side = 0, 1
        while side < self.base:
            side *= b
            t += 1
        if side != self.base:
            raise DomainError(f"base {self.base} is not a power of {b}")
        if t == 1:
            return self
        top = (0,) * self.dim

        def children(state, level):
            # a state: a base-b^t node and, per axis, the number that the
            # level % t base-b digits read below it spell
            node, head = state
            unit = b ** (t - 1 - level % t)
            below = {}
            for key, child in node.children:
                if tuple([v // unit // b for v in key]) == head:
                    below[tuple([v // unit % b for v in key])] = (
                        node, tuple([v // unit for v in key])) if unit > 1 \
                        else (child, top)
            return sorted(below.items(), key=itemgetter(0))

        return CubeTree(b, self.dim, self.depth * t,
                        rebuild((self.root, top), self.depth * t, children))


def all_keys(base: int, dim: int) -> list:
    keys = [()]
    for _ in range(dim):
        keys = [k + (dig,) for k in keys for dig in range(base)]
    return sorted(keys)


def leaf_corners(tree: CubeTree, level: int = None) -> list:
    """The lower-left corners of the leaf cubes (or of the cubes of
    `level`) as integer points at scale base^level, sorted: a child's
    corner is its parent's times base plus its key."""
    return sorted(tree.leaf_values((0,) * tree.dim,
                                   corner_step(tree.base, tree.dim),
                                   level=level))


def corners_tree(base: int, dim: int, scale: int, corners) -> CubeTree:
    """The inverse of `leaf_corners`: the shallowest tree, of depth at
    least 1, whose leaf cubes have the integer points `corners`, at
    scale `scale`, as their lower-left corners.  Each coordinate over
    `scale` must be a base-b fraction in [0, 1)."""
    coords = {v for c in corners for v in c}
    # a finite base-b expansion of v / scale has <= log2(scale) digits
    depth = next((n for n in range(1, scale.bit_length() + 1)
                  if all(v * base**n % scale == 0 for v in coords)), 0)
    if not depth or any(not 0 <= v < scale for v in coords):
        raise DomainError(f"a coordinate over {scale} is not a base-{base} "
                          f"fraction in [0, 1)")
    side = base**depth
    return CubeTree.from_leaves(base, dim, depth, [tuple(
        tuple(v * side // scale // base**(depth - 1 - j) % base for v in c)
        for j in range(depth)) for c in corners])


class Window(NamedTuple):
    offset: tuple  # d-tuple of ints
    side_exp: int  # footprint side = base**side_exp
    tree: CubeTree


class WindowedSet:
    """Finite union of far-apart integer-offset windows, each holding a
    rescaled cube tree; models unbounded sets for the global dimension."""

    def __init__(self, base: int, dim: int, windows):
        self.base = base
        self.dim = dim
        ws = list(windows)
        if not ws:
            raise DomainError("windowed set needs at least one window")
        for w in ws:
            if len(w.offset) != dim:
                raise DomainError(
                    f"window offset {w.offset} does not have {dim} "
                    "coordinates")
            if w.tree.base != base or w.tree.dim != dim:
                raise DomainError("window tree base/dim mismatch")
            if w.side_exp < 0:
                raise DomainError("window side exponent must be >= 0")
        ws.sort(key=lambda w: (max(abs(o) for o in w.offset), w.offset))
        _check_disjoint(ws, base, dim)
        self.windows = tuple(ws)
        self._forest = None

    def __len__(self):
        return len(self.windows)

    def lattice_forest(self) -> tuple:
        """`(unit, j_hi, roots)`: cells of side b^unit, unit = min(side_exp
        - depth, 0); global scales up to b^j_hi, b times the first power
        of b that the largest absolute coordinate reaches; by corner, the
        aligned cubes of side b^top, top = max(j_hi, 0), that the set
        meets, as `(corner in units of b^top, depth top - unit tree)`.
        A window is grafted at its coarsest level of aligned cubes no
        larger than b^top (an aligned one at its root), its leaves
        coarser than a cell made one shared full subtree; above the
        grafts, one node is interned per cube.  Cached."""
        if self._forest is None:
            b, d = self.base, self.dim
            unit = min(min(w.side_exp - w.tree.depth for w in self.windows),
                       0)
            step, span = corner_step(b, d), 0  # span: largest |coordinate|
            for w in self.windows:
                leaf = b**(w.side_exp - w.tree.depth - unit)  # in cells
                for i, pick in product(range(d), (max, min)):
                    *_, last = walk({w.tree.root: (0,) * d}, w.tree.depth,
                                    step, pick, itemgetter(i))
                    for c in last.values():
                        x = w.offset[i] * b**-unit + c[i] * leaf
                        span = max(span, x + leaf, -x)
            j_hi = unit + 1
            while b**(j_hi - 1 - unit) < span:
                j_hi += 1
            top, full = max(j_hi, 0), [(key, None) for key in all_keys(b, d)]
            grafts = {}  # level j -> {corner in units of b^j: node}
            for w in self.windows:
                n, j = w.tree.depth, min(w.side_exp, top)
                while any(o % b**j for o in w.offset):
                    j -= 1
                root = w.tree.root if w.side_exp - n == unit else rebuild(
                    w.tree.root, w.side_exp - unit,
                    lambda node, level: node.children if level < n else full)
                cells = descend([((0,) * d, root)], w.side_exp - j, step)
                shift = [o // b**j for o in w.offset]
                grafts.setdefault(j, {}).update(
                    (tuple(map(add, c, shift)), node) for c, node in cells)
            intern, layer = _Interner().node, {}
            for level in range(min(grafts), top + 1):
                parents = {}  # key order is corner order within a parent
                for c, node in sorted(layer.items()):
                    parents.setdefault(tuple([x // b for x in c]), []).append(
                        (tuple([x % b for x in c]), node))
                layer = {c: intern(tuple(kids)) for c, kids in parents.items()}
                layer.update(grafts.get(level, ()))
            self._forest = (unit, j_hi, [
                (c, CubeTree(b, d, top - unit, node))
                for c, node in sorted(layer.items())])
        return self._forest


def _check_disjoint(windows, base, dim):
    boxes = []
    for w in windows:
        side = base**w.side_exp
        boxes.append((w.offset, side))
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            (o1, s1), (o2, s2) = boxes[i], boxes[j]
            if all(o1[k] < o2[k] + s2 and o2[k] < o1[k] + s1
                   for k in range(dim)):
                raise DomainError(
                    f"window footprints overlap: {o1} side {s1} "
                    f"vs {o2} side {s2}")


# -- file formats ----------------------------------------------------


def _leaf_lines(tree: CubeTree) -> list:
    """The sorted .bdt/.wdt leaf lines: level-major digit strings (the
    parent's plus the key's digits), split into axes for d >= 2."""
    d, lines = tree.dim, tree.leaf_values(
        "", lambda head, key: head + _key_chars(key))
    return sorted(lines if d == 1 else map(",".join, map(itemgetter(
        *[slice(i, None, d) for i in range(d)]), lines)))


@cache
def _key_chars(key: Key) -> str:
    return "".join(map(DIGITS.__getitem__, key))


@cache
def _key(chars: str) -> Key:
    return tuple(map(DIGITS.index, chars))


def write_bdt(tree: CubeTree) -> str:
    if tree.base > 36:
        raise DomainError(".bdt digit strings require base <= 36")
    header = f"bdt b={tree.base} d={tree.dim} n={tree.depth}"
    return "\n".join([header, *_leaf_lines(tree)]) + "\n"


def _leaf_tree(lines: list, first: int, base: int, dim: int, depth: int,
               unique: bool) -> CubeTree:
    """The tree of leaf `lines` numbered from `first`: one regex checks
    them all, and only if it fails does a line scan name the bad line."""
    rows = list(map(str.strip, lines))
    if not rows:
        raise SetFormatError(first, "no leaf lines")
    text, digits = "\n".join(rows), DIGITS[:max(base, 0)]
    cap = len(text) + 1  # a count above any line's length matches no line
    part = (f"[{digits}]" if digits else "(?!)") + (
        f"{{{min(depth, cap)}}}" if depth >= 0 else "*")
    line = f"{part}(?:,{part}){{{min(dim - 1, cap)}}}" if dim > 0 else "(?!)"
    if not re.fullmatch(f"{line}(?:\n{line})*", text) or \
            unique and len(set(lines)) < len(lines):
        raise _line_error(lines, first, digits, dim, depth, unique)
    if depth < 0:  # no leaf line has a negative length
        raise DomainError("leaf path length must equal depth")
    if dim > 1 and depth > 0:  # level-major: interleave the axes
        rows = map("".join, map(itemgetter(*[i * (depth + 1) + level for (
            level, i) in product(range(depth), range(dim))]), rows))
    return CubeTree(base, dim, depth, build_sorted(
        list(dict.fromkeys(sorted(rows))), depth, dim, _key))


def _line_error(lines: list, first: int, digits: str, dim: int, depth: int,
                unique: bool) -> SetFormatError:
    """The first bad leaf line's error; with `unique` (.bdt), a blank
    (unless depth is 0) or repeated line is one too."""
    seen = set()
    for line_no, raw in enumerate(lines, first):
        if unique and depth > 0 and not raw.strip():
            return SetFormatError(line_no, "blank line")
        if unique and raw in seen:
            return SetFormatError(line_no, f"duplicate leaf line '{raw}'")
        seen.add(raw)
        parts = raw.strip().split(",")
        if len(parts) != dim:
            return SetFormatError(line_no, f"expected {dim} coordinates")
        for part in parts:  # axis by axis
            if len(part) != depth and depth >= 0:
                return SetFormatError(
                    line_no, f"digit string '{part}' must have length {depth}")
            for ch in filter(lambda ch: ch not in digits, part):
                return SetFormatError(line_no, f"bad digit '{ch}'")


def _header(text: str, usage: str) -> tuple:
    """`text`'s lines and the integer fields of its `usage`-like header."""
    lines = text.splitlines()
    if not lines:
        raise SetFormatError(1, "empty file")
    header, fields = lines[0].split(), usage.split()
    if len(header) != 4 or header[0] != fields[0]:
        raise SetFormatError(1, f"expected header '{usage}'")
    try:
        values = [int(h.removeprefix(f[:f.index("=") + 1]))
                  for h, f in zip(header[1:], fields[1:])]
    except ValueError as exc:
        raise SetFormatError(1, f"bad header field: {exc}") from None
    if values[0] > len(DIGITS):  # the base: one digit character each
        raise SetFormatError(
            1, f"digit strings require base <= {len(DIGITS)}")
    return lines, values


def read_bdt(text: str) -> CubeTree:
    lines, (base, dim, depth) = _header(text, "bdt b=<b> d=<d> n=<n>")
    return _leaf_tree(lines[1:], 2, base, dim, depth, unique=True)


def write_wdt(wset: WindowedSet) -> str:
    if wset.base > 36:
        raise DomainError(".wdt digit strings require base <= 36")
    lines = [f"wdt b={wset.base} d={wset.dim} windows={len(wset.windows)}"]
    for w in wset.windows:
        off = ",".join(str(o) for o in w.offset)
        lines.append(f"window off={off} m={w.side_exp}")
        lines += _leaf_lines(w.tree)
    return "\n".join(lines) + "\n"


def read_wdt(text: str) -> WindowedSet:
    lines, (base, dim, nwin) = _header(text, "wdt b=<b> d=<d> windows=<k>")
    windows, i = [], 1
    while i < len(lines):
        parts = lines[i].split()
        if len(parts) != 3 or parts[0] != "window":
            raise SetFormatError(i + 1, "expected 'window off=... m=...'")
        try:
            offset = tuple(int(x)
                           for x in parts[1].removeprefix("off=").split(","))
            m = int(parts[2].removeprefix("m="))
        except ValueError as exc:
            raise SetFormatError(i + 1, f"bad window field: {exc}") from None
        if len(offset) != dim:
            raise SetFormatError(i + 1, "offset dimension mismatch")
        start = i = i + 1
        while i < len(lines) and not lines[i].startswith("window "):
            i += 1
        if i == start:
            raise SetFormatError(i, "window has no leaf lines")
        depth = len(lines[start].strip().split(",")[0])
        windows.append(Window(offset, m, _leaf_tree(
            lines[start:i], start + 1, base, dim, depth, unique=False)))
    if len(windows) != nwin:
        raise SetFormatError(
            1, f"header declares {nwin} windows, found {len(windows)}")
    return WindowedSet(base, dim, windows)
