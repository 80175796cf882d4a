"""Exact b-adic geometry: cubes, prefix trees, windowed sets, point sets.

Sets are represented at finite resolution as prefix trees over the b^d
child alphabet.  All arithmetic is on integer digits; the real footprint
of a node is the half-open cube prod_i [0.c_i, 0.c_i + b^-n) in base-b
positional notation.  Identical subtrees are hash-consed, so homogeneous
sets (full cubes, digit-restricted Cantor sets) stay small in memory at
any depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterator

MAX_LEAF_ENUM = 2_000_000


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


class _Interner:
    """Hash-cons nodes so identical subtrees are one object."""

    def __init__(self):
        self._memo = {}

    def node(self, children: tuple) -> CubeNode:
        if not children:
            return _LEAF
        sig = tuple((k, id(c)) for k, c in children)
        got = self._memo.get(sig)
        if got is None:
            got = CubeNode(children)
            self._memo[sig] = got
        return got


@dataclass(frozen=True)
class BadicCube:
    """A level-n base-b cube in [0,1]^d, identified by d digit strings."""

    base: int
    level: int
    coords: tuple  # axis-major: coords[i] is a tuple of `level` digits

    def __post_init__(self):
        if self.base < 2:
            raise DomainError("base must be >= 2")
        for axis in self.coords:
            if len(axis) != self.level:
                raise DomainError("coordinate length must equal level")
            if any(not 0 <= dig < self.base for dig in axis):
                raise DomainError("digit out of range")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def path(self) -> Path:
        return tuple(tuple(axis[j] for axis in self.coords)
                     for j in range(self.level))

    @classmethod
    def from_path(cls, base: int, dim: int, path: Path) -> "BadicCube":
        coords = tuple(tuple(key[i] for key in path) for i in range(dim))
        return cls(base, len(path), coords)

    def corner(self) -> tuple:
        """Lower-left corner as exact Fractions."""
        scale = self.base**self.level
        return tuple(
            Fraction(_digits_to_int(axis, self.base), scale)
            for axis in self.coords)

    def side(self) -> Fraction:
        return Fraction(1, self.base**self.level)

    def coord_strings(self) -> tuple:
        if self.base > 10:
            raise DomainError("digit strings require base <= 10")
        return tuple("".join(str(dig) for dig in axis)
                      for axis in self.coords)

    def __str__(self):
        if self.level == 0:
            return "root"
        if self.base <= 10:
            return ",".join(self.coord_strings())
        return ",".join("." .join(str(d) for d in axis)
                        for axis in self.coords)


def _digits_to_int(digits, base: int) -> int:
    val = 0
    for dig in digits:
        val = val * base + dig
    return val


class CubeTree:
    """Uniform-depth prefix tree; depth-k nodes are the occupied cubes
    of D_b(k).  The set is the union of the leaf cubes."""

    def __init__(self, base: int, dim: int, depth: int, root: CubeNode):
        if base < 2 or dim < 1 or depth < 0:
            raise DomainError("need base >= 2, dim >= 1, depth >= 0")
        self.base = base
        self.dim = dim
        self.depth = depth
        self.root = root
        self._counts = {}
        self._profile = None

    # -- construction -------------------------------------------------

    @classmethod
    def full(cls, base: int, dim: int, depth: int) -> "CubeTree":
        keys = all_keys(base, dim)
        node = _LEAF
        for _ in range(depth):
            node = CubeNode(tuple((k, node) for k in keys))
        return cls(base, dim, depth, node)

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
        paths = sorted(set(leaf_paths))
        if not paths:
            raise DomainError("tree needs at least one leaf")
        for p in paths:
            if len(p) != depth:
                raise DomainError("leaf path length must equal depth")
            for key in p:
                if len(key) != dim or any(
                        not 0 <= dig < base for dig in key):
                    raise DomainError(f"bad digit key {key}")
        interner = _Interner()

        def build(lo: int, hi: int, level: int) -> CubeNode:
            if level == depth:
                return _LEAF
            children = []
            i = lo
            while i < hi:
                key = paths[i][level]
                j = i
                while j < hi and paths[j][level] == key:
                    j += 1
                children.append((key, build(i, j, level + 1)))
                i = j
            return interner.node(tuple(children))

        return cls(base, dim, depth, build(0, len(paths), 0))

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
        if k == 0:
            return 1
        memo = self._counts
        got = memo.get((id(node), k))
        if got is None:
            got = sum(self.descendant_count(c, k - 1)
                      for _, c in node.children)
            memo[(id(node), k)] = got
        return got

    def count_at_depth(self, k: int) -> int:
        if not 0 <= k <= self.depth:
            raise DomainError(f"depth {k} outside 0..{self.depth}")
        return self.descendant_count(self.root, k)

    @property
    def leaf_count(self) -> int:
        return self.count_at_depth(self.depth)

    def levels(self) -> Iterator[dict]:
        """Yield, per level, a dict mapping each distinct node object to
        its lexicographically smallest path, in ascending path order.
        Shared subtrees appear once, which keeps traversal cheap on huge
        homogeneous trees."""
        current = {self.root: ()}
        yield current
        for _ in range(self.depth):
            nxt = {}
            for node, path in sorted(current.items(),
                                     key=lambda item: item[1]):
                for key, child in node.children:
                    if child not in nxt:
                        nxt[child] = path + (key,)
            current = nxt
            yield current

    def count_profile(self) -> tuple:
        """The count profile `(maxima, minima)`: `maxima[i][k - 1]` is
        `(count, path)` for the level-i node with the most depth-k
        descendants, k = 1..depth-i, ties going to the smallest path;
        `minima` likewise for the fewest.  Built in one `levels()` walk
        and cached, since the tree is immutable."""
        if self._profile is None:
            maxima, minima = [], []
            for level, nodes in enumerate(self.levels()):
                paths = list(nodes.values())  # ascending
                top, bottom = [], []
                for k in range(1, self.depth - level + 1):
                    counts = [self.descendant_count(node, k)
                              for node in nodes]
                    hi, lo = max(counts), min(counts)
                    top.append((hi, paths[counts.index(hi)]))
                    bottom.append((lo, paths[counts.index(lo)]))
                maxima.append(top)
                minima.append(bottom)
            self._profile = (maxima, minima)
        return self._profile

    def extreme_count(self, k: int, largest: bool = True, lo: int = 0,
                      hi: int = None) -> tuple:
        """`(count, level, path)` of the node of level lo..hi (default
        depth - k) with the most (or, if not `largest`, the fewest)
        depth-k descendants; ties go to the smallest level, then the
        smallest path."""
        maxima, minima = self.count_profile()
        table = maxima if largest else minima
        best = None
        for level in range(lo, (self.depth - k if hi is None else hi) + 1):
            count, path = table[level][k - 1]
            if best is None or (count > best[0] if largest
                                else count < best[0]):
                best = (count, level, path)
        return best

    def iter_leaf_paths(self, limit: int = MAX_LEAF_ENUM) -> Iterator[Path]:
        if self.leaf_count > limit:
            raise DomainError(
                f"leaf enumeration of {self.leaf_count} exceeds {limit}")

        def walk(node, prefix):
            if len(prefix) == self.depth:
                yield prefix
                return
            for key, child in node.children:
                yield from walk(child, prefix + (key,))

        yield from walk(self.root, ())

    def cube(self, path: Path) -> BadicCube:
        return BadicCube.from_path(self.base, self.dim, path)

    def contains_tree(self, other: "CubeTree") -> bool:
        """True iff every node of `other` is a node of self."""
        if (other.base, other.dim, other.depth) != \
                (self.base, self.dim, self.depth):
            return False
        memo = set()

        def covered(a: CubeNode, b: CubeNode) -> bool:
            sig = (id(a), id(b))
            if sig in memo:
                return True
            for key, bc in b.children:
                ac = a.child(key)
                if ac is None or not covered(ac, bc):
                    return False
            memo.add(sig)
            return True

        return covered(self.root, other.root)

    def __eq__(self, other):
        return (isinstance(other, CubeTree)
                and self.contains_tree(other) and other.contains_tree(self))

    def __hash__(self):  # identity hash; trees are compared explicitly
        return id(self)

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
        interner = _Interner()
        memo = {}

        def trunc(cur, k):
            if k == 0:
                return _LEAF
            sig = (id(cur), k)
            got = memo.get(sig)
            if got is None:
                got = interner.node(tuple(
                    (key, trunc(child, k - 1)) for key, child in cur.children))
                memo[sig] = got
            return got

        return CubeTree(self.base, self.dim, depth, trunc(node, depth))

    def union(self, other: "CubeTree") -> "CubeTree":
        if (other.base, other.dim, other.depth) != \
                (self.base, self.dim, self.depth):
            raise DomainError("union requires matching base/dim/depth")
        interner = _Interner()
        memo = {}

        def merge(a, b):
            if a is b:
                return a
            sig = (id(a), id(b))
            got = memo.get(sig)
            if got is not None:
                return got
            keys = sorted(set(k for k, _ in a.children)
                          | set(k for k, _ in b.children))
            children = []
            for key in keys:
                ca, cb = a.child(key), b.child(key)
                if ca is None:
                    children.append((key, cb))
                elif cb is None:
                    children.append((key, ca))
                else:
                    children.append((key, merge(ca, cb)))
            node = interner.node(tuple(children))
            memo[sig] = node
            return node

        return CubeTree(self.base, self.dim, self.depth,
                        merge(self.root, other.root))

    def rebase(self, t: int) -> "CubeTree":
        """View the tree in base b^t; depth truncates to a multiple of t."""
        if t < 1:
            raise DomainError("rebase factor must be >= 1")
        if t == 1:
            return self
        new_depth = self.depth // t
        b, d = self.base, self.dim
        interner = _Interner()
        memo = {}

        def conv(node, levels_left):
            if levels_left == 0:
                return _LEAF
            sig = (id(node), levels_left)
            got = memo.get(sig)
            if got is not None:
                return got
            children = []

            def descend(cur, keys):
                if len(keys) == t:
                    digit = tuple(
                        _digits_to_int([k[i] for k in keys], b)
                        for i in range(d))
                    children.append((digit, conv(cur, levels_left - 1)))
                    return
                for key, child in cur.children:
                    descend(child, keys + [key])

            descend(node, [])
            children.sort(key=lambda item: item[0])
            out = interner.node(tuple(children))
            memo[sig] = out
            return out

        return CubeTree(b**t, d, new_depth, conv(self.root, new_depth))

    def debase(self, b: int) -> "CubeTree":
        """Inverse of rebase: view a base b^t tree in base b, with depth
        multiplied by t."""
        t = 0
        side = 1
        while side < self.base:
            side *= b
            t += 1
        if side != self.base:
            raise DomainError(f"base {self.base} is not a power of {b}")
        if t == 1:
            return self
        d = self.dim
        interner = _Interner()
        memo = {}

        def split_key(key):
            """One base-b^t key -> t base-b keys."""
            digs = []
            vals = list(key)
            for _ in range(t):
                digs.append(tuple(v % b for v in vals))
                vals = [v // b for v in vals]
            return tuple(reversed(digs))

        def conv(node):
            got = memo.get(id(node))
            if got is not None:
                return got
            groups = {}
            for key, child in node.children:
                groups[split_key(key)] = conv(child)

            def build(level, items):
                if level == t:
                    # all items share the full split prefix
                    return next(iter(items.values()))
                buckets = {}
                for keys, sub in items.items():
                    buckets.setdefault(keys[level], {})[keys] = sub
                return interner.node(tuple(
                    (k, build(level + 1, buckets[k]))
                    for k in sorted(buckets)))

            out = build(0, groups) if groups else _LEAF
            memo[id(node)] = out
            return out

        return CubeTree(b, d, self.depth * t, conv(self.root))


def all_keys(base: int, dim: int) -> list:
    keys = [()]
    for _ in range(dim):
        keys = [k + (dig,) for k in keys for dig in range(base)]
    return sorted(keys)


def subdivide(cube: BadicCube, dim: int = None) -> list:
    """The b^d children of `cube` at level n+1, lexicographic order."""
    d = cube.dim if dim is None else dim
    out = []
    for key in all_keys(cube.base, d):
        coords = tuple(cube.coords[i] + (key[i],) for i in range(d))
        out.append(BadicCube(cube.base, cube.level + 1, coords))
    return out


def tree_from_digit_rule(base: int, dim: int, depth: int,
                         allowed) -> CubeTree:
    return CubeTree.from_digit_rule(base, dim, depth, allowed)


@dataclass(frozen=True)
class PointSet:
    """Finite set of exact coordinates under the max-metric."""

    base: int
    dim: int
    points: tuple  # tuple of d-tuples of Fractions, sorted, distinct

    @classmethod
    def of(cls, base: int, dim: int, points) -> "PointSet":
        pts = tuple(sorted(set(tuple(Fraction(x) for x in p)
                               for p in points)))
        for p in pts:
            if len(p) != dim:
                raise DomainError("point dimension mismatch")
        return cls(base, dim, pts)

    def __len__(self):
        return len(self.points)


def leaf_corners(tree: CubeTree, limit: int = MAX_LEAF_ENUM) -> list:
    """The lower-left corners of the leaf cubes as integer points at
    scale base^depth (corner * base^depth), sorted.  One level-order
    pass: a child's corner is its parent's times base plus its key."""
    if tree.leaf_count > limit:
        raise DomainError(
            f"leaf enumeration of {tree.leaf_count} exceeds {limit}")
    layer = [((0,) * tree.dim, tree.root)]
    for _ in range(tree.depth):
        nxt = []
        for corner, node in layer:
            scaled = tuple([c * tree.base for c in corner])
            for key, child in node.children:
                nxt.append((tuple(map(add, scaled, key)), child))
        layer = nxt
    return sorted(corner for corner, _ in layer)


def leaf_representatives(tree: CubeTree,
                         limit: int = MAX_LEAF_ENUM) -> PointSet:
    """One point per leaf cube: the lower-left corner (deterministic,
    always inside the half-open leaf footprint)."""
    scale = tree.base**tree.depth
    return PointSet(tree.base, tree.dim, tuple(
        tuple(Fraction(v, scale) for v in corner)
        for corner in leaf_corners(tree, limit)))


@dataclass(frozen=True)
class Window:
    offset: tuple  # d-tuple of ints
    side_exp: int  # footprint side = base**side_exp
    tree: CubeTree

    def footprint_side(self) -> int:
        return self.tree.base**self.side_exp


class WindowedSet:
    """Finite union of far-apart integer-offset windows, each holding a
    rescaled cube tree; models unbounded sets for the global dimension."""

    def __init__(self, base: int, dim: int, windows):
        self.base = base
        self.dim = dim
        ws = sorted(windows,
                    key=lambda w: (max(abs(o) for o in w.offset), w.offset))
        for w in ws:
            if w.tree.base != base or w.tree.dim != dim:
                raise DomainError("window tree base/dim mismatch")
            if w.side_exp < 0:
                raise DomainError("window side exponent must be >= 0")
        _check_disjoint(ws, base, dim)
        self.windows = tuple(ws)

    def __len__(self):
        return len(self.windows)


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


def write_bdt(tree: CubeTree, limit: int = MAX_LEAF_ENUM) -> str:
    if tree.base > 10:
        raise DomainError(".bdt digit strings require base <= 10")
    lines = [f"bdt b={tree.base} d={tree.dim} n={tree.depth}"]
    for path in tree.iter_leaf_paths(limit):
        cube = BadicCube.from_path(tree.base, tree.dim, path)
        lines.append(",".join(cube.coord_strings()))
    body = sorted(lines[1:])
    return "\n".join(lines[:1] + body) + "\n"


def _digit_table(base: int) -> dict:
    """The ASCII digit characters valid in base `base`, mapped to their
    values; any other character (a superscript, a letter) is a bad
    digit."""
    return {str(i): i for i in range(min(base, 10))}


def _parse_leaf_line(line, digits, dim, depth, line_no) -> Path:
    parts = line.split(",")
    if len(parts) != dim:
        raise SetFormatError(line_no, f"expected {dim} coordinates")
    axes = []
    for part in parts:
        if len(part) != depth and depth > 0:
            raise SetFormatError(
                line_no, f"digit string '{part}' must have length {depth}")
        try:
            axes.append([digits[ch] for ch in part])
        except KeyError as exc:
            raise SetFormatError(line_no,
                                 f"bad digit '{exc.args[0]}'") from None
    return tuple(zip(*axes)) if depth else ()


def read_bdt(text: str) -> CubeTree:
    lines = text.splitlines()
    if not lines:
        raise SetFormatError(1, "empty file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "bdt":
        raise SetFormatError(1, "expected header 'bdt b=<b> d=<d> n=<n>'")
    try:
        base = int(header[1].removeprefix("b="))
        dim = int(header[2].removeprefix("d="))
        depth = int(header[3].removeprefix("n="))
    except ValueError as exc:
        raise SetFormatError(1, f"bad header field: {exc}") from None
    paths = []
    seen = set()
    digits = _digit_table(base)
    for i, line in enumerate(lines[1:], start=2):
        # a depth-0 tree in d = 1 has one empty leaf line: the root
        if not line.strip() and depth > 0:
            raise SetFormatError(i, "blank line")
        if line in seen:
            raise SetFormatError(i, f"duplicate leaf line '{line}'")
        seen.add(line)
        paths.append(_parse_leaf_line(line.strip(), digits, dim, depth, i))
    if not paths:
        raise SetFormatError(2, "no leaf lines")
    return CubeTree.from_leaves(base, dim, depth, paths)


def write_wdt(wset: WindowedSet, limit: int = MAX_LEAF_ENUM) -> str:
    if wset.base > 10:
        raise DomainError(".wdt digit strings require base <= 10")
    lines = [f"wdt b={wset.base} d={wset.dim} windows={len(wset.windows)}"]
    for w in wset.windows:
        off = ",".join(str(o) for o in w.offset)
        lines.append(f"window off={off} m={w.side_exp}")
        leaf_lines = []
        for path in w.tree.iter_leaf_paths(limit):
            cube = BadicCube.from_path(wset.base, wset.dim, path)
            leaf_lines.append(",".join(cube.coord_strings()))
        lines.extend(sorted(leaf_lines))
    return "\n".join(lines) + "\n"


def read_wdt(text: str) -> WindowedSet:
    lines = text.splitlines()
    if not lines:
        raise SetFormatError(1, "empty file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "wdt":
        raise SetFormatError(
            1, "expected header 'wdt b=<b> d=<d> windows=<k>'")
    try:
        base = int(header[1].removeprefix("b="))
        dim = int(header[2].removeprefix("d="))
        nwin = int(header[3].removeprefix("windows="))
    except ValueError as exc:
        raise SetFormatError(1, f"bad header field: {exc}") from None
    windows = []
    digits = _digit_table(base)
    i = 1
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
        i += 1
        leaf_lines = []
        while i < len(lines) and not lines[i].startswith("window "):
            leaf_lines.append((i + 1, lines[i].strip()))
            i += 1
        if not leaf_lines:
            raise SetFormatError(i, "window has no leaf lines")
        depth = len(leaf_lines[0][1].split(",")[0])
        paths = [_parse_leaf_line(line, digits, dim, depth, ln)
                 for ln, line in leaf_lines]
        tree = CubeTree.from_leaves(base, dim, depth, paths)
        windows.append(Window(offset, m, tree))
    if len(windows) != nwin:
        raise SetFormatError(
            1, f"header declares {nwin} windows, found {len(windows)}")
    return WindowedSet(base, dim, windows)
