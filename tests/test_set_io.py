"""Set I/O: `.bdt`/`.wdt` round trips, the bottom-up builder's sharing,
pinned error texts, a parser fuzz against a flat parser and deep
trees."""

import random
from itertools import groupby
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from badicdim.core import (_LEAF, DIGITS, CubeTree, DomainError,
                           SetFormatError, Window, WindowedSet, _Interner,
                           _key, _split_level, build_sorted, read_bdt,
                           read_wdt, write_bdt, write_wdt)
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
    base = draw(st.integers(2, 36))
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
        # a flat writer: per leaf, its digits axis by axis, lines sorted
        assert text.splitlines()[1:] == sorted(",".join(
            "".join(DIGITS[key[i]] for key in path) for i in range(t.dim))
            for path in t.iter_leaf_paths())
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
    ("bdt b=16 d=1 n=2\n0f\ng0\n", 3, "bad digit 'g'"),
    ("bdt b=16 d=1 n=2\n0F\n", 2, "bad digit 'F'"),
    # at depth 0 the only leaf is the root, written as empty axes
    ("bdt b=2 d=1 n=0\n0101\n", 2,
     "digit string '0101' must have length 0"),
    ("wdt b=2 d=1 windows=1\nwindow off=0 m=1\n\n01\n", 4,
     "digit string '01' must have length 0"),
    # what the writers refuse the readers refuse: bases above 36
    ("bdt b=40 d=1 n=1\n0\nz\n", 1, "digit strings require base <= 36"),
    ("wdt b=37 d=1 windows=1\nwindow off=0 m=1\n0\n", 1,
     "digit strings require base <= 36"),
])
def test_parse_errors_are_pinned(text, line_no, message):
    read = read_bdt if text.startswith("bdt") else read_wdt
    with pytest.raises(SetFormatError) as e:
        read(text)
    assert e.value.line_no == line_no
    assert str(e.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize("header, message", [
    ("bdt b=2 d=1 n=4294967296", "digit string '01' must have length "
     "4294967296"),
    (f"bdt b=2 d={10**30} n=2", f"expected {10**30} coordinates"),
])
def test_counts_beyond_any_line_are_format_errors(header, message):
    with pytest.raises(SetFormatError) as e:
        read_bdt(f"{header}\n01\n")
    assert str(e.value) == f"line 2: {message}"


@pytest.mark.parametrize("paths, message", [
    ([((1,),), ((0,), (5,))], "bad digit key (5,)"),
    ([((0,),), ((1,), (5,))], "leaf path length must equal depth"),
])
def test_builder_names_the_first_bad_path_in_sorted_order(paths, message):
    with pytest.raises(DomainError) as e:
        CubeTree.from_leaves(2, 1, 2, paths)
    assert str(e.value) == message


def _level_wise_build_sorted(heads, depth, width, edge):
    """The builder without split level or tail chains: every
    level groups consecutive heads that share a prefix."""
    intern, pair, nodes = _Interner().node, itemgetter(1), [_LEAF] * len(heads)
    for cut in range((depth - 1) * width, -1, -width):
        items = zip(map(itemgetter(slice(cut)), heads), zip(
            map(edge, map(itemgetter(slice(cut, None)), heads)), nodes))
        heads, nodes = [], []
        for prefix, group in groupby(items, key=itemgetter(0)):
            heads.append(prefix)
            nodes.append(intern(tuple(map(pair, group))))
    return nodes[0]


def _level_major(path, dim):
    return "".join(DIGITS[key[i]] for key in path for i in range(dim))


def _check_builder(base, dim, depth, paths):
    """`build_sorted` against the level-wise builder, on key tuples and on
    level-major digit strings, then through `from_leaves`, `read_bdt`
    and `read_wdt`: equal trees with equal distinct-node counts, the
    split level one below the deepest common prefix of adjacent heads,
    and one edge keyed per distinct tail edge below it."""
    paths = sorted(set(paths))
    shared = [next((i for i, (x, y) in enumerate(zip(p, q)) if x != y),
                   depth) for p, q in zip(paths, paths[1:])]
    split = max(shared, default=-1) + 1
    ref = CubeTree(base, dim, depth, _level_wise_build_sorted(
        paths, depth, 1, itemgetter(0)))
    texts = [_level_major(p, dim) for p in paths]
    assert _split_level(paths, depth, 1) == split
    assert _split_level(texts, depth, dim) == split
    built = [CubeTree(base, dim, depth, build_sorted(
        paths, depth, 1, itemgetter(0))), CubeTree(base, dim, depth, (
            build_sorted(texts, depth, dim, _key))),
        CubeTree.from_leaves(base, dim, depth, reversed(paths))]
    built.append(read_bdt(write_bdt(ref)))
    wset = WindowedSet(base, dim, [Window((0,) * dim, depth, ref)])
    built += [w.tree for w in read_wdt(write_wdt(wset)).windows]
    for tree in built:
        assert tree == ref
        assert _nodes(tree) == _nodes(ref) == _distinct_subtrees(ref)
    # each distinct tail's edges are keyed once; above the split level,
    # each distinct prefix's last edge is
    edges = []
    build_sorted(paths, depth, 1, lambda item: edges.append(item) or item[0])
    assert len(edges) == sum(map(len, {p[split:] for p in paths})) + sum(
        len({p[:level + 1] for p in paths}) for level in range(split))
    return split


@st.composite
def _sparse_deep_sets(draw):
    """Few leaves at up to 40 levels: seeded top levels over a few shared
    tails, so most prefix nodes lie on single-path tails; the digits are
    drawn from all of the base's or from its two extremes."""
    base, dim = draw(st.integers(2, 36)), draw(st.sampled_from([1, 2]))
    depth = draw(st.integers(0, 40))
    top = draw(st.integers(0, depth))
    rng = random.Random(draw(st.integers(0, 10**6)))
    digits = [0, base - 1] if draw(st.booleans()) else range(base)

    def keys(n):
        return tuple(tuple(rng.choice(digits) for _ in range(dim))
                     for _ in range(n))

    tails = [keys(depth - top) for _ in range(draw(st.integers(1, 3)))]
    return base, dim, depth, [keys(top) + rng.choice(tails)
                              for _ in range(draw(st.integers(1, 12)))]


@settings(max_examples=200, deadline=None)
@given(_sparse_deep_sets())
def test_tail_chains_build_the_level_wise_tree(case):
    _check_builder(*case)


@pytest.mark.parametrize("base, dim, depth, paths, split", [
    (7, 1, 40, [tuple((i % 7,) for i in range(40))], 0),  # one leaf
    (36, 2, 40, [((35, 0),) * 39 + ((k, 1),) for k in (3, 4)],
     40),  # two leaves that differ only in the last key
    (5, 1, 0, [()], 0),  # depth 0
    (3, 2, 0, [()], 0),
    (4, 1, 14, [((a,), (b,)) + ((0,),) * 12 for a in range(3)
                for b in range(3)], 2),  # a prop5-union-like lattice
])
def test_split_level_edge_cases(base, dim, depth, paths, split):
    assert _check_builder(base, dim, depth, paths) == split


def test_depth_3000_chain_round_trips():
    path = tuple((i % 3,) for i in range(3000))
    tree = CubeTree.from_leaves(3, 1, 3000, [path])
    back = read_bdt(write_bdt(tree))
    assert back.depth == 3000 and back.leaf_count == 1
    assert write_bdt(back) == write_bdt(tree)


def test_bases_up_to_36_write_letters_and_round_trip():
    assert write_bdt(CubeTree.full(36, 1, 1)).splitlines()[1:] == list(DIGITS)
    tree = random_branching_tree(16, 2, 3, 40, 1)
    text = write_bdt(tree)
    assert set("abcdef") <= set(text)
    assert read_bdt(text) == tree and write_bdt(read_bdt(text)) == text
    wset = WindowedSet(16, 2, [Window((0, 0), 3, tree),
                               Window((4096, 0), 1, tree.subtree((), 1))])
    assert write_wdt(read_wdt(write_wdt(wset))) == write_wdt(wset)
    big = CubeTree.full(37, 1, 1)
    for write, arg in ((write_bdt, big), (write_wdt, WindowedSet(
            37, 1, [Window((0,), 1, big)]))):
        with pytest.raises(DomainError, match="require base <= 36"):
            write(arg)


def test_write_refuses_too_many_leaves():
    # refused on the leaf count, before any leaf is listed
    with pytest.raises(DomainError) as e:
        write_bdt(CubeTree.full(2, 1, 21))
    assert str(e.value) == "leaf enumeration of 2097152 exceeds 2000000"


def _mutate(draw, lines, base):
    """`lines` after one to three edits a hand-edited file might have."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line, at = lines[i], draw(st.integers(0, len(lines[i])))
        kind = draw(st.sampled_from(["pad", "duplicate", "blank", "reorder",
                                     "length", "comma", "digit", "super"]))
        if kind == "pad":
            pad = draw(st.sampled_from([" ", "\t", "  "]))
            lines[i] = draw(st.sampled_from([pad + line, line + pad]))
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), line)
        elif kind == "blank":
            lines.insert(draw(st.integers(0, len(lines))), "")
        elif kind == "reorder":
            lines = draw(st.permutations(lines))
        elif kind == "length":  # one digit fewer or more on one axis
            axes = line.split(",")
            a = draw(st.integers(0, len(axes) - 1))
            axes[a] = axes[a][:-1] if axes[a] and draw(st.booleans()) \
                else axes[a] + "0"
            lines[i] = ",".join(axes)
        elif kind == "comma":  # one comma more or fewer
            lines[i] = line.replace(",", "", 1) if "," in line and \
                draw(st.booleans()) else line[:at] + "," + line[at:]
        else:  # a digit >= base (or a superscript two)
            ch = "\u00b2" if kind == "super" else \
                draw(st.sampled_from(DIGITS[base:] + DIGITS[10:].upper()))
            lines[i] = line[:at] + ch + line[at + 1:]
    return lines


def _flat_parse(lines, first, base, dim, depth, unique):
    """`(number of the first bad line, None)` or `(None, leaf paths)`: a
    line is `dim` comma-joined strings of `depth` digits below `base`
    (none at depth 0) around whitespace, and with `unique` no raw line
    repeats."""
    leaves = set()
    for line_no, raw in enumerate(lines, first):
        parts = raw.strip().split(",")
        if len(parts) != dim or unique and raw in lines[:line_no - first] \
                or any(len(p) != depth or
                       any(ch not in DIGITS[:base] for ch in p)
                       for p in parts):
            return line_no, None
        leaves.add(tuple(tuple(int(p[j], 36) for p in parts)
                         for j in range(depth)))
    return None, leaves


@st.composite
def _mutated_texts(draw):
    """A written `.bdt` or two-window `.wdt` as its header and blocks of
    `(window line or None, leaf lines)`, one block's leaf lines mutated."""
    base, dim = draw(st.integers(2, 16)), draw(st.sampled_from([1, 2]))
    trees = [random_branching_tree(base, dim, draw(st.integers(0, 5)),
                                   draw(st.integers(1, min(3, base**dim))),
                                   draw(st.integers(0, 10**6)))
             for _ in range(2)]
    if draw(st.booleans()):
        a = trees[0]
        header = [f"bdt b={base} d={dim} n={a.depth}"]
        blocks = [(None, write_bdt(a).splitlines()[1:])]
    else:
        a, b = trees
        wset = WindowedSet(base, dim, [
            Window((0,) * dim, a.depth, a),
            Window((3 * base**a.depth,) + (0,) * (dim - 1), 1, b)])
        text = write_wdt(wset).splitlines()
        header = text[:1]
        starts = [i for i, line in enumerate(text) if line[:7] == "window "]
        blocks = [(text[i], text[i + 1:j]) for i, j in
                  zip(starts, starts[1:] + [len(text)])]
    i = draw(st.integers(0, len(blocks) - 1))
    blocks[i] = (blocks[i][0], _mutate(draw, blocks[i][1], base))
    return header, blocks, base, dim


@settings(max_examples=300, deadline=None)
@given(_mutated_texts())
def test_mutated_texts_parse_like_a_flat_parser(case):
    header, blocks, base, dim = case
    lines, verdicts = list(header), []
    for window, leaf_lines in blocks:
        lines += [window] * (window is not None)
        depth = int(header[0].rpartition("=")[2]) if window is None else \
            len(leaf_lines[0].strip().split(",")[0])
        verdicts.append(_flat_parse(leaf_lines, len(lines) + 1, base, dim,
                                    depth, unique=window is None))
        lines += leaf_lines
    text = "\n".join(lines) + "\n"
    bad = [line_no for line_no, _ in verdicts if line_no is not None]
    read = read_bdt if header[0].startswith("bdt") else read_wdt
    try:
        got = read(text)
    except (SetFormatError, DomainError) as e:
        assert bad and getattr(e, "line_no", None) == bad[0], (text, e)
        return
    assert not bad, text
    trees = [got] if read is read_bdt else [w.tree for w in got.windows]
    assert [list(t.iter_leaf_paths()) for t in trees] == \
        [sorted(leaves) for _, leaves in verdicts]
