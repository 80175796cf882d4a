"""The four benchmark workloads.

Each workload has `setup(seed, workdir)`, which builds its inputs from
the seed alone (files go to `workdir/in`, a pass writes to
`workdir/out`); `ops(state)`, the operations of one pass; `check`,
which checks a pass's outputs apart from the program; and `summary`,
a text that must repeat exactly on every pass.

Operations look the program's functions up as module attributes at call
time, so the traced run's wrappers see them.  Trees built in set-up are
wrapped in fresh `CubeTree` objects on every pass: the counting memo
lives on the tree object, and each pass should pay for its counting as
a fresh process would.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from fractions import Fraction

from badicdim import (cli, core, estimators, extract_assouad, extract_lower,
                      generators)

import checks


class OpError(Exception):
    """A CLI verb exited with a nonzero status."""


class Op:
    """One timed operation.  `fn(outputs)` may read the outputs of the
    operations before it in the same pass.  `fault` names the error text
    of a known program fault that makes this operation fail."""

    def __init__(self, name, fn, fault=None):
        self.name = name
        self.fn = fn
        self.fault = fault


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpError(f"badicdim {' '.join(argv)} exited {code}: "
                      f"{err.getvalue().strip()}")
    return out.getvalue()


def fresh(tree):
    return core.CubeTree(tree.base, tree.dim, tree.depth, tree.root)


def fresh_windows(wset):
    return core.WindowedSet(wset.base, wset.dim, [
        core.Window(w.offset, w.side_exp, fresh(w.tree))
        for w in wset.windows])


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def draw_random_trees(rng, base, depth, max_children, count, target,
                      tol=0.005):
    """`count` seeded `random_branching_tree`s of this depth whose leaf
    counts add up to `target` within `tol`, as (seed, tree) pairs.

    One tree's leaf count spreads widely with its seed (a branching
    process).  Candidates are drawn until they hold twice `target`
    leaves (so drawing costs about the same for every seed); of those
    with at most twice the mean share `target / count`, the `count`
    whose leaves add up closest to `target` are kept.  Every seed gets
    the same amount of work, the same number of report rows and no
    outsized tree.  Only the candidates' sizes are kept while drawing;
    the chosen trees are generated again from their seeds."""
    cap = 2 * target // count
    seeds, sizes, drawn = [], [], 0
    while True:
        seed = rng.randrange(1 << 30)
        size = generators.random_branching_tree(
            base, 1, depth, max_children, seed).leaf_count
        drawn += size
        if size <= cap:
            seeds.append(seed)
            sizes.append(size)
        if drawn < 2 * target or len(sizes) < count:
            continue
        chosen = closest_subset(sizes, count, target)
        if abs(sum(sizes[i] for i in chosen) - target) <= tol * target:
            return [(seeds[i], generators.random_branching_tree(
                base, 1, depth, max_children, seeds[i])) for i in chosen]


def closest_subset(sizes, count, target):
    """Indices of `count` sizes whose sum is near `target`: start from
    the first `count` and swap one in for one out while that helps."""
    chosen, rest = list(range(count)), list(range(count, len(sizes)))
    total = sum(sizes[i] for i in chosen)
    improved = True
    while improved:
        improved = False
        for a in range(count):
            for b in range(len(rest)):
                swapped = total - sizes[chosen[a]] + sizes[rest[b]]
                if abs(swapped - target) < abs(total - target):
                    chosen[a], rest[b] = rest[b], chosen[a]
                    total = swapped
                    improved = True
    return sorted(chosen)


def leaf_paths(tree):
    return list(tree.iter_leaf_paths())


def regroup(paths, t, base):
    """Base-b leaf paths read as base-b^t paths (d = 1)."""
    out = set()
    for path in paths:
        digits = [key[0] for key in path]
        keys = []
        for j in range(0, len(digits) - len(digits) % t, t):
            val = 0
            for dig in digits[j:j + t]:
                val = val * base + dig
            keys.append((val,))
        out.add(tuple(keys))
    return out


# -- io_files -----------------------------------------------------------------


class IoFiles:
    """CLI verbs writing and reading .bdt files at both ends of the
    sharing range: a full binary tree (13 distinct nodes for 4,096
    leaves) and seeded random trees in base 4 (almost no sharing)."""

    name = "io_files"
    FULL_DEPTH = 12
    ALPHA, EPS, M = Fraction(1, 2), Fraction(1, 4), 16
    RAND_BASE, RAND_DEPTH, RAND_COUNT, RAND_LEAVES = 4, 8, 8, 11000

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        rand = draw_random_trees(rng, self.RAND_BASE, self.RAND_DEPTH,
                                 self.RAND_BASE, self.RAND_COUNT,
                                 self.RAND_LEAVES)
        return {"dir": f"{workdir}/out", "random": rand}

    def ops(self, state):
        d = state["dir"]
        full, sub = f"{d}/full.bdt", f"{d}/sub.bdt"
        ops = [
            Op("gen_full", lambda o: run_cli(
                ["gen", "full-cube", "--base", "2", "--dim", "1",
                 "--depth", str(self.FULL_DEPTH), "--out", full])),
            Op("estimate_full", lambda o: run_cli(
                ["estimate", "--in", full, "--kind", "star-local",
                 "--report", f"{d}/full_star.tsv"])),
            Op("extract_full", lambda o: run_cli(
                ["extract", "assouad", "--alpha", str(self.ALPHA),
                 "--eps", str(self.EPS), "--M", str(self.M),
                 "--stages", "2", "--in", full, "--out", sub,
                 "--trace", f"{d}/sub_trace.tsv"])),
            Op("info_sub", lambda o: run_cli(["info", "--in", sub])),
        ]
        for i, (seed, _tree) in enumerate(state["random"]):
            path = f"{d}/rand{i}"
            ops += [
                Op(f"gen_rand{i}", lambda o, seed=seed, path=path: run_cli(
                    ["gen", "random-branching",
                     "--base", str(self.RAND_BASE), "--dim", "1",
                     "--depth", str(self.RAND_DEPTH),
                     "--max-children", str(self.RAND_BASE),
                     "--seed", str(seed), "--out", f"{path}.bdt"])),
                Op(f"star_rand{i}", lambda o, path=path: run_cli(
                    ["estimate", "--in", f"{path}.bdt", "--kind",
                     "star-local", "--report", f"{path}_star.tsv"])),
                Op(f"lower_rand{i}", lambda o, path=path: run_cli(
                    ["estimate", "--in", f"{path}.bdt", "--kind",
                     "lower-cover", "--report", f"{path}_lower.tsv"])),
            ]
        return ops

    def check(self, state, outputs):
        d = state["dir"]
        problems = []
        n = self.FULL_DEPTH
        full_lines = ["".join(bits)
                      for bits in itertools.product("01", repeat=n)]
        if "gen_full" in outputs:
            problems += checks.check_bdt_text(
                read(f"{d}/full.bdt"), f"bdt b=2 d=1 n={n}", full_lines)
        if "estimate_full" in outputs:
            problems += checks.check_report_rows(
                read(f"{d}/full_star.tsv"),
                {k: 2 ** k for k in range(1, n + 1)}, 2, "full cube")
        if "extract_full" in outputs:
            problems += self._check_extract(d, outputs["extract_full"],
                                            set(full_lines))
        depth = self.RAND_DEPTH
        for i, (_seed, tree) in enumerate(state["random"]):
            label = f"random tree {i}"
            paths = leaf_paths(tree)
            if f"gen_rand{i}" in outputs:
                problems += [f"{label}: {p}" for p in checks.check_bdt_text(
                    read(f"{d}/rand{i}.bdt"),
                    f"bdt b={self.RAND_BASE} d=1 n={depth}",
                    [checks.path_line(p) for p in paths])]
            profile = checks.flat_profile(paths, depth)
            if f"star_rand{i}" in outputs:
                oracle = {k: generators.oracle_exact_hstar(tree, k)
                          for k in range(1, depth + 1)}
                if oracle != {k: v[0] for k, v in profile.items()}:
                    problems.append(f"{label}: oracle and flat recount "
                                    f"disagree")
                problems += checks.check_report_rows(
                    read(f"{d}/rand{i}_star.tsv"), oracle, self.RAND_BASE,
                    f"{label} star")
            if f"lower_rand{i}" in outputs:
                problems += checks.check_report_rows(
                    read(f"{d}/rand{i}_lower.tsv"),
                    {k: v[1] for k, v in profile.items()}, self.RAND_BASE,
                    f"{label} lower")
        return problems

    def _check_extract(self, d, stdout, source_lines):
        fields = dict(item.split("=") for item in stdout.split())
        k_star = int(fields["kstar"])
        text = read(f"{d}/sub.bdt")
        _header, lines = checks.parse_bdt(text)
        problems = [f"extracted: {p}" for p in checks.check_bdt_text(
            text, f"bdt b=2 d=1 n={self.FULL_DEPTH}", lines)]
        if not set(lines) <= source_lines:
            problems.append("extracted set is not contained in its source")
        paths = regroup([tuple((int(c),) for c in line) for line in lines],
                        4, 2)
        count = checks.flat_profile(paths, self.FULL_DEPTH // 4)[k_star][0]
        headline = checks.log_ratio(count, k_star, self.M)
        if abs(headline - float(fields["headline"])) > 1e-6:
            problems.append(f"printed headline {fields['headline']}, "
                            f"recount {headline:.6f}")
        problems += checks.headline_problems(headline, self.ALPHA, self.EPS,
                                             k_star, self.M, 1)
        return problems

    def summary(self, state, outputs):
        return "".join(f"{k}:{v}" for k, v in outputs.items())


# -- random_trees -------------------------------------------------------------


def fixed_branching_tree(rng, base, depth, keep):
    """Every node keeps `keep` of its `base` children, chosen by rng
    (d = 1).  The leaf count is keep^depth whatever the seed."""
    paths = []
    stack = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == depth:
            paths.append(prefix)
            continue
        for k in rng.sample(range(base), keep):
            stack.append(prefix + ((k,),))
    return core.CubeTree.from_leaves(base, 1, depth, paths)


class RandomTrees:
    """Library calls on seeded in-memory random trees: star and lower
    reports and the ladder, plus extraction at M = 16 after rebase(4).

    Extraction runs on a full binary tree, not on the random trees:
    `construct_subset_assouad` pads each kept cube with an all-zero
    digit chain, which a random tree need not hold, so on those trees
    its output is not a subset of its source (CHANGES.md, FOUND)."""

    name = "random_trees"
    BASE, DEPTH, COUNT, LEAVES = 2, 19, 8, 16000
    EXTRACT_DEPTH, ALPHA, EPS, STAGES = 28, Fraction(1, 2), Fraction(1, 4), 3
    LADDER_ALPHA, LADDER_LEVELS = 0.5, 2
    # sandwich_assemble fails on this tree: plan_caps plans from the
    # per-level maximum child count, so nodes with fewer children leave
    # the leaf count below the planned product.
    FAULT = ((2, 1, 13, 2, 1), 0.25, 1)
    FAULT_TEXT = "outside"

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        trees = draw_random_trees(rng, self.BASE, self.DEPTH, self.BASE,
                                  self.COUNT, self.LEAVES)
        ladder = fixed_branching_tree(rng, 4, 6, 3)
        b, d, depth, maxc, s = self.FAULT[0]
        fault = generators.random_branching_tree(b, d, depth, maxc, s)
        full = generators.full_cube(self.BASE, 1, self.EXTRACT_DEPTH)
        return {"dir": f"{workdir}/out", "trees": [t for _, t in trees],
                "ladder": ladder, "fault": fault, "full": full}

    def ops(self, state):
        d = state["dir"]
        trees = [fresh(t) for t in state["trees"]]
        full, ladder = fresh(state["full"]), fresh(state["ladder"])
        fault = fresh(state["fault"])
        ops = []
        for i, tree in enumerate(trees):
            ops += [
                Op(f"star{i}", lambda o, t=tree, i=i: write(
                    f"{d}/star{i}.tsv",
                    estimators.star_dimension_report(t).to_tsv())),
                Op(f"lower{i}", lambda o, t=tree, i=i: write(
                    f"{d}/lower{i}.tsv",
                    estimators.lower_dimension_report(t).to_tsv())),
            ]
        return ops + [
            Op("extract", lambda o: self._extract(full, f"{d}/extract.tsv")),
            Op("ladder", lambda o: extract_assouad.sandwich_assemble(
                ladder, self.LADDER_ALPHA, self.LADDER_LEVELS)),
            Op("ladder_fault", lambda o: extract_assouad.sandwich_assemble(
                fault, self.FAULT[1], self.FAULT[2]),
               fault=self.FAULT_TEXT),
        ]

    def _extract(self, tree, path):
        trace = extract_assouad.construct_subset_assouad(
            tree.rebase(4), self.ALPHA, self.EPS, self.STAGES)
        write(path, trace.to_tsv())
        return trace

    def check(self, state, outputs):
        d = state["dir"]
        problems = []
        for i, tree in enumerate(state["trees"]):
            label = f"tree {i}"
            profile = checks.flat_profile(leaf_paths(tree), tree.depth)
            if f"star{i}" in outputs:
                problems += checks.check_report_rows(
                    read(f"{d}/star{i}.tsv"),
                    {k: v[0] for k, v in profile.items()}, self.BASE,
                    f"{label} star")
            if f"lower{i}" in outputs:
                problems += checks.check_report_rows(
                    read(f"{d}/lower{i}.tsv"),
                    {k: v[1] for k, v in profile.items()}, self.BASE,
                    f"{label} lower")
        trace = outputs.get("extract")
        if trace is not None:
            problems += [f"extraction: {p}" for p in
                         self._check_extract(trace)]
        for name, tree, alpha in (
                ("ladder", state["ladder"], self.LADDER_ALPHA),
                ("ladder_fault", state["fault"], self.FAULT[1])):
            result = outputs.get(name)
            if result is not None:
                leaves = set(leaf_paths(tree))
                problems += [f"{name}: {p}" for p in checks.ladder_problems(
                    leaves, tree.depth, tree.base, alpha,
                    [set(leaf_paths(t)) for t in result.a_trees],
                    [set(leaf_paths(t)) for t in result.b_trees])]
        return problems

    def _check_extract(self, trace):
        """The source is the full tree of base 16 and depth
        EXTRACT_DEPTH // 4: it holds every path of that length."""
        depth = self.EXTRACT_DEPTH // 4
        got = leaf_paths(trace.tree)
        problems = []
        if not all(len(p) == depth and all(0 <= k[0] < 16 for k in p)
                   for p in got):
            problems.append("output is not contained in its source")
        count = checks.flat_profile(got, depth)[trace.k_star][0]
        headline = checks.log_ratio(count, trace.k_star, 16)
        if abs(headline - trace.headline) > 1e-6:
            problems.append(f"headline {trace.headline:.6f}, recount "
                            f"{headline:.6f}")
        problems += checks.headline_problems(headline, self.ALPHA, self.EPS,
                                             trace.k_star, 16, 1)
        return problems

    def summary(self, state, outputs):
        parts = []
        for name, out in outputs.items():
            if hasattr(out, "k_star"):
                parts.append(f"{name}:{out.headline!r}:{out.k_star}:"
                             f"{out.tree.leaf_count}")
            elif hasattr(out, "a_stages"):
                parts.append(f"{name}:" + ",".join(
                    repr(s.headline) for s in out.a_stages + out.b_stages))
        return "\n".join(parts)


# -- windowed -----------------------------------------------------------------


class Windowed:
    """The windowed kernel through `estimate --kind star-global|star-local`
    on a prop5-union .wdt, then the far-window global construction.

    The union uses the digit sets of the paper's example (local {0, 2},
    global {0, 1, 2}) whatever the seed: the kernel's work depends on
    where the digits sit, so seeded digit sets would make the work of a
    pass depend on the seed.  The seed picks the digits of the far
    windows."""

    name = "windowed"
    BASE, M_WINDOW, LOCAL_DEPTH = 4, 6, 8
    LOCAL_DIGITS, GLOBAL_DIGITS = "0,2", "0,1,2"
    ALPHA, EPS = Fraction(1, 2), Fraction(1, 4)
    FAR = [((0,), 2), ((10_000,), 3), ((1_000_000,), 4)]
    FAR_DIGITS = 8

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        path = f"{workdir}/in/union.wdt"
        run_cli(["gen", "prop5-union", "--base", str(self.BASE),
                 "--m", str(self.M_WINDOW),
                 "--local-depth", str(self.LOCAL_DEPTH),
                 "--local-digits", self.LOCAL_DIGITS,
                 "--global-digits", self.GLOBAL_DIGITS, "--out", path])
        windows = []
        for offset, m in self.FAR:
            digits = rng.sample(range(16), self.FAR_DIGITS)
            tree = generators.integer_cantor(16, 1, m, digits,
                                             chain=3).windows[0].tree
            windows.append(core.Window(offset, m, tree))
        return {"dir": f"{workdir}/out", "union": path,
                "far": core.WindowedSet(16, 1, windows)}

    def ops(self, state):
        d, union = state["dir"], state["union"]
        far = fresh_windows(state["far"])
        return [
            Op("star_global", lambda o: run_cli(
                ["estimate", "--in", union, "--kind", "star-global",
                 "--kmax", str(self.M_WINDOW), "--workers", "1",
                 "--report", f"{d}/global.tsv"])),
            Op("star_local", lambda o: run_cli(
                ["estimate", "--in", union, "--kind", "star-local",
                 "--kmax", str(self.LOCAL_DEPTH), "--workers", "1",
                 "--report", f"{d}/local.tsv"])),
            Op("extract_global", lambda o: extract_assouad.
               construct_subset_assouad_global(far, self.ALPHA, self.EPS)),
        ]

    def check(self, state, outputs):
        d = state["dir"]
        problems = []
        # headlines log 3 / log 4 and log 2 / log 4 = 1/2
        for name, file, digits in (("star_global", "global.tsv", 3),
                                   ("star_local", "local.tsv", 2)):
            if name in outputs:
                last = read(f"{d}/{file}").strip().split("\n")[-1]
                headline = float(last.split("\t")[2])
                exact = checks.log_ratio(digits, 1, self.BASE)
                if abs(headline - exact) > 1e-6:
                    problems.append(f"{name} headline {headline}, "
                                    f"expected {exact:.7f}")
        out = outputs.get("extract_global")
        if out is not None:
            cap = checks.floor_root_power(16, self.ALPHA)
            source = state["far"].windows
            if len(out.windows) != len(source):
                problems.append("global construction lost windows")
            for i, (w, src) in enumerate(zip(out.windows, source)):
                paths = leaf_paths(w.tree)
                if checks.max_children(paths) > cap:
                    problems.append(f"window {i} has a node with more "
                                    f"than {cap} children")
                if not set(paths) <= set(leaf_paths(src.tree)):
                    problems.append(f"window {i} is not inside its source")
            problems += checks.gap_condition_problems(
                [(w.offset[0], w.side_exp) for w in out.windows],
                self.ALPHA + self.EPS, 16)
        return problems

    def summary(self, state, outputs):
        parts = [f"{k}:{v}" for k, v in outputs.items() if isinstance(v, str)]
        out = outputs.get("extract_global")
        if out is not None:
            parts += [f"{w.offset}:{w.side_exp}:{sorted(leaf_paths(w.tree))}"
                      for w in out.windows]
        return "\n".join(parts)


# -- lower_balls --------------------------------------------------------------


def holed_full_tree(rng, base, depth, holes):
    """The full base-b tree of this depth (d = 1) with `holes` leaves
    removed at random."""
    paths = [tuple((k,) for k in digits)
             for digits in itertools.product(range(base), repeat=depth)]
    for i in sorted(rng.sample(range(len(paths)), holes), reverse=True):
        del paths[i]
    return core.CubeTree.from_leaves(base, 1, depth, paths)


class LowerBalls:
    """The lower construction and its verifier, with a rational scale
    ratio (M = 4, alpha = 1/2) and an irrational one (M = 5,
    alpha = 2/5, sympy radii)."""

    name = "lower_balls"
    # (label, base, depth, holes, M, alpha, construction depth)
    CASES = [("rational", 4, 7, 4096, 4, Fraction(1, 2), 3),
             ("irrational", 5, 4, 125, 5, Fraction(2, 5), 1)]

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        return {"dir": f"{workdir}/out", "sources": {
            label: holed_full_tree(rng, base, depth, holes)
            for label, base, depth, holes, *_ in self.CASES}}

    def ops(self, state):
        d = state["dir"]
        ops = []
        for label, _b, _n, _h, M, alpha, depth in self.CASES:
            source = fresh(state["sources"][label])
            params = extract_lower.LowerParams(alpha, M, depth)
            ops += [
                Op(f"construct_{label}", lambda o, s=source, p=params:
                   extract_lower.construct_subset_lower(s, p)),
                Op(f"verify_{label}", lambda o, label=label:
                   self._verify(o[f"construct_{label}"],
                                f"{d}/{label}.tsv")),
            ]
        return ops

    def _verify(self, ball_tree, path):
        result = extract_lower.verify_lower_bounds(ball_tree)
        write(path, result.to_tsv())
        return result

    def check(self, state, outputs):
        problems = []
        for label, _b, _n, _h, M, alpha, depth in self.CASES:
            result = outputs.get(f"verify_{label}")
            if result is not None and not result.ok:
                problems.append(f"{label}: verification is not ok")
            ball_tree = outputs.get(f"construct_{label}")
            if ball_tree is not None:
                problems += [f"{label}: {p}" for p in
                             checks.lower_ball_problems(
                                 ball_tree.centers, M, alpha, depth)]
        return problems

    def summary(self, state, outputs):
        parts = []
        for name, out in outputs.items():
            if hasattr(out, "centers"):
                parts.append(f"{name}:{sorted(out.centers.items())}")
            else:
                parts.append(f"{name}:{out.ok}")
        return "\n".join(parts)


WORKLOADS = {w.name: w for w in (IoFiles(), RandomTrees(), Windowed(),
                                 LowerBalls())}
