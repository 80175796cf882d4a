"""Constructive extraction of subsets with a prescribed star-dimension
estimate: branching-pruning, dense-window staging, the far-window global
variant, and the nested two-sided ladder assembler.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import itemgetter, le
from typing import NamedTuple

from .core import (CubeTree, DomainError, Window, WindowedSet,
                   digit_text, grow_preorder, rebuild, rng_draws, walk)
from .estimators import _log_ratio
from .exactmath import (badic_power_sum_le, exact_fraction, floor_power,
                        iroot, least_fitting, power_cmp, read_exponent)

RANDOM_RETRIES = 64
LADDER_STEPS = 100_000  # prefixes the ladder's cap searches may try


class PruneParams:
    __slots__ = ("cap", "s", "eps", "strategy", "seed")

    def __init__(self, cap: int, s: Fraction, eps: Fraction,
                 strategy: str = "greedy", seed: int = 0):
        self.cap = cap          # N, per-node child cap
        self.s = exact_fraction(s, "s")
        self.eps = exact_fraction(eps, "eps")
        self.strategy = strategy  # "greedy" or "random"
        self.seed = seed
        if cap < 1:
            raise DomainError("child cap N must be >= 1")
        if self.eps < 0:
            raise DomainError("slack eps must be >= 0")
        if strategy not in ("greedy", "random"):
            raise DomainError(f"unknown strategy '{strategy}'")


def check_prune_hypotheses(tree: CubeTree, params: PruneParams):
    """The pruning lemma's hypotheses on a tree of base M and depth n,
    verified in exact integers: leaf count >= M^(n s), every child count
    <= floor(M^(s+eps)), and N <= floor(M^(s+eps)), with s and eps in
    the exponent bound (`exactmath.read_exponent`).  Raises naming the
    offending node."""
    M, n = tree.base, tree.depth
    s, eps = read_exponent(params.s, "s"), read_exponent(params.eps, "eps")
    cap_limit = floor_power(M, s + eps)
    if params.cap > cap_limit:
        raise DomainError(
            f"N={params.cap} exceeds floor(M^(s+eps))={cap_limit}")
    if power_cmp(M, s * n, tree.leaf_count) > 0:
        raise DomainError(
            f"leaf count {tree.leaf_count} below M^(n*s)")
    for level in range(tree.depth):  # children are the k = 1 count
        children, _, path = tree.extreme_count(1, lo=level, hi=level)
        if children > cap_limit:
            raise DomainError(
                f"node {path} has {children} children, "
                f"cap floor(M^(s+eps))={cap_limit}")


def _ranked(tree: CubeTree) -> dict:
    """Each distinct node -> its `(key, child)` pairs ranked by (-leaf
    count, key), the order in which a prune keeps them (children come in
    key order, and the sort is stable)."""
    leaves = tree.leaf_counts
    return {node: sorted(node.children, key=lambda kc: leaves[kc[1]],
                         reverse=True) for node in leaves}


def _keep(tree: CubeTree, ranked: dict, caps) -> CubeTree:
    """The prune of `tree` that keeps the first caps[i] ranked children
    of each level-i node."""
    return CubeTree(tree.base, tree.dim, tree.depth, rebuild(
        tree.root, tree.depth,
        lambda node, i: sorted(ranked[node][:caps[i]], key=itemgetter(0))))


def prune_with_caps(tree: CubeTree, caps) -> CubeTree:
    """Greedy prune: per level i keep at most caps[i] >= 1 children,
    chosen as those with the largest descendant-leaf counts
    (lexicographic tie break).  Deterministic; monotone in the caps."""
    caps = list(caps)
    if len(caps) != tree.depth:
        raise DomainError("need one cap per level")
    for level, cap in enumerate(caps):
        if cap < 1:
            raise DomainError(f"child cap N={cap} at level {level} must "
                              f"be >= 1")
    return _keep(tree, _ranked(tree), caps)


def prune(tree: CubeTree, params: PruneParams,
          check_hypotheses: bool = True) -> CubeTree:
    """Restrict the tree to <= N children per node while keeping at
    least ceil(N^n M^(-n eps)) leaves.

    Greedy keeps the heaviest children and meets the bound
    deterministically; the random strategy draws uniform child subsets
    and retries (seeded) until the realized count meets it."""
    if check_hypotheses:
        check_prune_hypotheses(tree, params)
    M, n, N = tree.base, tree.depth, params.cap
    if params.strategy == "greedy":
        out = prune_with_caps(tree, [N] * n)
        if check_hypotheses and power_cmp(
                M, -n * params.eps, Fraction(out.leaf_count, N**n)) > 0:
            raise DomainError(
                f"greedy prune kept {out.leaf_count} leaves, below "
                f"N^n M^(-n eps)")
        return out
    sample, _ = rng_draws(random.Random(params.seed))

    def draw(node):  # as sample(node.children, min(N, #children))
        return sample(len(node.children), min(N, len(node.children)))

    for _ in range(RANDOM_RETRIES):
        out = CubeTree(tree.base, tree.dim, tree.depth,
                       grow_preorder(tree.root, tree.depth, draw))
        if power_cmp(M, -n * params.eps, Fraction(out.leaf_count, N**n)) <= 0:
            return out
    raise DomainError(
        f"random prune failed the leaf bound in {RANDOM_RETRIES} attempts")


def find_dense_window(tree: CubeTree, n: int):
    """The cube I maximizing the n-level hit count among nodes of level
    >= n (argmax; ties to the smallest level, then lexicographic path).

    When the depth budget cannot host a window at level >= n, the level
    floor relaxes to depth - n."""
    if n < 1 or n > tree.depth:
        raise DomainError(f"stage length {n} outside 1..{tree.depth}")
    hi = tree.depth - n
    count, level, path = tree.extreme_count(n, lo=min(n, hi), hi=hi)
    return path, level, count


class StageRecord(NamedTuple):
    stage: int
    window_path: tuple
    window_level: int
    window_count: int
    piece_leaves: int
    bound_ok: bool
    base: int

    def tsv_row(self) -> str:
        window = "root" if not self.window_path else "|".join(
            digit_text(key, self.base) for key in self.window_path)
        return (f"{self.stage}\t{window}\t{self.window_level}\t"
                f"{self.window_count}\t{self.piece_leaves}\t"
                f"{'ok' if self.bound_ok else 'FAIL'}")


class ConstructionTrace(NamedTuple):
    target_alpha: Fraction
    eps: Fraction
    cap: int
    stages: list
    headline: float
    delta: float
    k_star: int
    paper_corner_ok: bool
    tree: CubeTree

    def to_tsv(self) -> str:
        lines = ["stage\twindow\tlevel\tcount\tbound\tok"]
        lines += [s.tsv_row() for s in self.stages]
        return "\n".join(lines) + "\n"


def _validate_target(M: int, dim: int, alpha: Fraction, eps: Fraction):
    if not 0 < alpha:
        raise DomainError("target alpha must be positive")
    if eps < 0:
        raise DomainError("slack eps must be >= 0")
    N = floor_power(M, alpha)
    if power_cmp(M, alpha - eps / 2, N) > 0:
        raise DomainError(
            f"need floor(M^alpha)={N} >= M^(alpha-eps/2); increase M")
    # b-adic-aligned windows contribute one crossing cube, so the
    # operative induction condition is N+1 <= M^(alpha+eps); the
    # unaligned-cube form N+3^d <= M^(alpha+eps) is recorded separately.
    if power_cmp(M, alpha + eps, N + 1) < 0:
        raise DomainError(
            f"violated inequality: N+1 > M^(alpha+eps) with N={N}")
    paper_corner_ok = power_cmp(M, alpha + eps, N + 3**dim) >= 0
    return N, paper_corner_ok


def graft(tree: CubeTree, path, piece: CubeTree) -> CubeTree:
    """The subset of `tree` that keeps the cubes of `piece`, a pruned
    subtree of the window at `path`, each padded down to full depth with
    the source's minimum-key chain below it (its first child at every
    level), so that the result lies in the source.  A state pairs a
    source node with the piece node at the same place."""
    def children(state, level):
        src, node = state
        if level < len(path):
            return [(path[level], (src.child(path[level]), node))]
        if node.children:
            return [(key, (src.child(key), kid)) for key, kid in node.children]
        key, kid = src.children[0]
        return [(key, (kid, node))]

    return CubeTree(tree.base, tree.dim, tree.depth,
                    rebuild((tree.root, piece.root), tree.depth, children))


def construct_subset_assouad(tree: CubeTree, alpha: Fraction, eps: Fraction,
                             stages: int, strategy: str = "greedy",
                             seed: int = 0) -> ConstructionTrace:
    """Stagewise dense-window construction: per stage, locate the
    densest window, prune its n-level content to branching
    N = floor(M^alpha), and retain the surviving cubes as chains down to
    full depth.  Stage lengths follow n_{k+1} = n_k + i_{n_k}."""
    M, d, D = tree.base, tree.dim, tree.depth
    alpha, eps = read_exponent(alpha, "alpha"), read_exponent(eps, "eps")
    N, paper_corner_ok = _validate_target(M, d, alpha, eps)
    if stages < 1:
        raise DomainError("need at least one stage")
    # the source estimate is the root's leaf count at k = D, so
    # alpha > s exactly when M^(alpha D) > leaf count
    if power_cmp(M, alpha * D, tree.leaf_count) > 0:
        raise DomainError(
            f"alpha {float(alpha):.6f} exceeds the source estimate "
            f"{_log_ratio(tree.leaf_count, D, M):.6f}")
    records, out, n = [], None, 1
    for stage in range(1, stages + 1):
        if n > D:
            raise DomainError(
                f"resolution exhausted: stage {stage} needs length {n} "
                f"but depth is {D}")
        path, level, count = find_dense_window(tree, n)
        piece = prune(tree.subtree(path, n),
                      PruneParams(N, Fraction(0), eps / 2,
                                  strategy=strategy, seed=seed + stage),
                      check_hypotheses=False)
        bound_ok = power_cmp(M, -n * eps / 2,
                             Fraction(piece.leaf_count, N**n)) <= 0
        kept = graft(tree, path, piece)
        out = kept if out is None else out.union(kept)
        records.append(StageRecord(
            stage, path, level, count, piece.leaf_count, bound_ok, M))
        k_star = n
        if level == 0 and stage < stages:
            raise DomainError(
                f"resolution exhausted: the stage-{stage} window sits at "
                f"level 0, so stage lengths cannot advance (depth {D})")
        n = n + level
    count = out.extreme_count(k_star)[0]
    headline = _log_ratio(count, k_star, M)
    delta = d * math.log(2) / (k_star * math.log(M))
    if not headline_in_window(count, M, d, k_star, alpha, eps):
        raise DomainError(
            f"achieved headline {headline:.6f} outside "
            f"[{float(alpha - eps) - delta:.6f}, "
            f"{float(alpha + eps) + delta:.6f}]")
    return ConstructionTrace(alpha, eps, N, records, headline, delta, k_star,
                             paper_corner_ok, out)


def headline_in_window(count: int, M: int, d: int, k: int, alpha: Fraction,
                       eps: Fraction) -> bool:
    """Whether the headline log(count) / (k log M) lies in [alpha - eps
    - delta, alpha + eps + delta], delta = d log 2 / (k log M), decided
    exactly (alpha - eps may be negative): M^(k(alpha - eps)) <= 2^d
    count and count <= 2^d M^(k(alpha + eps))."""
    return power_cmp(M, k * (alpha - eps), 2**d * count) <= 0 and \
        power_cmp(M, k * (alpha + eps), Fraction(count, 2**d)) >= 0


def check_gap_condition(windows, alpha_eps: Fraction, base: int) -> bool:
    """Exact check of sum_i diam(Q_i)^(a+e) <= l_k^(a+e) for every k,
    with l_k the gap preceding window k+1."""
    for k in range(1, len(windows)):
        term_exps = [w.side_exp for w in windows[:k]]
        prev = windows[k - 1]
        prev_reach = max(o for o in prev.offset) + base**prev.side_exp
        gap = min(o for o in windows[k].offset if o > 0) - prev_reach \
            if any(o > 0 for o in windows[k].offset) else 0
        if gap < 1:
            return False
        # the largest power of b fitting in the realized gap
        ell_exp = least_fitting(lambda e: base ** (e + 1) > gap, 0)
        if not badic_power_sum_le(base, term_exps, ell_exp, alpha_eps):
            return False
    return True


def construct_subset_assouad_global(wset: WindowedSet, alpha: Fraction,
                                    eps: Fraction) -> WindowedSet:
    """Far-window variant: prune each window's content to branching N
    and re-offset the windows so that consecutive gaps are powers of b
    satisfying the diameter-sum condition exactly."""
    M, d = wset.base, wset.dim
    alpha, eps = read_exponent(alpha, "alpha"), read_exponent(eps, "eps")
    N, _ = _validate_target(M, d, alpha, eps)
    if len(wset.windows) == 1:
        w = wset.windows[0]
        pruned = prune_with_caps(w.tree, [N] * w.tree.depth)
        return WindowedSet(M, d, [Window(w.offset, w.side_exp, pruned)])
    exps = [w.side_exp for w in wset.windows]
    if any(exps[i] > exps[i + 1] for i in range(len(exps) - 1)):
        raise DomainError("window side exponents must be nondecreasing")
    out_windows = []
    reach = 0  # R_k: farthest coordinate of the windows placed so far
    for k, w in enumerate(wset.windows):
        pruned = prune_with_caps(w.tree, [N] * w.tree.depth)
        side = M**w.side_exp
        if k == 0:
            offset = tuple(0 for _ in range(d))
        else:
            # the least l with sum_i (M^e_i)^(a+e) <= (M^l)^(a+e): the
            # sum is at least its largest term, so none is below max e_i
            term_exps = [prev.side_exp for prev in wset.windows[:k]]
            target = reach + M**least_fitting(lambda ell: badic_power_sum_le(
                M, term_exps, ell, alpha + eps), max(term_exps))
            x = ((target + side - 1) // side) * side  # align to own grid
            offset = (x,) + tuple(0 for _ in range(d - 1))
        out_windows.append(Window(offset, w.side_exp, pruned))
        reach = max(max(o for o in offset) + side, reach)
    out = WindowedSet(M, d, out_windows)
    if not check_gap_condition(out.windows, alpha + eps, M):
        raise DomainError("emitted windows violate the gap condition")
    return out


# -- two-sided ladder -------------------------------------------------


class LadderStage(NamedTuple):
    index: int
    interval: tuple
    caps: list
    headline: float


class LadderResult(NamedTuple):
    a_trees: list
    b_trees: list
    a_stages: list
    b_stages: list


def _caps_within(tree: CubeTree, ranked: dict, layers: list, steps: list,
                 upper: list, lo: int, hi: int):
    """Each caps vector at or below `upper` whose prune keeps lo..hi
    leaves, fixed level by level, largest first, none above a kept node's
    most children, until steps[0] prefixes are spent.  Kept nodes (with
    their paths) end with at least their number of leaves and at most
    their leaf counts under `upper`; none that found nothing recurs."""
    most = dict.fromkeys(layers[-1], 1)
    for i in reversed(range(tree.depth)):
        for node in layers[i]:
            most[node] = sum([most[kid] for _, kid in ranked[node][:upper[i]]])

    def level(i, kept):  # kept nodes -> paths, the next cap, yields so far
        return [kept, min(upper[i], max(len(n.children) for n in kept)), found]

    found, failed = 0, set()  # failed: (level, kept nodes)
    stack = [level(0, {tree.root: 1})]
    while stack and steps[0]:
        entry, below, steps[0] = stack[-1], {}, steps[0] - 1
        for node, paths in entry[0].items():
            for _, kid in ranked[node][:entry[1]]:
                below[kid] = below.get(kid, 0) + paths
        entry[1] -= 1
        if sum([paths * most[kid] for kid, paths in below.items()]) < lo:
            stack.pop()  # too few, and so for every smaller cap
            if entry[2] == found:
                failed.add((len(stack), frozenset(entry[0].items())))
        elif sum(below.values()) > hi:
            continue  # too many even with every later cap at 1
        elif len(stack) == tree.depth:
            found += 1
            yield [cap + 1 for _, cap, _ in stack]
        elif (len(stack), frozenset(below.items())) not in failed:
            stack.append(level(len(stack), below))


def sandwich_assemble(tree: CubeTree, alpha, levels: int) -> LadderResult:
    """Nested ladder A_1 c ... c A_L c B_L c ... c B_1 with stage
    headlines inside I_n = (a_n, a_{n+1}] and J_n = [b_{n+1}, b_n),
    a_n = alpha(1 - 2^-n) rising to alpha and b_n falling from the
    source estimate s toward alpha.

    A headline is log(c) / (D log M) for a leaf count c, so a stage is
    an integer interval of c, refused when empty.  Stages B_1, ..., B_L,
    A_L, ..., A_1 take caps (`_caps_within`) each at or below the last,
    with backtracking: no nested chain, or spent LADDER_STEPS, refuses.
    Floats only print; alpha is read by `exactmath.read_exponent`."""
    if levels < 1:
        raise DomainError("ladder needs L >= 1")
    alpha = read_exponent(alpha, "alpha")
    D, M = tree.depth, tree.base
    if D == 0:
        raise DomainError("ladder needs a source of depth >= 1")
    C = tree.leaf_count
    s = _log_ratio(C, D, M)
    if not 0 < alpha or power_cmp(M, alpha * D, C) >= 0:  # alpha >= s
        raise DomainError(f"alpha must lie in (0, {s:.6f})")

    def b_first(n):  # least c of headline >= b_n: c^t >= C M^(alpha D (t-1))
        t, e = 2 ** (n - 1), alpha * D * (2 ** (n - 1) - 1)
        return iroot(C**e.denominator * M**e.numerator - 1,
                     t * e.denominator) + 1

    a = [alpha * (1 - Fraction(1, 2**n)) for n in range(1, levels + 2)]
    b = [s + (float(alpha) - s) * (1 - 2.0 ** (1 - n))
         for n in range(1, levels + 2)]
    stages = [("B", n, b_first(n + 1), b_first(n) - 1, (b[n], b[n - 1]))
              for n in range(1, levels + 1)]  # then A, in search order
    stages += [("A", n, floor_power(M, D * a[n - 1]) + 1, floor_power(
        M, D * a[n]), (float(a[n - 1]), float(a[n])))
        for n in range(levels, 0, -1)]
    for name, n, lo, hi, _ in stages:
        if lo > hi:
            raise DomainError(f"no caps give stage {name}_{n} a leaf count "
                              f"in [{lo}, {hi}]: the interval is empty at "
                              f"depth {D}")
    ranked, layers = _ranked(tree), list(walk({tree.root: None}, D))

    def search(k, caps):  # stage k's caps at or below `caps`
        return _caps_within(tree, ranked, layers, steps, caps, *stages[k][2:4])

    full, steps = [M**tree.dim] * D, [LADDER_STEPS]
    searches, chosen, deepest = [search(0, full)], [], 0
    failed = [[] for _ in stages] + [[]]  # uppers a stage found nothing under
    while searches and len(chosen) < len(stages):
        k = len(chosen)
        caps = next(searches[k], None)
        if caps is None:
            if 0 < k == deepest and next(search(k, full), None) is None:
                break  # stage k has no caps at all: no chain reaches it
            searches.pop()
            if k:
                failed[k].append(chosen.pop())
        elif not any(all(map(le, caps, bad)) for bad in failed[k + 1]):
            chosen.append(caps)
            deepest = max(deepest, k + 1)
            if k + 1 < len(stages):
                searches.append(search(k + 1, caps))
    if len(chosen) < len(stages):
        name, n, lo, hi, _ = stages[deepest]
        if not steps[0]:
            raise DomainError(f"ladder search stopped after {LADDER_STEPS} "
                              f"steps short of stage {name}_{n}")
        raise DomainError(f"no caps give stage {name}_{n} a leaf count in "
                          f"[{lo}, {hi}]")
    built = []
    for (name, n, lo, hi, interval), caps in zip(stages, chosen):
        sub = _keep(tree, ranked, caps)
        if not lo <= sub.leaf_count <= hi:
            raise DomainError(f"stage {name}_{n} kept {sub.leaf_count} "
                              f"leaves, outside [{lo}, {hi}]")
        built.append((sub, LadderStage(n, interval, caps, _log_ratio(
            sub.leaf_count, D, M))))
    chain = built[::-1]  # A_1, ..., A_L, B_L, ..., B_1
    if not all(outer.contains_tree(inner)
               for (inner, _), (outer, _) in zip(chain, chain[1:])):
        raise DomainError("ladder nesting violated")
    a_trees, a_stages = map(list, zip(*chain[:levels]))
    b_trees, b_stages = map(list, zip(*built[:levels]))
    return LadderResult(a_trees, b_trees, a_stages, b_stages)
