"""Constructive extraction of subsets with a prescribed star-dimension
estimate: branching-pruning, dense-window staging, the far-window global
variant, and the nested two-sided ladder assembler.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (CubeNode, CubeTree, DomainError, Window, WindowedSet,
                   _Interner, _LEAF)
from .estimators import _log_ratio, star_dimension_report
from .exactmath import (badic_power_sum_le, count_meets_power_bound,
                        floor_power, pow_at_least, pow_at_most)

DEFAULT_RANDOM_RETRIES = 64


@dataclass(frozen=True)
class PruneParams:
    base: int               # M
    depth: int              # n
    cap: int                # N, per-node child cap
    s: Fraction
    eps: Fraction
    strategy: str = "greedy"   # "greedy" or "random"
    seed: int = 0
    retries: int = DEFAULT_RANDOM_RETRIES

    def __post_init__(self):
        if self.cap < 1:
            raise DomainError("child cap N must be >= 1")
        if self.eps < 0:
            raise DomainError("slack eps must be >= 0")
        if self.strategy not in ("greedy", "random"):
            raise DomainError(f"unknown strategy '{self.strategy}'")


def check_prune_hypotheses(tree: CubeTree, params: PruneParams):
    """The pruning lemma's hypotheses, verified in exact integers:
    leaf count >= M^(n s), every child count <= floor(M^(s+eps)),
    and N <= floor(M^(s+eps)).  Raises naming the offending node."""
    M, n = params.base, params.depth
    if tree.depth != n or tree.base != M:
        raise DomainError("params depth/base must match the tree")
    cap_limit = floor_power(M, params.s + params.eps)
    if params.cap > cap_limit:
        raise DomainError(
            f"N={params.cap} exceeds floor(M^(s+eps))={cap_limit}")
    if not pow_at_most(M, params.s * n, tree.leaf_count):
        raise DomainError(
            f"leaf count {tree.leaf_count} below M^(n*s)")
    maxima, _ = tree.count_profile()
    for row in maxima[:tree.depth]:
        children, path = row[0]  # a node's children are its k = 1 count
        if children > cap_limit:
            raise DomainError(
                f"node {path} has {children} children, "
                f"cap floor(M^(s+eps))={cap_limit}")


def prune_with_caps(tree: CubeTree, caps) -> CubeTree:
    """Greedy prune: per level i keep at most caps[i] children, chosen
    as those with the largest descendant-leaf counts (lexicographic tie
    break).  Deterministic; monotone in the caps."""
    caps = list(caps)
    if len(caps) != tree.depth:
        raise DomainError("need one cap per level")
    interner = _Interner()
    memo = {}

    def go(node, level):
        if level == tree.depth:
            return _LEAF
        sig = (id(node), level)
        got = memo.get(sig)
        if got is not None:
            return got
        remaining = tree.depth - level - 1
        ranked = sorted(
            node.children,
            key=lambda kc: (-tree.descendant_count(kc[1], remaining), kc[0]))
        kept = sorted(ranked[:caps[level]], key=lambda kc: kc[0])
        out = interner.node(tuple(
            (key, go(child, level + 1)) for key, child in kept))
        memo[sig] = out
        return out

    return CubeTree(tree.base, tree.dim, tree.depth, go(tree.root, 0))


def _prune_random(tree: CubeTree, cap: int, rng: random.Random) -> CubeTree:
    interner = _Interner()

    def go(node, level):
        if level == tree.depth:
            return _LEAF
        kids = list(node.children)
        take = min(cap, len(kids))
        picked = sorted(rng.sample(kids, take), key=lambda kc: kc[0])
        return interner.node(tuple(
            (key, go(child, level + 1)) for key, child in picked))

    return CubeTree(tree.base, tree.dim, tree.depth, go(tree.root, 0))


def prune(tree: CubeTree, params: PruneParams,
          check_hypotheses: bool = True) -> CubeTree:
    """Restrict the tree to <= N children per node while keeping at
    least ceil(N^n M^(-n eps)) leaves.

    Greedy keeps the heaviest children and meets the bound
    deterministically; the random strategy draws uniform child subsets
    and retries (seeded) until the realized count meets it."""
    if check_hypotheses:
        check_prune_hypotheses(tree, params)
    M, n, N = params.base, params.depth, params.cap
    if params.strategy == "greedy":
        out = prune_with_caps(tree, [N] * n)
        if check_hypotheses and not count_meets_power_bound(
                out.leaf_count, M, n, N, params.eps):
            raise DomainError(
                f"greedy prune kept {out.leaf_count} leaves, below "
                f"N^n M^(-n eps)")
        return out
    rng = random.Random(params.seed)
    for _ in range(params.retries):
        out = _prune_random(tree, N, rng)
        if count_meets_power_bound(out.leaf_count, M, n, N, params.eps):
            return out
    raise DomainError(
        f"random prune failed the leaf bound in {params.retries} attempts")


def find_dense_window(tree: CubeTree, n: int):
    """The cube I maximizing the n-level hit count among nodes of level
    >= n (argmax; ties to the smallest level, then lexicographic path).

    When the depth budget cannot host a window at level >= n, the level
    floor relaxes to depth - n (recorded by the caller)."""
    if n < 1 or n > tree.depth:
        raise DomainError(f"stage length {n} outside 1..{tree.depth}")
    lo = min(n, tree.depth - n)
    hi = tree.depth - n
    if hi < 0:
        raise DomainError("depth budget exceeded")
    count, level, path = tree.extreme_count(n, lo=lo, hi=hi)
    return path, level, count


@dataclass
class StageRecord:
    stage: int
    window_path: tuple
    window_level: int
    window_count: int
    piece_leaves: int
    bound_ok: bool
    relaxed_level: bool

    def tsv_row(self) -> str:
        window = "root" if not self.window_path else \
            "|".join("".join(str(d) for d in key) for key in self.window_path)
        return (f"{self.stage}\t{window}\t{self.window_level}\t"
                f"{self.window_count}\t{self.piece_leaves}\t"
                f"{'ok' if self.bound_ok else 'FAIL'}")


@dataclass
class ConstructionTrace:
    target_alpha: Fraction
    eps: Fraction
    cap: int
    stages: list = field(default_factory=list)
    headline: float = float("nan")
    delta: float = float("nan")
    k_star: int = 0
    paper_corner_ok: bool = True
    tree: CubeTree = None

    def to_tsv(self) -> str:
        lines = ["stage\twindow\tlevel\tcount\tbound\tok"]
        lines += [s.tsv_row() for s in self.stages]
        return "\n".join(lines) + "\n"


def _validate_target(M: int, dim: int, alpha: Fraction, eps: Fraction):
    if not 0 < alpha:
        raise DomainError("target alpha must be positive")
    N = floor_power(M, alpha)
    if N < 1:
        raise DomainError("floor(M^alpha) must be >= 1")
    if not pow_at_most(M, alpha - eps / 2, N):
        raise DomainError(
            f"need floor(M^alpha)={N} >= M^(alpha-eps/2); increase M")
    # b-adic-aligned windows contribute one crossing cube, so the
    # operative induction condition is N+1 <= M^(alpha+eps); the
    # unaligned-cube form N+3^d <= M^(alpha+eps) is recorded separately.
    if not pow_at_least(M, alpha + eps, N + 1):
        raise DomainError(
            f"violated inequality: N+1 > M^(alpha+eps) with N={N}")
    paper_corner_ok = pow_at_least(M, alpha + eps, N + 3**dim)
    return N, paper_corner_ok


def _min_key_chain(node, sub) -> tuple:
    """The keys of the source's minimum-key chain from the cube at `sub`
    below `node` down to full depth, so that a kept cube is padded with
    points of the source (the all-zero chain on a full tree)."""
    for key in sub:
        node = node.child(key)
    chain = []
    while node.children:
        key, node = node.children[0]
        chain.append(key)
    return tuple(chain)


def construct_subset_assouad(tree: CubeTree, alpha: Fraction, eps: Fraction,
                             stages: int, strategy: str = "greedy",
                             seed: int = 0) -> ConstructionTrace:
    """Stagewise dense-window construction: per stage, locate the
    densest window, prune its n-level content to branching
    N = floor(M^alpha), and retain the surviving cubes as chains down to
    full depth.  Stage lengths follow n_{k+1} = n_k + i_{n_k}."""
    M, d, D = tree.base, tree.dim, tree.depth
    alpha, eps = Fraction(alpha), Fraction(eps)
    N, paper_corner_ok = _validate_target(M, d, alpha, eps)
    if stages < 1:
        raise DomainError("need at least one stage")
    # the source estimate is the root's leaf count at k = D, so
    # alpha > s exactly when M^(alpha D) > leaf count
    if not pow_at_most(M, alpha * D, tree.leaf_count):
        raise DomainError(
            f"alpha {float(alpha):.6f} exceeds the source estimate "
            f"{_log_ratio(tree.leaf_count, D, M):.6f}")
    trace = ConstructionTrace(alpha, eps, N, paper_corner_ok=paper_corner_ok)
    leaves = set()
    n = 1
    for stage in range(1, stages + 1):
        if n > D:
            raise DomainError(
                f"resolution exhausted: stage {stage} needs length {n} "
                f"but depth is {D}")
        path, level, count = find_dense_window(tree, n)
        piece = prune(tree.subtree(path, n),
                      PruneParams(M, n, N, Fraction(0), eps / 2,
                                  strategy=strategy, seed=seed + stage),
                      check_hypotheses=False)
        bound_ok = count_meets_power_bound(piece.leaf_count, M, n, N, eps / 2)
        new_leaves = set()
        window = tree.node_at(path)
        for sub in piece.iter_leaf_paths():
            full_path = path + sub + _min_key_chain(window, sub)
            if full_path not in leaves:
                new_leaves.add(full_path)
        leaves |= new_leaves
        trace.stages.append(StageRecord(
            stage, path, level, count, piece.leaf_count, bound_ok,
            relaxed_level=level < n))
        trace.k_star = n
        if level == 0 and stage < stages:
            raise DomainError(
                f"resolution exhausted: the stage-{stage} window sits at "
                f"level 0, so stage lengths cannot advance (depth {D})")
        n = n + level
    out = CubeTree.from_leaves(M, d, D, leaves)
    trace.tree = out
    report = star_dimension_report(out, "local", k_max=trace.k_star)
    trace.headline = report.headline
    trace.delta = d * math.log(2) / (trace.k_star * math.log(M))
    lo = float(alpha - eps) - trace.delta
    hi = float(alpha + eps) + trace.delta
    if not lo <= trace.headline <= hi:
        raise DomainError(
            f"achieved headline {trace.headline:.6f} outside "
            f"[{lo:.6f}, {hi:.6f}]")
    return trace


def check_gap_condition(windows, alpha_eps: Fraction, base: int) -> bool:
    """Exact check of sum_i diam(Q_i)^(a+e) <= l_k^(a+e) for every k,
    with l_k the gap preceding window k+1."""
    for k in range(1, len(windows)):
        term_exps = [w.side_exp for w in windows[:k]]
        prev = windows[k - 1]
        prev_reach = max(o for o in prev.offset) + base**prev.side_exp
        gap = min(o for o in windows[k].offset if o > 0) - prev_reach \
            if any(o > 0 for o in windows[k].offset) else 0
        ell_exp = 0
        while base**ell_exp <= gap:
            ell_exp += 1
        ell_exp -= 1  # largest power of b fitting in the realized gap
        if ell_exp < 0:
            return False
        if not badic_power_sum_le(base, term_exps, ell_exp, alpha_eps):
            return False
    return True


def construct_subset_assouad_global(wset: WindowedSet, alpha: Fraction,
                                    eps: Fraction) -> WindowedSet:
    """Far-window variant: prune each window's content to branching N
    and re-offset the windows so that consecutive gaps are powers of b
    satisfying the diameter-sum condition exactly."""
    M, d = wset.base, wset.dim
    alpha, eps = Fraction(alpha), Fraction(eps)
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
            term_exps = [prev.side_exp for prev in wset.windows[:k]]
            ell_exp = 0
            while not badic_power_sum_le(M, term_exps, ell_exp, alpha + eps):
                ell_exp += 1
                if ell_exp > 10_000:
                    raise DomainError("gap exponent overflow")
            target = reach + M**ell_exp
            x = ((target + side - 1) // side) * side  # align to own grid
            offset = (x,) + tuple(0 for _ in range(d - 1))
        out_windows.append(Window(offset, w.side_exp, pruned))
        reach = max(max(o for o in offset) + side, reach)
    out = WindowedSet(M, d, out_windows)
    if not check_gap_condition(out.windows, alpha + eps, M):
        raise DomainError("emitted windows violate the gap condition")
    return out


# -- two-sided ladder -------------------------------------------------


def plan_caps(depth: int, target_log: float, upper, lower=None):
    """Per-level child caps whose product tracks exp(target_log),
    within the elementwise bounds.  Deterministic."""
    upper = list(upper)
    lower = list(lower) if lower is not None else [1] * depth
    if len(upper) != depth or len(lower) != depth:
        raise DomainError("need one bound per level")
    if any(lo > up for lo, up in zip(lower, upper)):
        raise DomainError("infeasible cap bounds")
    caps = []
    remaining = target_log
    for i in range(depth):
        ideal = math.exp(remaining / (depth - i))
        cap = min(upper[i], max(lower[i], round(ideal)))
        caps.append(cap)
        remaining -= math.log(cap)
    # local refinement: nudge single levels while it shrinks the error
    def err(cs):
        return abs(sum(math.log(c) for c in cs) - target_log)

    improved = True
    while improved:
        improved = False
        for i in range(depth):
            for step in (-1, 1):
                cand = caps[i] + step
                if lower[i] <= cand <= upper[i]:
                    trial = caps[:i] + [cand] + caps[i + 1:]
                    if err(trial) < err(caps):
                        caps = trial
                        improved = True
    return caps


@dataclass
class LadderStage:
    index: int
    interval: tuple
    caps: list
    headline: float
    ok: bool


@dataclass
class LadderResult:
    a_trees: list
    b_trees: list
    a_stages: list
    b_stages: list

    @property
    def final_pair(self):
        return self.a_trees[-1], self.b_trees[-1]


def sandwich_assemble(tree: CubeTree, alpha, levels: int) -> LadderResult:
    """Nested ladder A_1 c ... c A_L c B_L c ... c B_1 with stage
    headlines inside I_n = (a_n, a_{n+1}] and J_n = [b_{n+1}, b_n),
    a_n = alpha(1 - 2^-n) rising to alpha and b_n falling from the
    source estimate s toward alpha."""
    if levels < 1:
        raise DomainError("ladder needs L >= 1")
    alpha = float(alpha)
    D, M = tree.depth, tree.base
    log_m = math.log(M)
    s = star_dimension_report(tree, "local", k_max=D).headline
    if not 0 < alpha < s:
        raise DomainError(f"alpha must lie in (0, {s:.6f})")
    a = [alpha * (1 - 2.0**-n) for n in range(1, levels + 2)]
    b = [s + (alpha - s) * (1 - 2.0 ** (1 - n)) for n in range(1, levels + 2)]
    i_mids = [(a[n] + a[n + 1]) / 2 for n in range(levels)]
    j_mids = [(b[n + 1] + b[n]) / 2 for n in range(levels)]
    maxima, _ = tree.count_profile()
    max_children = [row[0][0] for row in maxima[:D]]

    caps_b = []
    ub = max_children
    for n in range(levels):
        caps = plan_caps(D, j_mids[n] * D * log_m, ub)
        caps_b.append(caps)
        ub = caps
    caps_a = []
    for n in reversed(range(levels)):
        ub = caps_b[n] if not caps_a else \
            [min(x, y) for x, y in zip(caps_b[n], caps_a[0])]
        caps_a.insert(0, plan_caps(D, i_mids[n] * D * log_m, ub))

    def build(caps, interval, idx, half_open_low):
        sub = prune_with_caps(tree, caps)
        headline = star_dimension_report(sub, "local", k_max=D).headline
        lo, hi = interval
        tol = 1e-9
        if half_open_low:   # (lo, hi]
            ok = lo + tol < headline <= hi + tol
        else:               # [lo, hi)
            ok = lo - tol <= headline < hi - tol
        if not ok:
            raise DomainError(
                f"stage {idx} headline {headline:.6f} outside "
                f"{'(' if half_open_low else '['}{lo:.6f}, {hi:.6f}"
                f"{']' if half_open_low else ')'}")
        return sub, headline

    a_trees, b_trees, a_stages, b_stages = [], [], [], []
    for n in range(levels):
        sub, headline = build(caps_b[n], (b[n + 1], b[n]), n + 1, False)
        b_trees.append(sub)
        b_stages.append(LadderStage(n + 1, (b[n + 1], b[n]), caps_b[n],
                                    headline, True))
    for n in range(levels):
        sub, headline = build(caps_a[n], (a[n], a[n + 1]), n + 1, True)
        a_trees.append(sub)
        a_stages.append(LadderStage(n + 1, (a[n], a[n + 1]), caps_a[n],
                                    headline, True))
    chain = a_trees + list(reversed(b_trees))
    for inner, outer in zip(chain, chain[1:]):
        if not outer.contains_tree(inner):
            raise DomainError("ladder nesting violated")
    return LadderResult(a_trees, b_trees, a_stages, b_stages)
