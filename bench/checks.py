"""Output checks of the benchmark, made apart from the program.

Nothing here calls the counting kernels, the extraction code or sympy:
counts come from flat enumeration of leaf paths, radii and powers from
integer and `Fraction` arithmetic.  Each check returns a list of
problems, empty when the output is right.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction


# -- set files -------------------------------------------------------------


def parse_bdt(text):
    """Header line and the list of leaf lines of a .bdt text."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return (lines[0] if lines else ""), lines[1:]


def path_line(path):
    """The .bdt leaf line of a leaf path (digit keys, base <= 10)."""
    dim = len(path[0]) if path else 1
    return ",".join("".join(str(key[i]) for key in path)
                    for i in range(dim))


def check_bdt_text(text, header, expected_lines):
    """The file holds `header` and exactly the expected leaf lines, each
    once, sorted."""
    got_header, lines = parse_bdt(text)
    problems = []
    if got_header != header:
        problems.append(f"header {got_header!r}, expected {header!r}")
    if lines != sorted(lines):
        problems.append("leaf lines are not sorted")
    if len(set(lines)) != len(lines):
        problems.append("duplicate leaf lines")
    want = set(expected_lines)
    got = set(lines)
    if got != want:
        problems.append(f"{len(want - got)} leaves missing, "
                        f"{len(got - want)} leaves extra")
    return problems


# -- flat counting ---------------------------------------------------------


def flat_profile(paths, depth):
    """For k = 1..depth, the (max, min) over every occupied cube of level
    l <= depth - k of the number of its occupied level-(l+k) subcubes,
    counted from the leaf paths alone."""
    codes = {}
    words = set()
    for path in paths:
        words.add("".join(codes.setdefault(key, chr(0x100 + len(codes)))
                          for key in path))
    prefixes = [set(w[:m] for w in words) for m in range(depth + 1)]
    best = {k: (0, None) for k in range(1, depth + 1)}
    for m in range(1, depth + 1):
        for level in range(m):
            per_cube = {}
            for p in prefixes[m]:
                q = p[:level]
                per_cube[q] = per_cube.get(q, 0) + 1
            counts = per_cube.values()
            hi, lo = best[m - level]
            cmax, cmin = max(counts), min(counts)
            best[m - level] = (max(hi, cmax),
                               cmin if lo is None else min(lo, cmin))
    return best


def log_ratio(count, k, base):
    return math.log(count) / (k * math.log(base))


def check_report_rows(tsv, expected_counts, base, label):
    """Report rows `k count logratio witness` against recounted
    `expected_counts` (k -> count)."""
    problems = []
    rows = [line.split("\t") for line in tsv.strip().split("\n")[1:]]
    if [int(r[0]) for r in rows] != sorted(expected_counts):
        problems.append(f"{label}: rows for k={[r[0] for r in rows]}")
        return problems
    for r in rows:
        k, count, ratio = int(r[0]), int(r[1]), float(r[2])
        if count != expected_counts[k]:
            problems.append(f"{label}: k={k} count {count}, recount "
                            f"{expected_counts[k]}")
        elif abs(ratio - log_ratio(count, k, base)) > 1e-6:
            problems.append(f"{label}: k={k} log-ratio {ratio}")
    return problems


def headline_problems(headline, alpha, eps, k, base, dim):
    """The headline lies in [alpha-eps-delta, alpha+eps+delta] with
    delta = d log 2 / (k log M)."""
    delta = dim * math.log(2) / (k * math.log(base))
    lo = float(alpha - eps) - delta
    hi = float(alpha + eps) + delta
    if not lo <= headline <= hi:
        return [f"headline {headline:.6f} outside [{lo:.6f}, {hi:.6f}]"]
    return []


def max_children(paths):
    """Largest number of children of any node of the tree with these
    leaf paths."""
    kids = {}
    for path in paths:
        for level in range(len(path)):
            kids.setdefault(path[:level], set()).add(path[level])
    return max(len(v) for v in kids.values())


def floor_root_power(base, exp):
    """floor(base ** exp) for a Fraction exp >= 0, in integers."""
    return int_root(base ** exp.numerator, exp.denominator)


def int_root(n, p):
    """floor(n ** (1/p)) for integers n >= 0, p >= 1 (bisection)."""
    lo, hi = 0, 1
    while hi ** p <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** p <= n:
            lo = mid
        else:
            hi = mid
    return lo


# -- the two-sided ladder ----------------------------------------------------


def ladder_problems(source_leaves, depth, base, alpha, a_sets, b_sets):
    """A_1 c ... c A_L c B_L c ... c B_1 c source, with the headline of
    A_n in (a_n, a_{n+1}] and of B_n in [b_{n+1}, b_n), where
    a_n = alpha(1 - 2^-n), b_n = s + (alpha - s)(1 - 2^(1-n)) and s is
    the source headline.  At k = depth the headline of a tree is
    log(leaf count) / (depth log b)."""
    problems = []
    chain = list(a_sets) + list(reversed(b_sets)) + [source_leaves]
    for i, (inner, outer) in enumerate(zip(chain, chain[1:])):
        if not inner <= outer:
            problems.append(f"ladder step {i} is not nested in the next")
    s = log_ratio(len(source_leaves), depth, base)
    levels = len(a_sets)
    a = [alpha * (1 - 2.0 ** -n) for n in range(1, levels + 2)]
    b = [s + (alpha - s) * (1 - 2.0 ** (1 - n)) for n in range(1, levels + 2)]
    tol = 1e-9
    for n, leaves in enumerate(a_sets):
        h = log_ratio(len(leaves), depth, base)
        if not a[n] + tol < h <= a[n + 1] + tol:
            problems.append(f"A_{n + 1} headline {h:.6f} outside "
                            f"({a[n]:.6f}, {a[n + 1]:.6f}]")
    for n, leaves in enumerate(b_sets):
        h = log_ratio(len(leaves), depth, base)
        if not b[n + 1] - tol <= h < b[n] - tol:
            problems.append(f"B_{n + 1} headline {h:.6f} outside "
                            f"[{b[n + 1]:.6f}, {b[n]:.6f})")
    return problems


# -- far windows -------------------------------------------------------------


def gap_condition_problems(windows, t, base):
    """sum_{i<k} side_i^t <= gap_k^t for every window k > 0, where
    windows are (offset, side_exp) in 1-D, placed left to right, and
    gap_k is the distance from window k to the farthest point before
    it.  Decided with 60-digit decimals; a near tie is reported."""
    problems = []
    with localcontext() as ctx:
        ctx.prec = 60
        exp = Decimal(t.numerator) / Decimal(t.denominator)
        for k in range(1, len(windows)):
            reach = max(off + base ** e for off, e in windows[:k])
            gap = windows[k][0] - reach
            if gap <= 0:
                problems.append(f"window {k} overlaps or touches window "
                                f"{k - 1}")
                continue
            lhs = sum(Decimal(base ** e) ** exp for _, e in windows[:k])
            rhs = Decimal(gap) ** exp
            if abs(lhs - rhs) <= rhs * Decimal(10) ** -40:
                problems.append(f"gap condition at window {k} is a tie "
                                f"that 60 digits cannot decide")
            elif lhs > rhs:
                problems.append(f"gap condition fails at window {k}: "
                                f"{lhs:.6e} > {rhs:.6e}")
    return problems


# -- lower construction balls -------------------------------------------------


def _dist(x, y):
    return max(abs(a - b) for a, b in zip(x, y))


def _mu_bounds(M, alpha, bits):
    """Rationals lo < mu <= hi around mu = M^(-q/p), alpha = p/q."""
    p, q = alpha.numerator, alpha.denominator
    scale = 1 << bits
    a = int_root(M ** q * scale ** p, p)  # a <= M^(q/p) * scale < a+1
    return Fraction(scale, a + 1), Fraction(scale, a)


def lower_ball_problems(centers, M, alpha, depth, R0=Fraction(1)):
    """Re-check a ball tree (word -> center) in exact arithmetic: M^k
    words per level, level-k balls pairwise disjoint, every ball inside
    its parent, and the first child on its parent's center.  Radii are
    R0 * lambda^k with lambda = M^(-q/p) for alpha = p/q."""
    p, q = alpha.numerator, alpha.denominator
    root = int_root(M ** q, p)
    lam = Fraction(1, root) if root ** p == M ** q else None
    problems = []
    levels = {}
    for word in centers:
        levels.setdefault(len(word), []).append(word)
    for k in range(depth + 1):
        if len(levels.get(k, [])) != M ** k:
            problems.append(f"level {k} has {len(levels.get(k, []))} "
                            f"balls, expected {M ** k}")
    for k in range(1, depth + 1):
        words = sorted(levels.get(k, []))
        for i, w in enumerate(words):
            for v in words[i + 1:]:
                dist = _dist(centers[w], centers[v])
                if lam is not None:
                    apart = dist > 2 * R0 * lam ** k
                else:  # dist > 2 R0 M^(-qk/p)
                    apart = (dist / (2 * R0)) ** p * M ** (q * k) > 1
                if not apart:
                    problems.append(f"level {k}: balls {w} and {v} meet")
            parent = centers[w[:-1]]
            if w[-1] == 1 and centers[w] != parent:
                problems.append(f"anchor moved at {w}")
            y = _dist(centers[w], parent) / R0
            if not _nested(y, k, lam, M, alpha):
                problems.append(f"ball {w} escapes its parent")
    return problems


def _nested(y, k, lam, M, alpha):
    """y + lambda^k <= lambda^(k-1), i.e. the level-k ball at scaled
    distance y from its parent's center lies inside the parent."""
    if lam is not None:
        return y + lam ** k <= lam ** (k - 1)
    for bits in (64, 256, 1024):
        lo, hi = _mu_bounds(M, alpha, bits)
        # mu^(k-1) - mu^k lies in [lo^(k-1) - hi^k, hi^(k-1) - lo^k]
        if y <= lo ** (k - 1) - hi ** k:
            return True
        if y > hi ** (k - 1) - lo ** k:
            return False
    return False
