"""Command-line entry point.

Verbs: gen, estimate, extract, verify, info.  Exit status 0 on success,
1 on domain errors (violated preconditions, named in the diagnostic),
2 on I/O or parse errors.  All randomness sits behind --seed (default 0,
never wall-clock); reports go to stdout unless --out/--report is given.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import estimators, extract_assouad, extract_lower, generators
from .core import (CubeTree, DomainError, PointSet, SetFormatError,
                   WindowedSet, leaf_representatives, read_bdt, read_wdt,
                   write_bdt, write_wdt)
from .exactmath import (count_meets_power_bound, parse_fraction,
                        pow_at_least)


def _read_set(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SetFormatError(0, f"cannot read '{path}': {exc}") from None
    first = text.split("\n", 1)[0]
    if first.startswith("bdt "):
        return read_bdt(text)
    if first.startswith("wdt "):
        return read_wdt(text)
    raise SetFormatError(1, f"'{path}': not a .bdt/.wdt header")


def _emit(text: str, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_set(obj, path):
    text = write_bdt(obj) if isinstance(obj, CubeTree) else write_wdt(obj)
    _emit(text, path)


def _int_list(text: str):
    return [int(x) for x in text.split(",") if x != ""]


# -- gen ---------------------------------------------------------------


def _cmd_gen(args) -> int:
    params = {}
    for name in ("base", "dim", "depth", "m", "chain", "count",
                 "max_children", "seed", "local_depth"):
        val = getattr(args, name, None)
        if val is not None:
            params[name] = val
    for name in ("digits", "local_digits", "global_digits"):
        val = getattr(args, name, None)
        if val is not None:
            params[name] = _int_list(val)
    obj = generators.generate(generators.GeneratorSpec(args.family, params))
    _write_set(obj, args.out)
    return 0


# -- estimate ----------------------------------------------------------


def _cmd_estimate(args) -> int:
    obj = _read_set(args.input)
    kind = args.kind
    if kind == "lower-cover":
        if not isinstance(obj, CubeTree):
            raise DomainError("lower-cover estimates need a .bdt tree")
        report = estimators.lower_dimension_report(obj, args.kmax)
        k_max = args.kmax or obj.depth
    else:
        sub = kind.removeprefix("star-")
        if isinstance(obj, CubeTree):
            report = estimators.star_dimension_report(obj, "local", args.kmax)
            k_max = args.kmax or obj.depth
        else:
            k_max = args.kmax or max(w.tree.depth for w in obj.windows)
            report = estimators.star_dimension_report(obj, sub, k_max)
    _emit(report.to_tsv(), args.report)
    print(f"estimate={report.headline:.6f} kind={report.kind} "
          f"depth={k_max}")
    return 0


# -- extract -----------------------------------------------------------


def _parse_strategy(text: str):
    if text == "greedy":
        return "greedy", 0
    if text == "random":
        return "random", 0
    if text.startswith("random:"):
        return "random", int(text.split(":", 1)[1])
    raise DomainError(f"unknown strategy '{text}'")


def _rebase_to(tree: CubeTree, M: int) -> CubeTree:
    if M == tree.base:
        return tree
    t = 1
    while tree.base**t < M:
        t += 1
    if tree.base**t != M:
        raise DomainError(
            f"M={M} is not a power of the tree base {tree.base}")
    return tree.rebase(t)


def _cmd_extract_assouad(args) -> int:
    obj = _read_set(args.input)
    if not isinstance(obj, CubeTree):
        raise DomainError("extract assouad needs a .bdt tree")
    tree = _rebase_to(obj, args.M) if args.M else obj
    strategy, seed = _parse_strategy(args.strategy)
    if args.seed:
        seed = args.seed
    trace = extract_assouad.construct_subset_assouad(
        tree, parse_fraction(args.alpha), parse_fraction(args.eps),
        args.stages, strategy=strategy, seed=seed)
    if args.out:
        out_tree = trace.tree
        if out_tree.base != obj.base:  # undo the rebase for writing
            out_tree = out_tree.debase(obj.base)
        _write_set(out_tree, args.out)
    _emit(trace.to_tsv(), args.trace)
    print(f"headline={trace.headline:.6f} delta={trace.delta:.6f} "
          f"kstar={trace.k_star}")
    return 0


def _cmd_extract_assouad_global(args) -> int:
    obj = _read_set(args.input)
    if not isinstance(obj, WindowedSet):
        raise DomainError("extract assouad-global needs a .wdt set")
    out = extract_assouad.construct_subset_assouad_global(
        obj, parse_fraction(args.alpha), parse_fraction(args.eps))
    _write_set(out, args.out)
    return 0


def _points_to_tree(points: PointSet) -> CubeTree:
    b, d = points.base, points.dim
    depth = 0
    for p in points.points:
        for x in p:
            e = 0
            while (x * b**e).denominator != 1:
                e += 1
            depth = max(depth, e)
    paths = []
    for p in points.points:
        ints = [int(x * b**depth) for x in p]
        paths.append(tuple(
            tuple((v // b ** (depth - 1 - j)) % b for v in ints)
            for j in range(depth)))
    return CubeTree.from_leaves(b, d, max(depth, 1),
                                paths if depth else
                                [((0,) * d,) for _ in points.points])


def _cmd_extract_lower(args) -> int:
    obj = _read_set(args.input)
    if not isinstance(obj, CubeTree):
        raise DomainError("extract lower needs a .bdt tree")
    params = extract_lower.LowerParams(
        alpha=parse_fraction(args.alpha), M=args.M, depth=args.depth,
        eps=parse_fraction(args.eps), R0=parse_fraction(args.R0))
    ball_tree = extract_lower.construct_subset_lower(obj, params)
    verification = extract_lower.verify_lower_bounds(ball_tree)
    if args.out:
        pts = PointSet.of(obj.base, obj.dim, ball_tree.leaf_points)
        _write_set(_points_to_tree(pts), args.out)
    _emit(verification.to_tsv(), args.report)
    status = "ok" if verification.ok else "FAIL"
    print(f"centers={len(ball_tree.leaf_points)} "
          f"box_ratio={verification.box_ratio} verification={status}")
    return 0 if verification.ok else 1


# -- verify ------------------------------------------------------------


def _verify_h_star(seed: int, samples: int):
    fams = [
        generators.digit_cantor(3, 1, [0, 2], 6),
        generators.full_cube(2, 2, 4),
        generators.one_over_k(16, 8),
    ]
    rng = random.Random(seed)
    for _ in range(samples):
        fams.append(generators.random_branching_tree(
            rng.choice([2, 3]), 1, rng.randint(3, 7),
            rng.randint(1, 2), rng.randrange(1 << 30)))
    failures = []
    for tree in fams:
        for k in range(1, tree.depth + 1):
            got, _ = estimators.h_star(tree, k)
            want = generators.oracle_exact_hstar(tree, k)
            if got != want:
                failures.append(
                    f"h_star={got} oracle={want} (b={tree.base} "
                    f"depth={tree.depth} k={k})")
    return failures


def _verify_packing_sandwich(seed: int, samples: int):
    rng = random.Random(seed)
    cantor = leaf_representatives(generators.digit_cantor(3, 1, [0, 2], 6))
    failures = []
    for i in range(samples):
        if i % 2 == 0:
            pts = cantor
        else:
            coords = sorted(set(
                Fraction(rng.randrange(0, 64), 64) for _ in range(12)))
            pts = PointSet.of(2, 1, [(c,) for c in coords])
        center = pts.points[rng.randrange(len(pts.points))]
        R = Fraction(rng.randrange(8, 64), 64)
        r = R / rng.randrange(4, 16)
        rows = estimators.verify_cover_pack_sandwich(pts, [(center, R, r)])
        for row in rows:
            if not row.ok:
                failures.append(
                    f"sandwich failed at center={row.center} R={row.R} "
                    f"r={row.r}: {row.cover_2r} <= {row.packing} <= "
                    f"{row.cover_r3}")
    return failures


def _verify_prune_bound(seed: int, samples: int):
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        M = rng.choice([2, 3, 4])
        depth = rng.randint(2, 5)
        tree = generators.random_branching_tree(
            M, 1, depth, M, rng.randrange(1 << 30))
        max_kids = max(
            (len(n.children)
             for layer in tree.levels() for n in layer), default=1)
        # smallest eps (denominator 6) making every N <= max_kids
        # admissible: the lemma requires N <= M^(s+eps) with s = 0 here
        num = 0
        while not pow_at_least(M, Fraction(num, 6), max_kids):
            num += 1
        eps = Fraction(num, 6)
        for N in range(1, max_kids + 1):
            params = extract_assouad.PruneParams(
                M, depth, N, Fraction(0), eps)
            pruned = extract_assouad.prune(tree, params)
            if not count_meets_power_bound(pruned.leaf_count, M, depth, N,
                                           eps):
                failures.append(
                    f"leaf bound failed: M={M} depth={depth} N={N}")
            over = max(
                (len(n.children)
                 for layer in pruned.levels() for n in layer), default=0)
            if over > N:
                failures.append(
                    f"cap violated: M={M} depth={depth} N={N} got {over}")
    return failures


def _verify_lemma21(seed: int, samples: int):
    """Ball-based and cube-based counts agree within 6^d on digit-rule
    trees at matched scales."""
    rng = random.Random(seed)
    failures = []
    tree = generators.digit_cantor(3, 1, [0, 2], 6)
    pts = leaf_representatives(tree)
    for _ in range(samples):
        k = rng.randint(1, 4)
        r = Fraction(1, 3**k)
        center = pts.points[rng.randrange(len(pts.points))]
        n_ball = estimators.ball_cover_count(pts, center, Fraction(2), r)
        n_cube, _ = estimators.h_star(tree, k)
        factor = 6**tree.dim
        if not (n_ball <= n_cube * factor and n_cube <= n_ball * factor):
            failures.append(
                f"ball/cube counts {n_ball} vs {n_cube} differ by more "
                f"than {factor} at k={k}")
    return failures


_VERIFIERS = {
    "h-star": (_verify_h_star, 10),
    "packing-sandwich": (_verify_packing_sandwich, 50),
    "prune-bound": (_verify_prune_bound, 25),
    "lemma21": (_verify_lemma21, 25),
}


def _cmd_verify(args) -> int:
    fn, default_samples = _VERIFIERS[args.property]
    failures = fn(args.seed, args.samples or default_samples)
    if failures:
        for f in failures:
            print(f"FAIL {args.property}: {f}")
        return 1
    print(f"PASS {args.property}")
    return 0


# -- info --------------------------------------------------------------


def _cmd_info(args) -> int:
    obj = _read_set(args.input)
    if isinstance(obj, CubeTree):
        print(f"bdt b={obj.base} d={obj.dim} n={obj.depth}")
        print(f"leaves={obj.leaf_count}")
        for k in range(obj.depth + 1):
            print(f"level {k}: {obj.count_at_depth(k)} cubes")
    else:
        print(f"wdt b={obj.base} d={obj.dim} windows={len(obj.windows)}")
        for i, w in enumerate(obj.windows):
            print(f"window {i}: off={w.offset} m={w.side_exp} "
                  f"depth={w.tree.depth} leaves={w.tree.leaf_count}")
    return 0


# -- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="badicdim",
        description="Finite-scale Assouad/lower dimension toolkit on "
                    "b-adic cube trees.")
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("gen", help="generate a canonical set")
    gen.add_argument("family", choices=generators.FAMILIES)
    gen.add_argument("--base", type=int)
    gen.add_argument("--dim", type=int)
    gen.add_argument("--depth", type=int)
    gen.add_argument("--digits")
    gen.add_argument("--m", type=int)
    gen.add_argument("--chain", type=int)
    gen.add_argument("--count", type=int)
    gen.add_argument("--max-children", dest="max_children", type=int)
    gen.add_argument("--local-digits", dest="local_digits")
    gen.add_argument("--global-digits", dest="global_digits")
    gen.add_argument("--local-depth", dest="local_depth", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_gen)

    est = sub.add_parser("estimate", help="finite-scale dimension report")
    est.add_argument("--in", dest="input", required=True)
    est.add_argument("--kind", default="star-local",
                     choices=["star-local", "star-global", "lower-cover"])
    est.add_argument("--kmax", type=int)
    # accepted and ignored: the kernel has one thread, and the benchmark's
    # workloads still pass --workers 1
    est.add_argument("--workers", type=int, help=argparse.SUPPRESS)
    est.add_argument("--report")
    est.set_defaults(func=_cmd_estimate)

    ext = sub.add_parser("extract", help="constructive subset extraction")
    ext_sub = ext.add_subparsers(dest="what", required=True)

    ea = ext_sub.add_parser("assouad")
    ea.add_argument("--alpha", required=True)
    ea.add_argument("--eps", required=True)
    ea.add_argument("--M", type=int)
    ea.add_argument("--stages", type=int, default=3)
    ea.add_argument("--strategy", default="greedy")
    ea.add_argument("--seed", type=int, default=0)
    ea.add_argument("--in", dest="input", required=True)
    ea.add_argument("--out")
    ea.add_argument("--trace")
    ea.set_defaults(func=_cmd_extract_assouad)

    eg = ext_sub.add_parser("assouad-global")
    eg.add_argument("--alpha", required=True)
    eg.add_argument("--eps", required=True)
    eg.add_argument("--in", dest="input", required=True)
    eg.add_argument("--out")
    eg.set_defaults(func=_cmd_extract_assouad_global)

    el = ext_sub.add_parser("lower")
    el.add_argument("--alpha", required=True)
    el.add_argument("--M", type=int, required=True)
    el.add_argument("--depth", type=int, required=True)
    el.add_argument("--eps", default="0")
    el.add_argument("--R0", default="1")
    el.add_argument("--in", dest="input", required=True)
    el.add_argument("--out")
    el.add_argument("--report")
    el.set_defaults(func=_cmd_extract_lower)

    ver = sub.add_parser("verify", help="property checks on generated sets")
    ver.add_argument("property", choices=sorted(_VERIFIERS))
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--samples", type=int)
    ver.set_defaults(func=_cmd_verify)

    info = sub.add_parser("info", help="describe a set file")
    info.add_argument("--in", dest="input", required=True)
    info.set_defaults(func=_cmd_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SetFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
