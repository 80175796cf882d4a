"""The benchmark's own checks at toy size: each passes on the program's
output and fails on a deliberately wrong one.

    python3 -m pytest bench/test_checks.py
"""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from badicdim import core, estimators, extract_assouad, extract_lower  # noqa
import checks  # noqa: E402
import workloads  # noqa: E402


def _lines(tree):
    return [checks.path_line(p) for p in tree.iter_leaf_paths()]


def test_written_tree_check_catches_a_removed_leaf():
    tree = core.CubeTree.full(2, 1, 4)
    text = core.write_bdt(tree)
    header = "bdt b=2 d=1 n=4"
    assert checks.check_bdt_text(text, header, _lines(tree)) == []
    lines = text.split("\n")
    del lines[5]
    problems = checks.check_bdt_text("\n".join(lines), header, _lines(tree))
    assert problems == ["1 leaves missing, 0 leaves extra"]


def test_written_tree_check_catches_a_wrong_header():
    tree = core.CubeTree.full(3, 1, 2)
    text = core.write_bdt(tree).replace("n=2", "n=3")
    assert checks.check_bdt_text(text, "bdt b=3 d=1 n=2", _lines(tree))


def _extraction():
    source = core.CubeTree.full(2, 1, 16).rebase(4)
    trace = extract_assouad.construct_subset_assouad(
        source, Fraction(1, 2), Fraction(1, 4), 2)
    paths = list(trace.tree.iter_leaf_paths())
    count = checks.flat_profile(paths, 4)[trace.k_star][0]
    return trace, checks.log_ratio(count, trace.k_star, 16)


def test_headline_check_passes_the_extracted_subset():
    trace, headline = _extraction()
    assert abs(headline - trace.headline) < 1e-6
    assert checks.headline_problems(headline, Fraction(1, 2),
                                    Fraction(1, 4), trace.k_star, 16, 1) == []


def test_headline_check_catches_a_headline_outside_its_window():
    trace, headline = _extraction()
    delta = checks.log_ratio(2, trace.k_star, 16)
    moved = 0.75 + delta + 1e-3
    assert checks.headline_problems(moved, Fraction(1, 2), Fraction(1, 4),
                                    trace.k_star, 16, 1)
    # the whole source recounted as if it were the output: headline 1
    full = list(core.CubeTree.full(16, 1, 4).iter_leaf_paths())
    count = checks.flat_profile(full, 4)[trace.k_star][0]
    assert checks.headline_problems(
        checks.log_ratio(count, trace.k_star, 16), Fraction(1, 2),
        Fraction(1, 4), trace.k_star, 16, 1)


def test_report_rows_check_catches_a_wrong_count():
    tree = core.CubeTree.from_leaves(
        2, 1, 4, [((0,), (0,), (1,), (1,)), ((0,), (1,), (0,), (0,)),
                  ((1,), (1,), (1,), (0,))])
    profile = checks.flat_profile(list(tree.iter_leaf_paths()), 4)
    want = {k: v[0] for k, v in profile.items()}
    tsv = estimators.star_dimension_report(tree).to_tsv()
    assert checks.check_report_rows(tsv, want, 2, "star") == []
    lower = estimators.lower_dimension_report(tree).to_tsv()
    assert checks.check_report_rows(
        lower, {k: v[1] for k, v in profile.items()}, 2, "lower") == []
    rows = tsv.split("\n")
    fields = rows[2].split("\t")
    fields[1] = str(int(fields[1]) + 1)
    rows[2] = "\t".join(fields)
    assert checks.check_report_rows("\n".join(rows), want, 2, "star")


def _balls(source, alpha, M, depth):
    params = extract_lower.LowerParams(alpha, M, depth)
    return extract_lower.construct_subset_lower(source, params).centers


def test_lower_ball_check_catches_overlapping_balls():
    alpha = Fraction(1, 2)
    centers = _balls(core.CubeTree.full(4, 1, 8), alpha, 4, 2)
    assert checks.lower_ball_problems(centers, 4, alpha, 2) == []
    bad = dict(centers)
    (x,) = bad[(1, 2)]
    bad[(1, 3)] = (x + Fraction(1, 1 << 12),)
    problems = checks.lower_ball_problems(bad, 4, alpha, 2)
    assert any("meet" in p for p in problems)


def test_lower_ball_check_with_an_irrational_ratio():
    alpha = Fraction(2, 5)
    centers = _balls(core.CubeTree.full(5, 1, 4), alpha, 5, 1)
    assert checks.lower_ball_problems(centers, 5, alpha, 1) == []
    bad = dict(centers)
    (x,) = bad[(2,)]
    bad[(3,)] = (x + Fraction(1, 100),)
    assert any("meet" in p
               for p in checks.lower_ball_problems(bad, 5, alpha, 1))
    bad = dict(centers)
    bad[(1,)] = bad[(2,)]
    assert any("anchor" in p
               for p in checks.lower_ball_problems(bad, 5, alpha, 1))


def test_lower_ball_check_catches_a_missing_ball():
    alpha = Fraction(1, 2)
    centers = _balls(core.CubeTree.full(4, 1, 8), alpha, 4, 1)
    del centers[(4,)]
    assert checks.lower_ball_problems(centers, 4, alpha, 1) == [
        "level 1 has 3 balls, expected 4"]


def test_nesting_bound_for_an_irrational_ratio():
    # mu = 5^(-5/2) ~ 0.01789; a child sits inside its parent at level 1
    # iff its scaled distance y satisfies y <= 1 - mu
    M, alpha = 5, Fraction(2, 5)
    assert checks._nested(Fraction(98, 100), 1, None, M, alpha)
    assert not checks._nested(Fraction(99, 100), 1, None, M, alpha)


def test_gap_condition_check():
    t = Fraction(3, 4)
    ok = [(0, 2), (10_000, 3)]
    assert checks.gap_condition_problems(ok, t, 16) == []
    close = [(0, 2), (300, 3)]  # gap 44 < 256
    assert checks.gap_condition_problems(close, t, 16)
    touching = [(0, 2), (256, 3)]
    assert checks.gap_condition_problems(touching, t, 16)


def test_global_construction_passes_the_gap_check():
    windows = []
    for offset, m in workloads.Windowed.FAR:
        tree = core.CubeTree.full(16, 1, m)
        windows.append(core.Window(offset, m, tree))
    wset = core.WindowedSet(16, 1, windows)
    alpha, eps = Fraction(1, 2), Fraction(1, 4)
    out = extract_assouad.construct_subset_assouad_global(wset, alpha, eps)
    assert checks.gap_condition_problems(
        [(w.offset[0], w.side_exp) for w in out.windows], alpha + eps,
        16) == []
    cap = checks.floor_root_power(16, alpha)
    assert cap == 4
    assert all(checks.max_children(list(w.tree.iter_leaf_paths())) <= cap
               for w in out.windows)
    assert checks.max_children(list(wset.windows[0].tree.iter_leaf_paths())
                               ) == 16


def test_ladder_check_catches_broken_nesting():
    tree = core.CubeTree.full(2, 1, 12)
    res = extract_assouad.sandwich_assemble(tree, 0.5, 2)
    leaves = set(tree.iter_leaf_paths())
    a_sets = [set(t.iter_leaf_paths()) for t in res.a_trees]
    b_sets = [set(t.iter_leaf_paths()) for t in res.b_trees]
    assert checks.ladder_problems(leaves, 12, 2, 0.5, a_sets, b_sets) == []
    stray = next(iter(leaves - b_sets[0]))
    a_sets[0] = a_sets[0] | {stray}
    assert checks.ladder_problems(leaves, 12, 2, 0.5, a_sets, b_sets)


def test_random_tree_draw_hits_its_leaf_target():
    for seed in range(3):
        drawn = workloads.draw_random_trees(random.Random(seed), 2, 12, 2,
                                            4, 480)
        assert len(drawn) == 4
        assert abs(sum(t.leaf_count for _, t in drawn) - 480) <= 0.005 * 480
        again = workloads.draw_random_trees(random.Random(seed), 2, 12, 2,
                                            4, 480)
        assert [s for s, _ in again] == [s for s, _ in drawn]


def test_int_root():
    assert [checks.int_root(n, 3) for n in (0, 1, 7, 8, 26, 27)] == [
        0, 1, 1, 2, 2, 3]
    assert checks.int_root(5 ** 5 * 2 ** 128, 2) == math.isqrt(
        5 ** 5 * 2 ** 128)


def test_tracer_wraps_names_wherever_looked_up_and_restores_them(tmp_path):
    import tracing
    from badicdim import cli, exactmath, generators, geometry
    modules = {"cli": cli, "core": core, "estimators": estimators,
               "exactmath": exactmath, "extract_assouad": extract_assouad,
               "extract_lower": extract_lower, "generators": generators,
               "geometry": geometry}
    originals = (cli.read_bdt, extract_assouad.badic_power_sum_le,
                 core.CubeTree.levels)
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        assert cli.read_bdt is core.read_bdt is not originals[0]
        assert extract_assouad.badic_power_sum_le is not originals[1]
        tracer.start_pass(1)
        path = tmp_path / "c.bdt"
        workloads.run_cli(["gen", "full-cube", "--base", "2", "--dim", "1",
                           "--depth", "4", "--out", str(path)])
        workloads.run_cli(["estimate", "--in", str(path)])
    finally:
        tracer.uninstall()
    assert (cli.read_bdt, extract_assouad.badic_power_sum_le,
            core.CubeTree.levels) == originals
    assert tracer.counts["core.bytes_read"] == len(path.read_text())
    assert tracer.counts["estimators.report_rows"] == 4
    assert tracer.counts["core.leaves_in"] == 16
    assert tracer.counts["core.nodes_in"] == 5
    assert tracer.counts["core.levels"] == 4  # one walk per k
    self_times = tracer.self_times(1)
    assert self_times["cli"] > 0 and self_times["core.read"] > 0
    assert all(t >= 0 for t in self_times.values())
