import json
import math
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import badicdim
from badicdim.cli import build_parser, main
from badicdim.core import read_bdt, read_wdt, write_wdt
from badicdim.exactmath import MAX_DENOMINATOR


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_estimate_pipeline_cantor(tmp_path, capsys):
    path = str(tmp_path / "cantor.bdt")
    code, _, _ = run(capsys, "gen", "digit-cantor", "--base", "3",
                     "--dim", "1", "--digits", "0,2", "--depth", "8",
                     "--out", path)
    assert code == 0
    code, out, _ = run(capsys, "estimate", "--in", path)
    assert code == 0
    line = [ln for ln in out.splitlines() if ln.startswith("estimate=")][0]
    value = float(line.split()[0].split("=")[1])
    assert abs(value - math.log(2) / math.log(3)) < 1e-6
    # TSV report lines precede the headline
    assert out.splitlines()[0] == "k\tcount\tlogratio\twitness"


def test_estimate_report_file_and_kinds(tmp_path, capsys):
    path = str(tmp_path / "w.wdt")
    rep = str(tmp_path / "rep.tsv")
    assert run(capsys, "gen", "lattice-window", "--base", "2", "--dim", "1",
               "--m", "5", "--out", path)[0] == 0
    code, out, _ = run(capsys, "estimate", "--in", path, "--kind",
                       "star-global", "--kmax", "5", "--report", rep)
    assert code == 0
    assert "estimate=1.000000" in out
    with open(rep) as fh:
        assert fh.readline().strip() == "k\tcount\tlogratio\twitness"
    code, out, _ = run(capsys, "estimate", "--in", path, "--kind",
                       "star-local", "--kmax", "4")
    assert code == 0
    assert "estimate=0.000000" in out


def test_estimate_wdt_defaults_to_each_kinds_largest_k(tmp_path, capsys):
    # leaves of side 4^-4: star-local admits k up to 4, and star-global
    # keeps the deepest window tree (7 levels) as its default
    path = str(tmp_path / "u.wdt")
    assert run(capsys, "gen", "prop5-union", "--base", "4", "--m", "3",
               "--local-depth", "4", "--local-digits", "0,2",
               "--global-digits", "0,1,2", "--out", path)[0] == 0
    code, out, _ = run(capsys, "estimate", "--in", path)
    assert code == 0
    assert out.splitlines()[-1] == (
        "estimate=0.500000 kind=star-local depth=4")
    code, out, _ = run(capsys, "estimate", "--in", path, "--kind",
                       "star-global")
    assert code == 0 and out.splitlines()[-1].endswith("depth=7")
    code, _, err = run(capsys, "estimate", "--in", path, "--kmax", "5")
    assert code == 1 and "no admissible cubes for k=5 (local)" in err


def test_estimate_counts_misaligned_coarse_leaves_by_cell(tmp_path, capsys):
    # one window [1, 10) of side-1 leaves, offset 1 off the base-3 grid:
    # the aligned cube [0, 9) holds the cells 1..8, and [3, 6) is the
    # first side-3 cube with 3 of them
    path = tmp_path / "w.wdt"
    path.write_text("wdt b=3 d=1 windows=1\nwindow off=1 m=2\n0\n1\n2\n")
    code, out, _ = run(capsys, "estimate", "--in", str(path), "--kind",
                       "star-global", "--kmax", "2")
    assert code == 0
    assert out.splitlines()[1:3] == [
        "1\t3\t1.000000\tside=b^1 corner_units=(3,) unit_exp=0",
        f"2\t8\t{math.log(8) / math.log(9):.6f}\t"
        "side=b^2 corner_units=(0,) unit_exp=0"]


def test_estimate_lower_cover(tmp_path, capsys):
    path = str(tmp_path / "full.bdt")
    run(capsys, "gen", "full-cube", "--base", "2", "--dim", "1",
        "--depth", "6", "--out", path)
    code, out, _ = run(capsys, "estimate", "--in", path, "--kind",
                       "lower-cover")
    assert code == 0
    assert "estimate=1.000000" in out


def test_gen_reproducible_bytes(tmp_path, capsys):
    a, b, c = (str(tmp_path / n) for n in ("a.bdt", "b.bdt", "c.bdt"))
    common = ["gen", "random-branching", "--base", "3", "--dim", "1",
              "--depth", "6", "--max-children", "2"]
    run(capsys, *common, "--seed", "5", "--out", a)
    run(capsys, *common, "--seed", "5", "--out", b)
    run(capsys, *common, "--seed", "6", "--out", c)
    ab = [open(p, "rb").read() for p in (a, b)]
    assert ab[0] == ab[1]
    assert open(c, "rb").read() != ab[0]


def test_roundtrip_gen_info(tmp_path, capsys):
    path = str(tmp_path / "t.bdt")
    run(capsys, "gen", "digit-cantor", "--base", "3", "--dim", "1",
        "--digits", "0,2", "--depth", "5", "--out", path)
    code, out, _ = run(capsys, "info", "--in", path)
    assert code == 0
    assert "bdt b=3 d=1 n=5" in out
    assert "leaves=32" in out
    assert "level 5: 32 cubes" in out


@pytest.mark.parametrize("gen", [
    ["full-cube", "--base", "2", "--dim", "1", "--depth", "0"],
    ["random-branching", "--base", "3", "--dim", "2", "--depth", "7",
     "--max-children", "4", "--seed", "3"],
    ["one-over-k", "--count", "16", "--depth", "40"],
])
def test_info_prints_every_level_count(tmp_path, capsys, gen):
    path = str(tmp_path / "t.bdt")
    assert run(capsys, "gen", *gen, "--out", path)[0] == 0
    code, out, _ = run(capsys, "info", "--in", path)
    tree = read_bdt(open(path).read())
    assert code == 0
    assert out.splitlines()[2:] == [
        f"level {k}: {tree.descendant_count(tree.root, k)} cubes"
        for k in range(tree.depth + 1)]


@pytest.mark.parametrize("kind", ["star-local", "lower-cover"])
def test_estimate_without_rows_writes_nothing(tmp_path, capsys, kind):
    path, report = str(tmp_path / "t.bdt"), tmp_path / "report"
    assert run(capsys, "gen", "random-branching", "--base", "2", "--depth",
               "0", "--max-children", "1", "--out", path)[0] == 0
    for extra in ([], ["--report", str(report)]):
        code, out, err = run(capsys, "estimate", "--in", path, "--kind",
                             kind, *extra)
        assert (code, out) == (1, "")
        assert "empty report has no headline" in err
        assert not report.exists()


def test_info_wdt(tmp_path, capsys):
    path = str(tmp_path / "w.wdt")
    run(capsys, "gen", "integer-cantor", "--base", "4", "--dim", "1",
        "--m", "3", "--digits", "0,1", "--out", path)
    code, out, _ = run(capsys, "info", "--in", path)
    assert code == 0
    assert out.startswith("wdt b=4 d=1")


def test_extract_assouad_pipeline(tmp_path, capsys):
    src = str(tmp_path / "full.bdt")
    out_path = str(tmp_path / "sub.bdt")
    trace_path = str(tmp_path / "trace.tsv")
    run(capsys, "gen", "full-cube", "--base", "2", "--dim", "1",
        "--depth", "16", "--out", src)
    code, out, _ = run(capsys, "extract", "assouad", "--alpha", "1/2",
                       "--eps", "1/4", "--M", "16", "--stages", "2",
                       "--in", src, "--out", out_path,
                       "--trace", trace_path)
    assert code == 0
    headline = float(out.split("headline=")[1].split()[0])
    delta = float(out.split("delta=")[1].split()[0])
    assert 0.25 - delta <= headline <= 0.75 + delta
    sub = read_bdt(open(out_path).read())
    assert sub.base == 2  # written back in the source base
    with open(trace_path) as fh:
        assert fh.readline().strip() == \
            "stage\twindow\tlevel\tcount\tbound\tok"


def test_extract_assouad_global_pipeline(tmp_path, capsys):
    src = str(tmp_path / "ic.wdt")
    out_path = str(tmp_path / "sub.wdt")
    run(capsys, "gen", "integer-cantor", "--base", "9", "--dim", "1",
        "--m", "2", "--digits", "0,1,2,3,4,5", "--chain", "2", "--out", src)
    code, _, _ = run(capsys, "extract", "assouad-global", "--alpha", "1/2",
                     "--eps", "1/4", "--in", src, "--out", out_path)
    assert code == 0
    code, out, _ = run(capsys, "estimate", "--in", out_path, "--kind",
                       "star-global", "--kmax", "2")
    assert code == 0
    assert "estimate=0.500000" in out


def test_base_16_sets_are_written_and_read_back(tmp_path, capsys):
    src = str(tmp_path / "ic.wdt")
    out_path = str(tmp_path / "sub.wdt")
    assert run(capsys, "gen", "integer-cantor", "--base", "16", "--dim", "1",
               "--m", "2", "--digits", "0,3,10,15", "--chain", "2",
               "--out", src)[0] == 0
    assert open(src).read().splitlines()[2:5] == ["0000", "0300", "0a00"]
    code, _, _ = run(capsys, "extract", "assouad-global", "--alpha", "1/2",
                     "--eps", "1/4", "--in", src, "--out", out_path)
    assert code == 0
    sub = read_wdt(open(out_path).read())
    assert sub.base == 16 and write_wdt(sub) == open(out_path).read()
    code, out, _ = run(capsys, "estimate", "--in", out_path, "--kind",
                       "star-global", "--kmax", "2")
    assert code == 0
    assert "estimate=0.500000" in out
    full = str(tmp_path / "full.bdt")
    assert run(capsys, "gen", "full-cube", "--base", "16", "--dim", "1",
               "--depth", "2", "--out", full)[0] == 0
    assert read_bdt(open(full).read()).leaf_count == 256


def test_extract_lower_pipeline(tmp_path, capsys):
    src = str(tmp_path / "full.bdt")
    out_path = str(tmp_path / "centers.bdt")
    rep = str(tmp_path / "lower.tsv")
    run(capsys, "gen", "full-cube", "--base", "4", "--dim", "1",
        "--depth", "8", "--out", src)
    code, out, _ = run(capsys, "extract", "lower", "--alpha", "1/2",
                       "--M", "4", "--depth", "2", "--in", src,
                       "--out", out_path, "--report", rep)
    assert code == 0
    assert "centers=16" in out
    assert "box_ratio=1/2" in out
    assert "verification=ok" in out
    with open(rep) as fh:
        assert fh.readline().strip() == "x\tR\tr\tNstar\tbound\tok"
    assert read_bdt(open(out_path).read()).leaf_count == 16


def test_domain_error_exits_1(tmp_path, capsys):
    src = str(tmp_path / "c.bdt")
    run(capsys, "gen", "digit-cantor", "--base", "3", "--dim", "1",
        "--digits", "0,2", "--depth", "6", "--out", src)
    code, _, err = run(capsys, "extract", "assouad", "--alpha", "9/10",
                       "--eps", "1/4", "--M", "27", "--in", src)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv, message", [
    (["assouad", "--eps", "1/4", "--M", "4"], "target alpha must be positive"),
    (["lower", "--M", "4", "--depth", "1"], "alpha must be in (0, 1]")])
def test_both_constructions_refuse_alpha_zero(tmp_path, capsys, argv,
                                              message):
    # the s = 0 endpoint, a single point in the paper, is not built
    src, out_path = str(tmp_path / "f.bdt"), str(tmp_path / "sub.bdt")
    run(capsys, "gen", "full-cube", "--base", "2", "--dim", "1",
        "--depth", "6", "--out", src)
    code, out, err = run(capsys, "extract", *argv, "--alpha", "0",
                         "--in", src, "--out", out_path)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "sub.bdt").exists()


IN, OUT = "<in>", "<out>"  # the source set and the output path


@pytest.mark.parametrize("src, argv", [
    ("t.bdt", ["extract", "assouad", "--alpha", "abc", "--eps", "1/4",
               "--trace", OUT, "--in", IN]),
    ("t.bdt", ["extract", "assouad", "--alpha", "1/0", "--eps", "1/4",
               "--trace", OUT, "--in", IN]),
    ("t.bdt", ["extract", "assouad", "--alpha", "1/2", "--eps", "1/4",
               "--strategy", "random:x", "--trace", OUT, "--in", IN]),
    ("w.wdt", ["extract", "assouad-global", "--alpha", "1/2", "--eps",
               "x", "--out", OUT, "--in", IN]),
    ("t.bdt", ["extract", "lower", "--alpha", "1/2", "--M", "2",
               "--depth", "1", "--R0", "zz", "--report", OUT, "--in", IN]),
    ("t.bdt", ["estimate", "--kmax", "0", "--report", OUT, "--in", IN]),
    ("t.bdt", ["estimate", "--kmax", "-3", "--report", OUT, "--in", IN]),
    ("w.wdt", ["estimate", "--kind", "star-global", "--kmax", "0",
               "--report", OUT, "--in", IN]),
    ("t.bdt", ["extract", "assouad", "--alpha", "1/2", "--eps", "1/4",
               "--M", "0", "--trace", OUT, "--in", IN]),
    ("t.bdt", ["verify", "packing-sandwich", "--samples", "-1"]),
    ("t.bdt", ["verify", "lemma21", "--samples", "0"]),
    ("t.bdt", ["gen", "digit-cantor", "--base", "3", "--depth", "2",
               "--digits", "0,x", "--out", OUT]),
    ("t.bdt", ["gen", "prop5-union", "--base", "4", "--m", "2",
               "--local-depth", "3", "--local-digits", "0;2",
               "--global-digits", "0,1", "--out", OUT]),
    ("t.bdt", ["gen", "prop5-union", "--base", "4", "--m", "2",
               "--local-depth", "3", "--local-digits", "0,2",
               "--global-digits", "1.5", "--out", OUT]),
])
def test_malformed_arguments_exit_2_with_usage(tmp_path, capsys, src, argv):
    path, report = str(tmp_path / src), tmp_path / "report"
    family = (["full-cube", "--depth", "4"] if src.endswith(".bdt")
              else ["lattice-window", "--m", "3"])
    assert run(capsys, "gen", *family, "--base", "2", "--dim", "1",
               "--out", path)[0] == 0
    with pytest.raises(SystemExit) as e:
        main([{IN: path, OUT: str(report)}.get(a, a) for a in argv])
    out = capsys.readouterr()
    assert e.value.code == 2
    assert out.out == "" and "usage:" in out.err
    assert "Traceback" not in out.err and not report.exists()


# extract verb -> its arguments on a base-5 or a base-2 full tree; a
# later --alpha or --eps replaces the one given here
EXTRACT = {
    "lower": ["--alpha", "2/5", "--M", "5", "--depth", "1", "--in", "f5.bdt"],
    "assouad": ["--alpha", "1/2", "--eps", "1/4", "--in", "f2.bdt"],
}
# (verb, flag, value): exponents whose exact powers would not fit in memory
HUGE_EXPONENTS = [("lower", "eps", "1e400"), ("lower", "eps", "1e-400"),
                  ("assouad", "eps", "1e-400"), ("assouad", "eps", "1e400"),
                  ("assouad", "alpha", "1e-400")]

RUN_PROBES = """
import contextlib, io, json, sys
from badicdim.cli import main
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    print(code, err.getvalue().splitlines()[-1])
"""


def _bound_refusal(verb, flag, value) -> str:
    return (f"badicdim extract {verb}: error: argument --{flag}: "
            f"'{value}' is not a fraction with numerator and denominator "
            f"<= {MAX_DENOMINATOR}")


def _gen_sources(tmp_path, capsys):
    for base, depth in ((5, 4), (2, 8)):
        run(capsys, "gen", "full-cube", "--base", str(base), "--dim", "1",
            "--depth", str(depth), "--out", str(tmp_path / f"f{base}.bdt"))


def test_astronomical_exponents_exit_2_naming_the_bound(tmp_path, capsys):
    # in a subprocess with a timeout and 1 GiB of address space: without
    # the bound these never end
    _gen_sources(tmp_path, capsys)
    probes = subprocess.run(
        [sys.executable, "-c", RUN_PROBES, json.dumps([
            ["extract", verb, *EXTRACT[verb], f"--{flag}={value}"]
            for verb, flag, value in HUGE_EXPONENTS])],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={"PYTHONPATH": str(Path(badicdim.__file__).parents[1])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (1 << 30, 1 << 30)))
    assert probes.returncode == 0, probes.stderr
    assert probes.stdout.splitlines() == [
        f"2 {_bound_refusal(*probe)}" for probe in HUGE_EXPONENTS]


# (flag, type, value): decimals whose 10**exponent alone would take
# Fraction minutes to build
HUGE_DECIMALS = [("R0", "parse_fraction", "1e30000000"),
                 ("R0", "parse_fraction", "1e-30000000"),
                 ("eps", "_exponent", "1e100000000")]


def test_huge_decimal_exponents_exit_2_at_once(tmp_path, capsys):
    # as above: without the exponent bound these do not end in time
    _gen_sources(tmp_path, capsys)
    probes = subprocess.run(
        [sys.executable, "-c", RUN_PROBES, json.dumps([
            ["extract", "lower", *EXTRACT["lower"], f"--{flag}={value}"]
            for flag, _, value in HUGE_DECIMALS])],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={"PYTHONPATH": str(Path(badicdim.__file__).parents[1])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (1 << 30, 1 << 30)))
    assert probes.returncode == 0, probes.stderr
    assert probes.stdout.splitlines() == [
        f"2 badicdim extract lower: error: argument --{flag}: invalid "
        f"{kind} value: '{value}'" for flag, kind, value in HUGE_DECIMALS]


@pytest.mark.parametrize("verb", ["assouad", "assouad-global", "lower"])
@pytest.mark.parametrize("flag", ["alpha", "eps"])
def test_exponent_bound_is_max_denominator(tmp_path, capsys, monkeypatch,
                                           verb, flag):
    _gen_sources(tmp_path, capsys)
    monkeypatch.chdir(tmp_path)
    # the library holds alpha and eps to the same bound, so no accepted
    # value is refused by it later, 5003/9999 (whose half does not fit)
    # included
    for value, refused in ((f"-1/{MAX_DENOMINATOR}", False),
                           (f"{MAX_DENOMINATOR}", False),
                           ("5003/9999", False),
                           (f"1/{MAX_DENOMINATOR + 1}", True),
                           (f"-{MAX_DENOMINATOR + 1}", True)):
        argv = ["extract", verb, *EXTRACT.get(verb, EXTRACT["assouad"]),
                f"--{flag}={value}"]
        if refused:
            with pytest.raises(SystemExit) as e:
                main(argv)
            assert e.value.code == 2
            assert capsys.readouterr().err.endswith(
                _bound_refusal(verb, flag, value) + "\n")
        else:
            code, _, err = run(capsys, *argv)
            assert code in (0, 1) and "is not a fraction" not in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "estimate", "--in", "/no/such/file.bdt")
    assert code == 2
    assert "parse error" in err


def test_malformed_file_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.bdt"
    bad.write_text("bdt b=3 d=1 n=2\n00\n07\n")
    code, _, err = run(capsys, "estimate", "--in", str(bad))
    assert code == 2
    assert "line 3" in err


def test_superscript_digit_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.bdt"
    bad.write_text("bdt b=4 d=1 n=2\n00\n0\u00b2\n", encoding="utf-8")
    code, _, err = run(capsys, "info", "--in", str(bad))
    assert code == 2
    assert "line 3" in err and "Traceback" not in err


def test_workers_flag_same_output(tmp_path, capsys):
    # --workers is hidden and ignored, but still accepted
    path = str(tmp_path / "w.wdt")
    run(capsys, "gen", "lattice-window", "--base", "2", "--dim", "1",
        "--m", "5", "--out", path)
    outs = []
    for extra in ([], ["--workers", "1"], ["--workers", "4"]):
        code, out, _ = run(capsys, "estimate", "--in", path, "--kind",
                           "star-global", *extra)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_one_parser_serves_every_call(tmp_path, capsys):
    assert build_parser() is build_parser()
    # a usage error exits 2 and leaves the shared parser usable
    with pytest.raises(SystemExit) as e:
        main(["estimate", "--kind", "no-such-kind"])
    assert e.value.code == 2
    path = str(tmp_path / "f.bdt")
    assert run(capsys, "gen", "full-cube", "--base", "2", "--dim", "1",
               "--depth", "3", "--out", path)[0] == 0
    code, out, _ = run(capsys, "info", "--in", path)
    assert code == 0 and out.splitlines()[1] == "leaves=8"


def test_verify_subcommands_pass(capsys):
    for prop, samples in [("h-star", "3"), ("packing-sandwich", "10"),
                          ("prune-bound", "5"), ("lemma21", "10")]:
        code, out, _ = run(capsys, "verify", prop, "--samples", samples)
        assert code == 0, (prop, out)
        assert out.strip() == f"PASS {prop}"


def test_extract_random_strategy_reproducible(tmp_path, capsys):
    src = str(tmp_path / "full.bdt")
    run(capsys, "gen", "full-cube", "--base", "2", "--dim", "1",
        "--depth", "16", "--out", src)
    outs = []
    for name in ("a.bdt", "b.bdt"):
        p = str(tmp_path / name)
        code, _, _ = run(capsys, "extract", "assouad", "--alpha", "1/2",
                         "--eps", "1/4", "--M", "16", "--strategy",
                         "random:3", "--in", src, "--out", p)
        assert code == 0
        outs.append(open(p, "rb").read())
    assert outs[0] == outs[1]


def test_a_given_seed_wins_over_the_strategy_seed(tmp_path, capsys):
    src = str(tmp_path / "full.bdt")
    run(capsys, "gen", "full-cube", "--base", "2", "--dim", "1",
        "--depth", "16", "--out", src)

    def extract(*flags):
        p = str(tmp_path / "out.bdt")
        code, _, _ = run(capsys, "extract", "assouad", "--alpha", "1/2",
                         "--eps", "1/4", "--M", "16", *flags, "--in", src,
                         "--out", p)
        assert code == 0
        return open(p, "rb").read()

    seed_0 = extract("--strategy", "random")
    assert extract("--strategy", "random:3", "--seed", "0") == seed_0
    assert extract("--strategy", "random:3") == \
        extract("--strategy", "random", "--seed", "3") != seed_0
