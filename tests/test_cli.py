import math

import pytest

from badicdim.cli import main
from badicdim.core import read_bdt


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
