"""A golden matrix of seeded CLI runs for byte identity.

Each case writes its input files, runs its command lines in a fresh
directory and pins one SHA-256 of every run's command line, exit code,
stdout and stderr, then of every file left in the directory.  A change
to a report, a witness, an exit code, an error text or a set file fails
a case; a change that means to alter an output updates that case's
digest and says why.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from badicdim.cli import main

CANTOR = "gen digit-cantor --base 3 --dim 1 --digits 0,2 --depth 6 --out c.bdt"
RANDOM = ("gen random-branching --base 3 --dim 2 --depth 4 --max-children 5 "
          "--seed 7 --out r.bdt")
UNION = ("gen prop5-union --base 4 --m 3 --local-depth 4 --local-digits 0,2 "
         "--global-digits 0,1,2 --out u.wdt")
FULL2 = "gen full-cube --base 2 --dim 1 --depth 12 --out f.bdt"
IC16 = ("gen integer-cantor --base 16 --dim 1 --m 2 --digits 0,3,10,15 "
        "--chain 2 --out i.wdt")

# name -> (input files, command lines, digest)
CASES = {
    # gen: every family and flag, to stdout and to files
    "gen-digit-cantor-stdout": ({}, [
        "gen digit-cantor --base 3 --digits 0,2 --depth 3"],
        "8c26e042d4dd21ef32dafa6598bfd637870b31c88174c9a7380d40ad7637a691"),
    "gen-digit-cantor-2d": ({}, [
        "gen digit-cantor --base 3 --dim 2 --digits 0,2 --depth 2 "
        "--out c.bdt"],
        "a9dbb13f294ee48204a475f0d7d3a16bbd004400bbb8195c962280f42012458a"),
    "gen-base-16": ({}, [
        "gen full-cube --base 16 --dim 1 --depth 2 --out f.bdt",
        "gen random-branching --base 16 --depth 3 --max-children 16 --seed 5 "
        "--out r.bdt", "estimate --in r.bdt",
        "estimate --in r.bdt --kind lower-cover"],
        "cd2a2975cde5f6e03ae4328d73e256382551bbf7a2d59f4bcaf2ba707e88a7a6"),
    "gen-lattice-window-2d": ({}, [
        "gen lattice-window --base 2 --dim 2 --m 2 --chain 1 --out w.wdt"],
        "e3af06fe12234f881d60f06f3c9aa102c3057ffcd7d08d1037723fea541be9e1"),
    "gen-lattice-window-negative-chain": ({}, [
        "gen lattice-window --base 2 --m 2 --chain -1 --out w.wdt"],
        "7a94a452e4a27fa5bdc3a9ca3d9bd614e31a73017bb2409d73b48af66e420a6c"),
    "gen-integer-cantor-b16": ({}, [IC16],
        "cf64a3337a05112a16e1833417ba925fa807fe381c14d4eda865b6ddfccc7476"),
    "gen-one-over-k": ({}, [
        "gen one-over-k --count 16 --depth 8 --out k.bdt"],
        "10b11df1ac62a3493ca6a462d1280fcb0f751caedbb6766c0b63c2b1cafa58df"),
    "gen-prop5-union": ({}, [UNION, UNION.replace(
        "--out u.wdt", "--chain 2 --out v.wdt")],
        "81085f129f889747b0876a7deb72ec591e125ac171ff9bb363f9d0d01e046e15"),
    "gen-random-branching": ({}, [RANDOM, RANDOM.replace(
        "--seed 7 --out r.bdt", "--out s.bdt")],
        "7fe06c347647516f12506b5d4c66f024c8bbd76716decdbf9a340c8cf56d6009"),
    "gen-missing-parameter": ({}, [
        "gen digit-cantor --base 3 --depth 2"],
        "1bc05f9cf13c5d6e463e6c5dd8512a92478c14a7299e835c75c341cfac4169c1"),
    "gen-empty-digits": ({}, [
        "gen digit-cantor --base 3 --depth 2 --digits ,"],
        "0798bf62c5883d3155ac36de68e7d9483892781d7b9c37d4756161cba9ddc9f7"),
    # estimate: every kind, --kmax, --report, the hidden --workers
    "estimate-star-local-stdout": ({}, [CANTOR, "estimate --in c.bdt"],
        "42661013d49dba8643997c516b971ea2f9725b92b343f3899928361b7fe6aaca"),
    "estimate-tree-reports": ({}, [
        RANDOM, "estimate --in r.bdt --kind star-local --kmax 3 "
        "--report star.tsv", "estimate --in r.bdt --kind star-global",
        "estimate --in r.bdt --kind lower-cover --report low.tsv",
        "estimate --in r.bdt --kind lower-cover --kmax 2"],
        "81c2f56b8335cdf88efb24b93eba2cfa5fd06795bae2aebd665881c6a2e361ee"),
    "estimate-windowed": ({}, [
        UNION, "estimate --in u.wdt --kind star-global --kmax 3 --workers 1 "
        "--report g.tsv", "estimate --in u.wdt --kind star-local --kmax 4",
        "estimate --in u.wdt"],
        "89e64353a892a27d118aafa6c7f3be878f7b28d8ddb6efbd9f8eae210b5f3e42"),
    "estimate-windowed-b16": ({}, [
        IC16, "estimate --in i.wdt --kind star-global --kmax 2"],
        "2fcf85e35e6c7a36d1e3e076153466ec150e03b34911e7aba2ac1b0808187804"),
    "estimate-lower-cover-of-wdt": ({}, [
        UNION, "estimate --in u.wdt --kind lower-cover"],
        "edbceac19a6c0767aec9f2ad03510d0e8e94bcf8beb70af473e1768f2d75c854"),
    "estimate-kmax-above-depth": ({}, [
        CANTOR, "estimate --in c.bdt --kmax 7"],
        "fe04eba76d9b23098acbf4351bdc54cfb20cadf1ef3651d6492f975d78774c91"),
    # extract assouad: --M through rebase and debase, every strategy
    "extract-assouad-rebase-debase": ({}, [
        FULL2, "extract assouad --alpha 1/2 --eps 1/4 --M 16 --stages 2 "
        "--in f.bdt --out s.bdt --trace t.tsv"],
        "0108e94bfe054a4edfa7024307e22e87622621ed77b0ea3bd14e25eaad368999"),
    # M = 2^3 does not divide the depth 10: the written set is padded
    # down to the source's depth, a subset of it
    "extract-assouad-M-pads-to-depth": ({}, [
        "gen random-branching --base 2 --depth 10 --max-children 2 --seed 3 "
        "--out r.bdt", "extract assouad --alpha 1/3 --eps 1/3 --M 8 "
        "--stages 1 --in r.bdt --out s.bdt"],
        "e72dce1d256bac0bfa6dd41468541a6de17198991c75b6706faed5c308af63c1"),
    "extract-assouad-random": ({}, [
        FULL2, "extract assouad --alpha 1/2 --eps 1/4 --M 16 --stages 2 "
        "--strategy random:3 --in f.bdt --out a.bdt",
        "extract assouad --alpha 1/2 --eps 1/4 --M 16 --stages 2 "
        "--strategy random --seed 5 --in f.bdt --out b.bdt"],
        "03ed195da29abafd082bf675b1d0840de94f579c0a578c82f91ce7c08d4bd87b"),
    "extract-assouad-greedy-stdout": ({}, [
        "gen full-cube --base 16 --dim 1 --depth 3 --out f.bdt",
        "extract assouad --alpha 1/2 --eps 1/4 --stages 2 --in f.bdt",
        "extract assouad --alpha 1/2 --eps 1/8 --in f.bdt"],
        "908475dcd1b49af55be7169202ff9eccab81a1e7a1d1c768c910dd78f27d0c95"),
    "extract-assouad-alpha-too-large": ({}, [
        CANTOR, "extract assouad --alpha 9/10 --eps 1/4 --M 27 --in c.bdt"],
        "329c436c7586a84b2e44aa138441408845a049e344c78e3c454c4b0613548d3d"),
    "extract-assouad-bad-M": ({}, [
        CANTOR, "extract assouad --alpha 1/2 --eps 1/4 --M 10 --in c.bdt"],
        "406269a0529a930f29ad05d73a550295b19aeee5d96a09db09082240b7abd199"),
    "extract-assouad-of-wdt": ({}, [
        IC16, "extract assouad --alpha 1/2 --eps 1/4 --in i.wdt"],
        "ea4154a945550791f72d2ad88c95a4891c363f133d06f4c7b2827c80b564d882"),
    # extract assouad-global
    "extract-assouad-global-b16": ({}, [
        IC16, "extract assouad-global --alpha 1/2 --eps 1/4 --in i.wdt "
        "--out o.wdt", "info --in o.wdt"],
        "28d9fb389ba61d535f09b4a396eeeb8defb1d73fb6b37e3958013f5b88f01b88"),
    "extract-assouad-global-two-windows": ({}, [
        UNION, "extract assouad-global --alpha 1/2 --eps 1/2 --in u.wdt "
        "--out o.wdt", "extract assouad-global --alpha 1/2 --eps 1/4 "
        "--in u.wdt --out p.wdt"],
        "949dc897988e8256bd7123fbc4700adc34901aa60de2ce5cb5a5965441cb880b"),
    "extract-assouad-global-of-bdt": ({}, [
        CANTOR, "extract assouad-global --alpha 1/2 --eps 1/4 --in c.bdt "
        "--out o.wdt"],
        "53f8499a2ebe8d0f4ae4039f415c7b1f28268cdd74fbe1d50bd38452d2dde120"),
    # extract lower: rational and irrational lambda, d = 2, base 16
    "extract-lower-rational": ({}, [
        "gen full-cube --base 4 --dim 1 --depth 6 --out f.bdt",
        "extract lower --alpha 1/2 --M 4 --depth 2 --in f.bdt --out o.bdt "
        "--report l.tsv"],
        "918b15728564ca5c05b456fc01e4bc4250e4821bcf8e9adf23b7ab399579a6f0"),
    "extract-lower-irrational": ({}, [
        "gen full-cube --base 5 --dim 1 --depth 4 --out f.bdt",
        "extract lower --alpha 2/5 --M 5 --depth 1 --eps 1/10 --R0 1/2 "
        "--in f.bdt --out o.bdt"],
        "17aaf60e45927e9d9f2534e876f1d438691e55aba88d0f79fecda534abab332a"),
    "extract-lower-2d": ({}, [
        "gen full-cube --base 3 --dim 2 --depth 4 --out f.bdt",
        "extract lower --alpha 1/2 --M 3 --depth 1 --in f.bdt --report l.tsv"],
        "8aa957293ead19f3104add5dd93e2f4195f22c76f44671ae877b4926106a6375"),
    "extract-lower-b16": ({}, [
        "gen full-cube --base 16 --dim 1 --depth 3 --out f.bdt",
        "extract lower --alpha 1/2 --M 4 --depth 2 --in f.bdt --out o.bdt"],
        "1d5f8518297cf1a365a61b9ef85be2b55bc6b94a3fc6c7577a980be716296af0"),
    # extract lower --out: the centers' set file, from d = 1 and d = 2
    # sources, with rational and irrational lambda and depth 0
    "extract-lower-out-b4": ({}, [
        "gen full-cube --base 4 --dim 1 --depth 8 --out f.bdt",
        "extract lower --alpha 1/2 --M 4 --depth 2 --in f.bdt --out o.bdt"],
        "48162af6527f94da3ed6dd7f176ef0e73c2c09d1cd9e998d98915ab9a999e4c6"),
    "extract-lower-out-b5": ({}, [
        "gen full-cube --base 5 --dim 1 --depth 6 --out f.bdt",
        "extract lower --alpha 1/3 --M 5 --depth 2 --in f.bdt --out o.bdt"],
        "cd17e3a6cad41a5dbcb7875f23f1ab484cc6020c4a5f203a9e9e5a3743ad5122"),
    "extract-lower-out-cantor": ({}, [
        "gen digit-cantor --base 3 --dim 1 --digits 0,2 --depth 12 "
        "--out c.bdt",
        "extract lower --alpha 1/5 --M 2 --depth 2 --in c.bdt --out o.bdt"],
        "f8c9ea0058fa701d0eca24933216d4c9859c063dd33ac5cfe29e5dd2e5e719d3"),
    "extract-lower-out-2d-b3": ({}, [
        "gen full-cube --base 3 --dim 2 --depth 4 --out f.bdt",
        "extract lower --alpha 1/2 --M 3 --depth 1 --in f.bdt --out o.bdt"],
        "7366cf4d56e8c0954aa7cdec5dd9e18d7269d76f2ebdf5a75ea2aefb7e028922"),
    "extract-lower-out-2d-b2": ({}, [
        "gen full-cube --base 2 --dim 2 --depth 4 --out f.bdt",
        "extract lower --alpha 1/4 --M 2 --depth 1 --in f.bdt --out o.bdt"],
        "09170926e71bba0ad705b5933ba3a906ab12aecd78a3f8f7bb6ed8360e4edba8"),
    "extract-lower-out-irrational": ({}, [
        "gen full-cube --base 5 --dim 1 --depth 4 --out f.bdt",
        "extract lower --alpha 2/5 --M 5 --depth 1 --in f.bdt --out o.bdt"],
        "3ab06ac7a00006560a019b3c2a4aed7b57abc693255dd992830946737cf4f432"),
    "extract-lower-out-depth0": ({}, [
        "gen full-cube --base 2 --dim 1 --depth 6 --out f.bdt",
        "extract lower --alpha 1/2 --M 2 --depth 0 --in f.bdt --out o.bdt"],
        "9cdfc41f67cf0b9be5d5060db1cfb498f2abfddecdb89d5372ef11fa42a65408"),
    "extract-lower-out-depth0-cantor": ({}, [
        "gen digit-cantor --base 3 --dim 1 --digits 1,2 --depth 5 "
        "--out c.bdt",
        "extract lower --alpha 1/5 --M 2 --depth 0 --in c.bdt --out o.bdt"],
        "ab37347c637cf927e0b6ddea45920aec5c548790d492e09a7361bf3293800a68"),
    "extract-lower-out-b16": ({}, [
        "gen full-cube --base 16 --dim 1 --depth 3 --out f.bdt",
        "extract lower --alpha 1/2 --M 4 --depth 2 --in f.bdt --out o.bdt",
        "info --in o.bdt"],
        "c7a4a2b4a66082f2f8e5c82b2babf1abf0474510c9a0dc6e4f6439c3cc7dc0cb"),
    "extract-lower-thin-source": ({}, [
        CANTOR, "extract lower --alpha 9/10 --M 2 --depth 2 --in c.bdt"],
        "b3b53ffe841802aaea30a8a48066040bbc4e856c3bb62d3870779ce073164950"),
    # verify, info
    "verify-every-property": ({}, [
        "verify h-star --samples 2 --seed 3",
        "verify packing-sandwich --samples 6",
        "verify prune-bound --samples 2 --seed 1",
        "verify lemma21 --samples 5"],
        "9c3a455a18478e9a75a1ebfc2e24c7252bef5553218b97fad6ca768cd8ec1891"),
    "verify-negative-samples": ({}, [
        "verify packing-sandwich --samples -1", "verify lemma21 --samples 0"],
        "fe09382076f9642283f536077267b2bf27cc1b3f46b3ec660247b08914d090b8"),
    "info-every-format": ({}, [
        RANDOM, UNION, "info --in r.bdt", "info --in u.wdt"],
        "a4e2d70a1e48a5b48617eec1ef7a8dcd93ad2df1f604906dcf1c8d66367da770"),
    # failures that exit 2
    "usage-errors": ({}, [
        "estimate --kind no-such-kind --in c.bdt",
        "extract lower --alpha 1/2 --M 2 --depth 1 --R0 zz --in c.bdt",
        "extract assouad --alpha 1/2 --eps 1/4 --strategy x --in c.bdt"],
        "1bc86e037f0e15825c233a85f593d62f373305ce478da55622034f396f0e1d70"),
    "parse-errors": ({
        "dup.bdt": "bdt b=3 d=1 n=2\n00\n00\n",
        "digit.bdt": "bdt b=3 d=1 n=2\n00\n07\n",
        "header.wdt": "wdt b=3 d=1 windows=2\nwindow off=0 m=1\n0\n",
        "other.txt": "hello\n"}, [
        "info --in dup.bdt", "estimate --in digit.bdt",
        "info --in header.wdt", "info --in other.txt",
        "info --in missing.bdt"],
        "177661b5de8280779b205c58372bdb4c43c66c56e30f7c02fcebfff84eeb9615"),
    # failures that exit 1: a .wdt without windows parses, then is
    # refused; digits outside 0..b-1 and a negative eps are refused
    "empty-wdt": ({"e.wdt": "wdt b=2 d=1 windows=0\n"}, [
        "info --in e.wdt", "estimate --in e.wdt --kind star-global",
        "estimate --in e.wdt --kind star-local"],
        "f9261647d4461cecffb32d866d0331518cc1a718a498924d8fb343d61eadfbda"),
    "out-of-range-digits-and-negative-eps": ({}, [
        "gen digit-cantor --base 3 --digits 0,5 --depth 2",
        "gen digit-cantor --base 3 --digits 7 --depth 2",
        "gen prop5-union --base 4 --m 2 --local-depth 2 --local-digits 0,2 "
        "--global-digits 0,9",
        CANTOR, "extract lower --alpha 9/10 --M 2 --depth 1 --eps -1 "
        "--in c.bdt"],
        "3cb5bbf9205ed07147addd9f345e2e8e067cdd862836bfd8455db6d884884167"),
    # a negative slack is refused by both Assouad extractions by name,
    # not as an inequality that no M could satisfy
    "extract-assouad-negative-eps": ({}, [
        "gen full-cube --base 2 --depth 6 --out f.bdt",
        "extract assouad --alpha 1/2 --eps -1 --in f.bdt", UNION,
        "extract assouad-global --alpha 1/2 --eps -1 --in u.wdt"],
        "1b31f40adec513eb6616bc9a49869de54f78d0527386a1c6964b86b1ab0d57fc"),
    # an empty global digit set is refused, as an empty local one is,
    # before any file is written
    "gen-prop5-union-empty-global-digits": ({}, [
        "gen prop5-union --base 4 --m 2 --local-depth 2 --local-digits 0,2 "
        "--global-digits , --out e.wdt"],
        "a07b69e574fcb2ea032f4f56fa090c39d4feb259665bcc3d3ea565d648452629"),
}


def digest(files: dict, runs: list) -> str:
    """Run `runs` in the working directory after writing `files` there:
    the SHA-256 of each run's command line, exit code, stdout and
    stderr, then of every file in the directory, by name."""
    for name, text in files.items():
        Path(name).write_text(text)
    h = hashlib.sha256()
    for line in runs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(line.split())
            except SystemExit as exc:
                code = exc.code
        h.update(repr((line, code, out.getvalue(), err.getvalue())).encode())
    for path in sorted(Path().iterdir()):
        h.update(repr((path.name, path.read_bytes())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", CASES)
def test_golden_case(name, tmp_path, monkeypatch):
    files, runs, want = CASES[name]
    monkeypatch.chdir(tmp_path)
    assert digest(files, runs) == want
