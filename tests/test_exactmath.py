import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from badicdim.exactmath import (MAX_EXPONENT, badic_power_sum_le,
                                floor_lambda, floor_power, iroot,
                                least_fitting, parse_fraction, power_cmp,
                                refine)


@given(st.integers(min_value=0, max_value=10**24),
       st.integers(min_value=1, max_value=12))
def test_iroot_is_floor_root(n, k):
    r = iroot(n, k)
    assert r**k <= n
    assert (r + 1) ** k > n


@given(st.integers(min_value=1, max_value=10**60),
       st.integers(min_value=2, max_value=40))
def test_least_fitting_is_an_integer_logarithm(n, base):
    e = least_fitting(lambda e: base ** (e + 1) > n, 0)
    assert base**e <= n < base ** (e + 1)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_least_fitting_finds_the_threshold(threshold, lo):
    calls = []

    def fits(x):
        calls.append(x)
        return x >= threshold

    assert least_fitting(fits, lo) == max(threshold, lo)
    assert len(calls) <= 2 * max(threshold - lo, 1).bit_length() + 1


def test_iroot_edges():
    assert iroot(0, 3) == 0
    assert iroot(1, 7) == 1
    assert iroot(8, 3) == 2
    assert iroot(7, 3) == 1
    with pytest.raises(ValueError):
        iroot(-1, 2)
    with pytest.raises(ValueError):
        iroot(4, 0)


def test_floor_power_exact_values():
    assert floor_power(16, Fraction(1, 4)) == 2
    assert floor_power(16, Fraction(1, 2)) == 4
    assert floor_power(16, Fraction(3, 4)) == 8
    assert floor_power(27, Fraction(2, 5)) == 3  # 27^0.4 = 3.737...
    assert floor_power(3, Fraction(0)) == 1


def _sign(x) -> int:
    return (x > 0) - (x < 0)


@given(st.integers(min_value=1, max_value=30),
       st.builds(Fraction, st.integers(min_value=-18, max_value=18),
                 st.integers(min_value=1, max_value=6)),
       st.one_of(st.integers(min_value=-10**6, max_value=10**6),
                 st.fractions(min_value=-10**3, max_value=10**3,
                              max_denominator=10**3)))
def test_power_comparisons_match_floats(base, exp, value):
    got = power_cmp(base, exp, value)
    # base^(p/q) and a positive value compare as their q-th powers,
    # here taken directly in Fractions
    p, q = exp.numerator, exp.denominator
    assert got == (1 if value <= 0 else
                   _sign(Fraction(base) ** p - Fraction(value) ** q))
    true_val = base ** float(exp)
    # only check away from float round-off ambiguity
    if abs(true_val - value) > 1e-6 * max(true_val, abs(value)):
        assert got == _sign(true_val - value)


def test_power_comparisons_exact_ties():
    assert power_cmp(4, Fraction(1, 2), 2) == 0
    assert power_cmp(4, Fraction(-1, 2), Fraction(1, 2)) == 0
    assert power_cmp(8, Fraction(2, 3), Fraction(8, 2)) == 0
    assert power_cmp(3, Fraction(0), 1) == 0
    assert power_cmp(2, Fraction(-1, 1), 0) == 1
    assert power_cmp(2, Fraction(-1, 1), Fraction(-1, 3)) == 1
    assert power_cmp(8, Fraction(2, 3), 3) == 1
    assert power_cmp(8, Fraction(-2, 3), Fraction(1, 3)) == -1


def _meets(count: int, M: int, n: int, N: int, eps: Fraction) -> bool:
    """count >= N^n M^(-n eps), as the prune and the construction read
    it: M^(-n eps) <= count / N^n."""
    return power_cmp(M, -n * eps, Fraction(count, N**n)) <= 0


@given(st.integers(min_value=0, max_value=300),
       st.integers(min_value=2, max_value=5),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=5),
       st.builds(Fraction, st.integers(min_value=0, max_value=12),
                 st.integers(min_value=1, max_value=6)))
def test_count_meets_power_bound(count, M, n, N, eps):
    # count >= N^n M^(-n eps)  <=>  count^q M^(n p) >= N^(n q), eps = p/q
    assert _meets(4, 4, 2, 2, Fraction(0))
    assert not _meets(3, 4, 2, 2, Fraction(0))
    assert _meets(1, 4, 2, 2, Fraction(1, 2))
    assert not _meets(0, 4, 2, 2, Fraction(1, 2))
    p, q = eps.numerator, eps.denominator
    assert _meets(count, M, n, N, eps) == (
        count**q * M ** (n * p) >= N ** (n * q))


def test_power_sum_ties_and_strict():
    t = Fraction(3, 4)
    assert badic_power_sum_le(4, [1], 1, t)          # equality
    assert not badic_power_sum_le(4, [1, 1], 1, t)   # 2x > x
    assert badic_power_sum_le(2, [0, 0], 2, Fraction(1, 2))   # 2 == 2
    assert not badic_power_sum_le(2, [0, 0, 0], 2, Fraction(1, 2))
    # perfect-power base with cross-residue tie: 2*4^0 == 4^(1/2)+... no:
    # 4^(1/2) = 2 exactly, so [0,0] vs bound exp 1 at t=1/2 is a tie
    assert badic_power_sum_le(4, [0, 0], 1, Fraction(1, 2))


@given(st.integers(min_value=2, max_value=6),
       st.lists(st.integers(min_value=-6, max_value=6), min_size=1,
                max_size=5),
       st.integers(min_value=-6, max_value=8),
       st.builds(Fraction, st.integers(min_value=1, max_value=8),
                 st.integers(min_value=1, max_value=4)))
def test_power_sum_matches_float_when_unambiguous(base, exps, bound, t):
    lhs = sum(base ** (e * float(t)) for e in exps)
    rhs = base ** (bound * float(t))
    if abs(lhs - rhs) > 1e-6 * max(lhs, rhs):
        assert badic_power_sum_le(base, exps, bound, t) == (lhs < rhs)


def test_refine_gives_up_at_the_precision_cap():
    bits = []
    with pytest.raises(ArithmeticError, match="^could not resolve a stub "
                                              "within 65536 bits of "
                                              "precision$"):
        refine(bits.append, "a stub")  # append never decides
    assert bits == [32 << i for i in range(12)]  # 32, ..., 65536
    # the first result other than None ends it, False and 0 included
    assert refine(lambda bits: False if bits >= 128 else None, "x") is False
    assert refine(lambda bits: 0, "x") == 0


def _floor_difference(c: Fraction, M: int, p: int, a: int, b: int) -> int:
    """floor(c (u^a - u^b)) for u = M^(-1/p) and a < b, exactly.  When
    both powers are rational they are computed; otherwise the value is
    irrational and brackets lo < u <= hi from integer roots of doubling
    precision end once both ends of c (lo^a - hi^b) <= x <= c (hi^a -
    lo^b) have the same floor."""
    exact = [iroot(M**e, p) for e in (a, b)]
    if all(r**p == M**e for r, e in zip(exact, (a, b))):
        return math.floor(c * (Fraction(1, exact[0]) - Fraction(1, exact[1])))
    bits = 8
    while True:
        r = iroot(M << (bits * p), p)  # r <= M^(1/p) 2^bits < r + 1
        lo, hi = Fraction(1 << bits, r + 1), Fraction(1 << bits, r)
        low = math.floor(c * (lo**a - hi**b))
        if low == math.floor(c * (hi**a - lo**b)):
            return low
        bits *= 2


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=7),
       st.builds(Fraction, st.integers(min_value=1, max_value=5),
                 st.integers(min_value=1, max_value=5)),
       st.builds(Fraction, st.integers(min_value=1, max_value=9),
                 st.integers(min_value=1, max_value=9)),
       st.one_of(st.integers(min_value=1, max_value=6**6),
                 st.integers(min_value=1, max_value=10**40)),
       st.integers(min_value=0, max_value=4),
       st.one_of(st.none(), st.integers(min_value=1, max_value=3)))
def test_floor_lambda_matches_integer_brackets(M, alpha, R0, D, k, step):
    if alpha > 1:
        alpha = 1 / alpha
    p, q = alpha.numerator, alpha.denominator
    c = R0 * D
    minus = None if step is None else k + step
    f = floor_lambda(c, M, alpha, k, minus)
    if step is None:
        # f <= c lam^k < f + 1 with (c lam^k)^p = c^p / M^(qk), in integers
        a, b, m = c.numerator, c.denominator, M ** (q * k)
        assert f**p * b**p * m <= a**p < (f + 1) ** p * b**p * m
    else:
        assert f == _floor_difference(c, M, p, q * k, q * minus)


def test_floor_lambda_examples():
    # lambda = 1/16 (M = 4, alpha = 1/2): floor(100/16) = 6
    assert floor_lambda(Fraction(100), 4, Fraction(1, 2), 1) == 6
    assert floor_lambda(Fraction(256), 4, Fraction(1, 2), 1, 2) == 15
    # lambda = 5^(-5/2) = 0.01788...: floor(1000 lambda) = 17,
    # floor(1000 (lambda - lambda^2)) = 17
    assert floor_lambda(Fraction(1000), 5, Fraction(2, 5), 1) == 17
    assert floor_lambda(Fraction(1000), 5, Fraction(2, 5), 1, 2) == 17
    # lambda = 2^(-9/2): lambda^0 - lambda^2 = 1 - 2^-9 is rational
    assert floor_lambda(Fraction(2**9), 2, Fraction(2, 9), 0, 2) == 511
    # at c = 10^40 the 32-bit bounds on lambda are far too coarse, so
    # the bracket must be refined before the floor is certain
    expected = 175685438199983175712733893498502098835
    assert floor_lambda(Fraction(10**40), 5, Fraction(2, 5), 1, 2) == expected
    assert _floor_difference(Fraction(10**40), 5, 2, 5, 10) == expected


def test_parse_fraction():
    assert parse_fraction("1/2") == Fraction(1, 2)
    assert parse_fraction("0.25") == Fraction(1, 4)
    assert parse_fraction(" 3/4 ") == Fraction(3, 4)
    for bad in ("1/0", "abc", "1/x", ""):
        with pytest.raises(ValueError):
            parse_fraction(bad)


def test_parse_fraction_bounds_a_decimal_exponent():
    # the bound is the digit limit int() holds the p/q form to
    assert MAX_EXPONENT == 4300
    big = 10**MAX_EXPONENT
    for text, value in (("1e4300", big), ("1E-4300", Fraction(1, big)),
                        ("-2.5e+4300", Fraction(-5, 2) * big),
                        ("3e4_300", 3 * big)):
        assert parse_fraction(text) == value
    for text in ("1e4301", "1E-4301", "-2.5e+4301", "3e4_301"):
        with pytest.raises(ValueError, match=(
                f"^exponent of '{re.escape(text)}' beyond 4300$")):
            parse_fraction(text)
