"""Exact integer/rational arithmetic helpers.

Every accept/reject decision compares b^(p/q) with an int or a Fraction
(`power_cmp`) or brackets an irrational value (`refine`); exponents are
held to MAX_DENOMINATOR (`read_exponent`).  Nothing here touches floating
point except `exact_fraction`, which reads a float target as a small
fraction, and the final 6-decimal log-ratio formatting done by callers.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor as math_floor, isfinite, lcm
from typing import NamedTuple

from .core import DomainError

# Exact powers of an exponent p/q take p-th and q-th powers, so their
# size grows with both: `read_exponent` holds p and q to this bound.
MAX_DENOMINATOR = 10**4

# int()'s default digit limit bounds the p/q form; a decimal's exponent is
# held to it too, since Fraction builds 10**exponent before any check.
MAX_EXPONENT = 4300

# Precision cap of `refine`, the one bracketing loop: its callers are
# proven to end, and the cap only turns runaway work into an error.
_MAX_BITS = 65536


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer."""
    if n < 0:
        raise ValueError("iroot of negative number")
    if k < 1:
        raise ValueError("root index must be >= 1")
    if n in (0, 1) or k == 1:
        return n
    hi = 1 << (-(-n.bit_length() // k) + 1)
    lo = 0
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def floor_power(base: int, exp: Fraction) -> int:
    """floor(base ** exp) for integer base >= 1 and rational exp >= 0."""
    if exp < 0:
        raise ValueError("negative exponent")
    p, q = exp.numerator, exp.denominator
    return iroot(base**p, q)


def least_fitting(fits, lo: int) -> int:
    """The least integer >= lo that `fits`, a predicate that holds from
    some integer on: steps of doubling length bracket it, then
    bisection finds it."""
    if fits(lo):
        return lo
    step = 1
    while not fits(lo + step):  # lo never fits
        lo, step = lo + step, 2 * step
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


def power_cmp(base: int, exp: Fraction, value) -> int:
    """The sign (-1, 0 or 1) of base ** exp - value, exactly, for a
    rational exp of either sign and an int or Fraction value (1 when
    value <= 0): both sides are raised to exp's denominator."""
    if value <= 0:
        return 1
    p, q = exp.numerator, exp.denominator
    a, b = value.numerator**q, value.denominator**q
    lhs, rhs = (base**p * b, a) if p >= 0 else (b, a * base**-p)
    return (lhs > rhs) - (lhs < rhs)


def refine(decide, what: str):
    """The first result of decide(bits) other than None, for bits = 32,
    64, ..., _MAX_BITS; past the cap, ArithmeticError naming `what`."""
    for e in range(5, _MAX_BITS.bit_length()):  # 2^5, ..., _MAX_BITS = 2^16
        if (result := decide(1 << e)) is not None:
            return result
    raise ArithmeticError(f"could not resolve {what} "
                          f"within {_MAX_BITS} bits of precision")


def badic_power_sum_le(base: int, term_exps: list[int], bound_exp: int,
                       alpha_eps: Fraction) -> bool:
    """Decide sum_i (b^e_i)^t <= (b^L)^t exactly, t = alpha_eps > 0.

    All quantities are powers of `base` with rational exponent n_i/q.
    Exact equality is decided by comparing integer coefficient vectors
    over the basis {b^(r/q)}; otherwise each b^(n_i/q) is bounded by
    integer q-th roots at increasing precision until the strict
    comparison is certain.
    """
    t = alpha_eps
    if t <= 0:
        raise ValueError("exponent must be positive")
    p, q = t.numerator, t.denominator
    # normalize to a primitive base c (base = c^m with m maximal), so
    # that the c^(r/q) below are linearly independent over the rationals
    base, m = _perfect_power(base)
    fracs = [Fraction(e * p * m, q) for e in term_exps]
    tgt_frac = Fraction(bound_exp * p * m, q)
    q = lcm(*[f.denominator for f in fracs + [tgt_frac]])
    nums = [int(f * q) for f in fracs]
    target = int(tgt_frac * q)
    if q == 1:
        return sum(base**n for n in nums) <= base**target
    shift0 = min(min(nums), target)  # make all exponents nonnegative
    nums = [n - shift0 for n in nums]
    target -= shift0

    def coeffs(exps):
        out = {}
        for n in exps:
            r = n % q
            out[r] = out.get(r, 0) + base ** (n // q)
        return out

    if coeffs(nums) == coeffs([target]):
        return True  # exact equality

    def decide(bits):
        shift = 1 << (q * bits)
        # lo <= b^(n/q) * 2^bits < lo + 1 for each term
        lo_sum = sum(iroot(base**n * shift, q) for n in nums)
        tgt_lo = iroot(base**target * shift, q)
        if lo_sum + len(nums) <= tgt_lo:
            return True
        if lo_sum >= tgt_lo + 1:
            return False
    return refine(decide, "power-sum comparison")


def _perfect_power(n: int) -> tuple:
    """`(r, j)` with n = r^j, j maximal, for an integer n >= 2."""
    for j in range(n.bit_length(), 1, -1):
        r = iroot(n, j)
        if r**j == n:
            return r, j
    return n, 1


class ScaledPower(NamedTuple):
    """The irrational number R0 * M^(num/root) = R0 * lam^k for
    lam = M^(-q/p), num = -qk and root = p; `scaled_power` makes one
    only when the value is irrational.

    `str` is the radius text of the verification TSV, a Python
    expression for the value: `M**(e)`, or `R0*M**(e)` when R0 != 1,
    with e = num/root in lowest terms and M as given (`5**(-5/2)`,
    `1/2*5**(-5/2)`, `12**(-7/3)`)."""

    R0: Fraction
    M: int
    num: int
    root: int

    def __str__(self):
        power = f"{self.M}**({Fraction(self.num, self.root)})"
        return power if self.R0 == 1 else f"{self.R0}*{power}"


def scaled_power(R0: Fraction, M: int, num: int, root: int):
    """R0 * M^(num/root) exactly: a Fraction when it is rational, else
    a `ScaledPower` (root >= 1)."""
    r = iroot(M ** abs(num), root)
    if r**root != M ** abs(num):
        return ScaledPower(Fraction(R0), M, num, root)
    return R0 * (Fraction(r) if num >= 0 else Fraction(1, r))


def floor_lambda(c: Fraction, M: int, alpha: Fraction, k: int,
                 minus: int = None) -> int:
    """floor(c * lam^k), or floor(c * (lam^k - lam^minus)) when `minus`
    is given, for lam = M^(-1/alpha) and rational c >= 0, exactly.

    With alpha = p/q, x = c lam^k satisfies x^p = c^p / M^(qk), so
    floor(x) = iroot(floor(x^p), p).  A difference of two powers is
    exact when both are rational; otherwise it is irrational (the powers
    of lam below the first rational one are linearly independent over
    the rationals), so bracketing it between integer-root bounds on lam
    of doubling precision ends once both ends have the same floor.
    """
    c = Fraction(c)
    p, q = alpha.numerator, alpha.denominator
    if minus is None:
        return iroot(c.numerator**p
                     // (c.denominator**p * M ** (q * k)), p)
    a, b = (scaled_power(1, M, -q * j, p) for j in (k, minus))
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return math_floor(c * (a - b))

    def decide(bits):
        # r <= M^(q/p) 2^bits < r + 1, so lo < lam < hi
        r = iroot(M**q << (bits * p), p)
        lo, hi = Fraction(1 << bits, r + 1), Fraction(1 << bits, r)
        low = math_floor(c * (lo**k - hi**minus))
        if low == math_floor(c * (hi**k - lo**minus)):
            return low
    return refine(decide, "floor(c (lam^k - lam^j))")


def exact_fraction(x, name: str) -> Fraction:
    """A target exponent as a Fraction: a non-float unchanged, a float
    as the one fraction of denominator <= MAX_DENOMINATOR that rounds to
    it (0.3 is 3/10, 1/3 is 1/3).  Any other float raises DomainError."""
    if not isinstance(x, float):
        return Fraction(x)
    if isfinite(x):
        exact = Fraction(x).limit_denominator(MAX_DENOMINATOR)
        if float(exact) == x:
            return exact
    raise DomainError(f"{name} {x} is not a fraction of denominator "
                      f"<= {MAX_DENOMINATOR}")


def read_exponent(x, name: str) -> Fraction:
    """`exact_fraction(x, name)` for an exponent (alpha, eps or s), whose
    numerator and denominator must be at most MAX_DENOMINATOR: else
    DomainError naming the part above the bound."""
    x = exact_fraction(x, name)
    if max(abs(x.numerator), x.denominator) <= MAX_DENOMINATOR:
        return x
    part = "denominator" if x.denominator > MAX_DENOMINATOR else "numerator"
    raise DomainError(
        f"{name} {x} is not a fraction of {part} <= {MAX_DENOMINATOR}")


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q' or a decimal string into an exact Fraction; malformed
    text, a zero denominator and a decimal exponent beyond MAX_EXPONENT
    included, raises ValueError."""
    text = text.strip()
    if "/" in text:
        num, den = map(int, text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in '{text}'")
        return Fraction(num, den)
    _, e, exponent = text.lower().rpartition("e")
    if e and abs(int(exponent)) > MAX_EXPONENT:
        raise ValueError(f"exponent of '{text}' beyond {MAX_EXPONENT}")
    return Fraction(text)
