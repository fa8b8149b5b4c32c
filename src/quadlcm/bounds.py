"""Exact lcm of the sequence m^2+c ... n^2+c, its rational divisor, and lower bounds.

Divisibility claims are settled in exact integer and rational arithmetic
only.  Bounds involving e and pi are evaluated in log space with 128-bit
mpmath intermediates and accepted up to a relative tolerance of 1e-9.
That tolerance can decide a claim: `oon_2n` holds with slack exactly 0 at
(c, m, n) = (1, 1, 1), where L = 2, and `binom` has only 0.51 nats of slack
at (1, 2, 3).  ROADMAP item 4 replaces it with certified enclosures.

The seven bounds are data: rows of `_BOUNDS`, each a name, an exact integer
applicability gate and a log value.  `triple_report` computes L once per
triple and builds every claim from it; `verify_divisor`, `bound_report` and
`combinatorial_checks` each build one part of that record from their own L.

Quantities that depend on c alone or on n alone (the log prefactors, the c5
frontier terms) are memoised once per process; no mpmath work runs at import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Optional

import mpmath
from mpmath import mpf

from .ring import QuadInt, content, divide_exact, shifted_product

PRECISION_BITS = 128  # comfortably above the 80-bit floor the reports promise

LOG_TOLERANCE = mpmath.mpf("1e-9")  # relative, on natural logs


class InvariantViolation(RuntimeError):
    """An exactly-checked claim failed; carries the offending report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


def _require_range(c: int, m: int, n: int) -> None:
    if c < 1:
        raise ValueError(f"need c >= 1, got {c}")
    if m < 1 or m > n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")


def lcm_range(c: int, m: int, n: int) -> int:
    """lcm of m^2+c, (m+1)^2+c, ..., n^2+c, exact."""
    _require_range(c, m, n)
    return lcm(*(k * k + c for k in range(m, n + 1)))


def _divisor_parts(c: int, m: int, n: int) -> tuple[int, int]:
    """Unreduced numerator prod(k^2+c) and denominator (n-m)! * content_multiple(c, n-m)."""
    num = 1
    for k in range(m, n + 1):
        num *= k * k + c
    return num, factorial(n - m) * content_multiple(c, n - m)


def rational_divisor(c: int, m: int, n: int) -> Fraction:
    """The exact rational prod(k^2+c) / (c * (n-m)! * prod(k^2+4c))."""
    _require_range(c, m, n)
    return Fraction(*_divisor_parts(c, m, n))


def product_content(c: int, m: int, n: int) -> int:
    """gcd of the two components of (m + sqrt(-c)) ... (n + sqrt(-c))."""
    return content(shifted_product(c, m, n))


def content_multiple(c: int, k: int) -> int:
    """c * prod_{l=1..k} (l^2 + 4c); a universal multiple of product_content."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    out = c
    for ell in range(1, k + 1):
        out *= ell * ell + 4 * c
    return out


@dataclass(frozen=True)
class DivisorReport:
    """Exact verification record of the divisor claims at one (c, m, n)."""

    c: int
    m: int
    n: int
    L: int
    numerator: int
    denominator: int
    D: Fraction
    quotient_check: int
    hc_value: int
    hc_bound: int
    star_x: int
    star_y: int
    # (m + sqrt(-c)) ... (n + sqrt(-c)), kept for the star check; not serialized
    product: QuadInt = field(repr=False, compare=False)

    def failures(self) -> list[str]:
        """All violated invariants, empty when the record is consistent."""
        out = []
        if self.quotient_check * self.D != self.L:
            out.append("quotient_check * D != L")
        if self.hc_bound % self.hc_value != 0:
            out.append("hc_value does not divide hc_bound")
        fact = factorial(self.n - self.m)
        star = QuadInt(self.star_x, self.star_y, self.c)
        if star * self.product != QuadInt(self.L * fact, 0, self.c):
            out.append("(star_x + star_y*sqrt(-c)) * product != L * (n-m)!")
        return out


def _divisor_report(c: int, m: int, n: int, big_l: int) -> DivisorReport:
    """The divisor record of one triple whose lcm is big_l; raises on any failed claim."""
    num, den = _divisor_parts(c, m, n)
    divisor = Fraction(num, den)
    quotient = Fraction(big_l) / divisor
    if quotient.denominator != 1:
        raise InvariantViolation(f"L/D is not an integer at (c={c}, m={m}, n={n})")
    product = shifted_product(c, m, n)
    hc_value = content(product)
    fact = factorial(n - m)
    hc_bound = den // fact  # content_multiple(c, n - m)
    star = divide_exact(QuadInt(big_l * fact, 0, c), product)
    report = DivisorReport(
        c=c,
        m=m,
        n=n,
        L=big_l,
        numerator=num,
        denominator=den,
        D=divisor,
        quotient_check=int(quotient),
        hc_value=hc_value,
        hc_bound=hc_bound,
        star_x=star.a,
        star_y=star.b,
        product=product,
    )
    bad = report.failures()
    if bad:
        raise InvariantViolation(f"divisor invariants failed at (c={c}, m={m}, n={n}): {bad}", report)
    return report


def verify_divisor(c: int, m: int, n: int) -> DivisorReport:
    """Compute and exactly check the full divisor record for one triple.

    Raises InvariantViolation if any claim fails; the proofs guarantee that
    never happens, so a raise means an arithmetic bug.
    """
    return _divisor_report(c, m, n, lcm_range(c, m, n))


@dataclass(frozen=True)
class CombinatorialChecks:
    """Exact integer comparisons L >= m*C(n,m) and (when m <= ceil(n/2)) L >= 2^n."""

    binom_ok: bool
    two_n_ok: Optional[bool]  # None when m > ceil(n/2)


def _combinatorial_checks(m: int, n: int, big_l: int) -> CombinatorialChecks:
    binom_ok = big_l >= m * comb(n, m)
    two_n_ok = big_l >= 2**n if m <= (n + 1) // 2 else None
    return CombinatorialChecks(binom_ok=binom_ok, two_n_ok=two_n_ok)


def combinatorial_checks(c: int, m: int, n: int) -> CombinatorialChecks:
    return _combinatorial_checks(m, n, lcm_range(c, m, n))


# --- log-space machinery ---------------------------------------------------

_LOG_INT_CACHE: dict[int, mpf] = {}
_LOG_FACT_CACHE: list[mpf] = []


def _log_int(n: int) -> mpf:
    """Natural log of a positive integer at the working precision, cached."""
    v = _LOG_INT_CACHE.get(n)
    if v is None:
        with mpmath.workprec(PRECISION_BITS):
            v = mpmath.log(n)
        _LOG_INT_CACHE[n] = v
    return v


def log_factorial(k: int) -> mpf:
    """log(k!) as the exact sum of log j, each at 128-bit precision.

    Kept independent of Stirling so the Stirling inequality stays a
    checked claim rather than an input.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if len(_LOG_FACT_CACHE) <= k:
        with mpmath.workprec(PRECISION_BITS):
            while len(_LOG_FACT_CACHE) <= k:
                if not _LOG_FACT_CACHE:
                    _LOG_FACT_CACHE.append(mpf(0))
                j = len(_LOG_FACT_CACHE)
                _LOG_FACT_CACHE.append(_LOG_FACT_CACHE[-1] + mpmath.log(j))
    return _LOG_FACT_CACHE[k]


def icbrt(x: int) -> int:
    """Integer cube root: the largest t with t^3 <= x."""
    if x < 0:
        raise ValueError(f"need x >= 0, got {x}")
    if x == 0:
        return 0
    # Newton iteration from an over-estimate; pure integer, so arbitrarily large x is fine
    t = 1 << ((x.bit_length() + 2) // 3)
    while True:
        nxt = (2 * t + x // (t * t)) // 3
        if nxt >= t:
            break
        t = nxt
    while t * t * t > x:
        t -= 1
    while (t + 1) ** 3 <= x:
        t += 1
    return t


def floor_half_frontier(n: int) -> int:
    """floor(n^(2/3) / 2), via integer cube-root extraction."""
    return icbrt(n * n) // 2


def factorial_bound_const(c: int) -> mpf:
    """Prefactor e^(-2*pi^2*c/3) / c of the factorial-form bound."""
    with mpmath.workprec(PRECISION_BITS):
        return mpmath.exp(-2 * mpmath.pi**2 * c / 3) / c


def exp_bound_const(c: int) -> mpf:
    """Prefactor e^(-2*pi^2*c/3 - 5/12) / ((2*pi)^(3/2) * c)."""
    with mpmath.workprec(PRECISION_BITS):
        return mpmath.exp(-2 * mpmath.pi**2 * c / 3 - mpf(5) / 12) / ((2 * mpmath.pi) ** mpf("1.5") * c)


def frontier_bound_const(c: int) -> mpf:
    """Prefactor e^(-2*pi^2*c/3 - 5/12) / (pi^(3/2) * c); 2^(3/2) times exp_bound_const."""
    with mpmath.workprec(PRECISION_BITS):
        return mpmath.exp(-2 * mpmath.pi**2 * c / 3 - mpf(5) / 12) / (mpmath.pi ** mpf("1.5") * c)


@lru_cache(maxsize=None)
def _fixed_consts() -> tuple[mpf, mpf, mpf, mpf, mpf]:
    """log 2, 2/3, 1.5, log 0.32 and log 1.442 at the working precision."""
    with mpmath.workprec(PRECISION_BITS):
        return (mpmath.log(2), mpf(2) / 3, mpf("1.5"),
                mpmath.log(mpf("0.32")), mpmath.log(mpf("1.442")))


@lru_cache(maxsize=None)
def _log_consts(c: int) -> tuple[mpf, mpf, mpf]:
    """Logs of the factorial, exponential and frontier prefactors for one c."""
    with mpmath.workprec(PRECISION_BITS):
        return (mpmath.log(factorial_bound_const(c)), mpmath.log(exp_bound_const(c)),
                mpmath.log(frontier_bound_const(c)))


@lru_cache(maxsize=None)
def _c5_terms(n: int) -> tuple[mpf, mpf]:
    """log(n - n^(2/3)/2) and floor(n^(2/3)/2) * (log 2 + 3), the n-only terms of c5."""
    log2, two_thirds = _fixed_consts()[:2]
    with mpmath.workprec(PRECISION_BITS):
        frontier = mpf(n) - mpmath.power(n, two_thirds) / 2
        return mpmath.log(frontier), floor_half_frontier(n) * (log2 + 3)


# One row per lower bound: (name, applies(c, m, n, d), log_value(c, m, n, d))
# with d = n - m.  Gates are exact integer comparisons (8*(n-m)^3 vs n^2 for
# the frontier split) so no triple is misclassified by rounding; a log value
# is evaluated only where its gate holds, inside the 128-bit working precision.
_BOUNDS = (
    ("oon_2n", lambda c, m, n, d: m <= (n + 1) // 2,
     lambda c, m, n, d: n * _fixed_consts()[0]),
    ("binom", lambda c, m, n, d: True,
     lambda c, m, n, d: mpmath.log(m * comb(n, m))),
    ("t7", lambda c, m, n, d: True,
     lambda c, m, n, d: (
         _log_consts(c)[0]
         + 2 * _log_int(m)
         + 2 * log_factorial(n)
         - 2 * log_factorial(m)
         - 3 * log_factorial(d)
     )),
    ("t9", lambda c, m, n, d: m < n,
     lambda c, m, n, d: (
         _log_consts(c)[1]
         + _log_int(n)
         + _log_int(m)
         - _fixed_consts()[2] * _log_int(d)
         + d * (2 * _log_int(m) - 3 * _log_int(d))
         + 3 * d
     )),
    # m <= n - n^(2/3)/2  <=>  8*(n-m)^3 >= n^2, exactly
    ("c5", lambda c, m, n, d: 8 * d**3 >= n * n,
     lambda c, m, n, d: _log_consts(c)[2] + _c5_terms(n)[0] + _c5_terms(n)[1]),
    # n - n^(2/3)/2 <= m  <=>  8*(n-m)^3 <= n^2, exactly
    ("final", lambda c, m, n, d: 8 * d**3 <= n * n,
     lambda c, m, n, d: _log_consts(c)[1] + _log_int(n) + 3 * d),
    ("farhi", lambda c, m, n, d: c == 1 and m == 1,
     lambda c, m, n, d: _fixed_consts()[3] + n * _fixed_consts()[4]),
)

BOUND_NAMES = tuple(name for name, _, _ in _BOUNDS)


@dataclass(frozen=True)
class BoundValue:
    applicable: bool
    log_value: Optional[mpf]  # None when not applicable


_NOT_APPLICABLE = BoundValue(False, None)


@dataclass(frozen=True)
class BoundReport:
    """Log-space comparison of every lower bound against the exact lcm.

    The frontier m = n - n^(2/3)/2 separates the regimes of the c5 and
    final bounds.  A frontier width of order n^a is near-optimal for the
    exponential-form bound when a sits just below 2/3 (around
    2/3 - 1/log n); that is guidance for choosing sweep policies, not an
    asserted claim.
    """

    c: int
    m: int
    n: int
    logL: mpf
    bounds: dict[str, BoundValue]

    def failures(self) -> list[str]:
        out = []
        # at the caller's precision (53 bits by default) the subtraction could round a violation away
        with mpmath.workprec(PRECISION_BITS):
            for name, bv in self.bounds.items():
                if bv.applicable and self.logL < bv.log_value - LOG_TOLERANCE * abs(bv.log_value):
                    out.append(f"bound {name}: log_value {bv.log_value} exceeds logL {self.logL}")
        return out


def _bound_report(c: int, m: int, n: int, big_l: int) -> BoundReport:
    """Every bound of `_BOUNDS` at one triple whose lcm is big_l; raises on a violated one."""
    d = n - m
    with mpmath.workprec(PRECISION_BITS):
        log_l = mpmath.log(big_l)
        bounds = {
            name: BoundValue(True, log_value(c, m, n, d)) if applies(c, m, n, d) else _NOT_APPLICABLE
            for name, applies, log_value in _BOUNDS
        }
    report = BoundReport(c=c, m=m, n=n, logL=log_l, bounds=bounds)
    bad = report.failures()
    if bad:
        raise InvariantViolation(f"bound invariants failed at (c={c}, m={m}, n={n}): {bad}", report)
    return report


def bound_report(c: int, m: int, n: int) -> BoundReport:
    """Evaluate every applicable lower bound for one triple, in log space.

    Raises InvariantViolation when an applicable bound exceeds the exact logL.
    """
    return _bound_report(c, m, n, lcm_range(c, m, n))


@dataclass(frozen=True)
class TripleReport:
    """Every claim checked at one (c, m, n), all from one computation of L."""

    divisor: Optional[DivisorReport]  # None when L/D is not integral
    bounds: BoundReport
    checks: CombinatorialChecks
    violations: tuple[str, ...]  # empty when every claim holds


def triple_report(c: int, m: int, n: int) -> TripleReport:
    """The divisor record, bound report and combinatorial checks of one triple.

    Never raises InvariantViolation: a failed claim keeps the report that
    exposed it (None for the divisor when L/D is not integral) and adds
    its message to `violations`.
    """
    big_l = lcm_range(c, m, n)
    violations: list[str] = []

    def checked(build):
        try:
            return build(c, m, n, big_l)
        except InvariantViolation as exc:
            violations.append(str(exc))
            return exc.report

    divisor = checked(_divisor_report)
    bounds = checked(_bound_report)
    checks = _combinatorial_checks(m, n, big_l)
    if not checks.binom_ok:
        violations.append("L < m * C(n, m)")
    if checks.two_n_ok is False:
        violations.append("L < 2^n")
    return TripleReport(divisor=divisor, bounds=bounds, checks=checks, violations=tuple(violations))


def stirling_check(k: int) -> bool:
    """Both sides of k^k e^-k sqrt(2 pi k) <= k! <= (same) * e^(1/(12k)).

    The left side uses the exact log-factorial sum, so this stays an
    independent verification of the double inequality.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    with mpmath.workprec(PRECISION_BITS):
        exact = log_factorial(k)
        lower = k * mpmath.log(k) - k + mpmath.log(2 * mpmath.pi * k) / 2
        upper = lower + mpf(1) / (12 * k)
        return bool(lower <= exact <= upper)
