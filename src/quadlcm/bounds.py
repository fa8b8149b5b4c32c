"""Exact lcm of the sequence m^2+c ... n^2+c, its rational divisor, and lower bounds.

Divisibility claims are settled in exact integer and rational arithmetic
only.  So are three of the seven lower bounds: `oon_2n`, `binom` and
`farhi` compare L itself with 2^n, m*C(n, m) and 0.32 * 1.442^n.  The
other four, `t7`, `t9`, `c5` and `final`, involve e and pi; they are
evaluated in log space with 128-bit mpmath intermediates and accepted up
to a relative tolerance of 1e-9, which can decide them.

The seven bounds are data: rows of `_BOUNDS`, each a name, an exact integer
applicability gate, a log value and, where there is one, the exact bound.
Each report is built first and checked once: `failures()` is the one check
of a record.  `triple_report` computes L once per triple and builds and
checks every claim from it; `verify_divisor` and `bound_report` build and
check one part of that record from their own L, and raise on a failure.

Quantities that depend on c alone or on n alone (the log prefactors, the c5
frontier terms) are memoised once per process.  mpmath is bound lazily and
nothing at module level reads an mpmath attribute (the tolerance is a plain
float), so mpmath loads on the first log evaluated, not at import.  The
exact quantity content_multiple lives in `ring`; it is imported here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, lcm
from typing import TYPE_CHECKING, Optional

from ._lazy import lazy_import
from .ring import QuadInt, content, content_multiple, shifted_product

if TYPE_CHECKING:
    from mpmath import mpf

mpmath = lazy_import("mpmath")  # loads on first use, not at import

PRECISION_BITS = 128  # comfortably above the 80-bit floor the reports promise

# relative, on natural logs; the double nearest 1e-9, the same binary value
# as mpmath.mpf("1e-9") at mpmath's default 53 bits
LOG_TOLERANCE = 1e-9


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


def _divisor_parts(c: int, m: int, n: int) -> tuple[QuadInt, int, int]:
    """P = (m + sqrt(-c)) ... (n + sqrt(-c)), (n-m)! and content_multiple(c, n-m).

    The divisor is norm(P) / ((n-m)! * content_multiple(c, n-m)); norm(P) = prod(k^2+c).
    """
    return shifted_product(c, m, n), factorial(n - m), content_multiple(c, n - m)


def rational_divisor(c: int, m: int, n: int) -> Fraction:
    """The exact rational prod(k^2+c) / (c * (n-m)! * prod(k^2+4c))."""
    _require_range(c, m, n)
    product, fact, multiple = _divisor_parts(c, m, n)
    return Fraction(product.norm(), fact * multiple)


def product_content(c: int, m: int, n: int) -> int:
    """gcd of the two components of (m + sqrt(-c)) ... (n + sqrt(-c))."""
    return content(shifted_product(c, m, n))


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
    quotient_check: Optional[int]  # None when L/D is not an integer
    hc_value: int
    hc_bound: int
    star_x: int
    star_y: int
    # (m + sqrt(-c)) ... (n + sqrt(-c)), kept for the star check; not serialized
    product: QuadInt = field(repr=False, compare=False)

    def failures(self) -> list[str]:
        """All violated invariants, empty when the record is consistent."""
        out = []
        if self.quotient_check is None:
            out.append("L/D is not an integer")
        elif self.quotient_check * self.D != self.L:
            out.append("quotient_check * D != L")
        if self.hc_bound % self.hc_value != 0:
            out.append("hc_value does not divide hc_bound")
        fact = factorial(self.n - self.m)
        star = QuadInt(self.star_x, self.star_y, self.c)
        if star * self.product != QuadInt(self.L * fact, 0, self.c):
            out.append("(star_x + star_y*sqrt(-c)) * product != L * (n-m)!")
        return out


def _divisor_report(c: int, m: int, n: int, big_l: int) -> DivisorReport:
    """The divisor record of one triple whose lcm is big_l, built but not checked.

    The numerator is norm(P).  The quotient L/D is None when it is not an
    integer, and the star witness is L*(n-m)! * conj(P) / norm(P) floored,
    so a false claim still gives a whole record for `failures()` to reject.
    """
    product, fact, multiple = _divisor_parts(c, m, n)
    num, den = product.norm(), fact * multiple
    quotient, rem = divmod(big_l * den, num)
    scaled = big_l * fact
    return DivisorReport(
        c=c,
        m=m,
        n=n,
        L=big_l,
        numerator=num,
        denominator=den,
        D=Fraction(num, den),
        quotient_check=None if rem else quotient,
        hc_value=content(product),
        hc_bound=multiple,
        star_x=scaled * product.a // num,
        star_y=-scaled * product.b // num,
        product=product,
    )


def _failure_message(kind: str, report) -> Optional[str]:
    """One line naming every failure of a divisor or bound report, None when it has none."""
    bad = report.failures()
    if bad:
        return f"{kind} invariants failed at (c={report.c}, m={report.m}, n={report.n}): {bad}"
    return None


def _checked(kind: str, report):
    """The report, or InvariantViolation carrying it when its check fails."""
    message = _failure_message(kind, report)
    if message is not None:
        raise InvariantViolation(message, report)
    return report


def verify_divisor(c: int, m: int, n: int) -> DivisorReport:
    """Compute and exactly check the full divisor record for one triple.

    Raises InvariantViolation if any claim fails; the proofs guarantee that
    never happens, so a raise means an arithmetic bug.
    """
    return _checked("divisor", _divisor_report(c, m, n, lcm_range(c, m, n)))


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
                    _LOG_FACT_CACHE.append(mpmath.mpf(0))
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
        return (mpmath.exp(-2 * mpmath.pi**2 * c / 3 - mpmath.mpf(5) / 12)
                / ((2 * mpmath.pi) ** mpmath.mpf("1.5") * c))


def frontier_bound_const(c: int) -> mpf:
    """Prefactor e^(-2*pi^2*c/3 - 5/12) / (pi^(3/2) * c); 2^(3/2) times exp_bound_const."""
    with mpmath.workprec(PRECISION_BITS):
        return (mpmath.exp(-2 * mpmath.pi**2 * c / 3 - mpmath.mpf(5) / 12)
                / (mpmath.pi ** mpmath.mpf("1.5") * c))


@lru_cache(maxsize=None)
def _fixed_consts() -> tuple[mpf, mpf, mpf, mpf, mpf]:
    """log 2, 2/3, 1.5, log 0.32 and log 1.442 at the working precision."""
    with mpmath.workprec(PRECISION_BITS):
        return (mpmath.log(2), mpmath.mpf(2) / 3, mpmath.mpf("1.5"),
                mpmath.log(mpmath.mpf("0.32")), mpmath.log(mpmath.mpf("1.442")))


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
        frontier = mpmath.mpf(n) - mpmath.power(n, two_thirds) / 2
        return mpmath.log(frontier), floor_half_frontier(n) * (log2 + 3)


# One row per lower bound: (name, applies(c, m, n, d), log_value(c, m, n, d),
# exact) with d = n - m, where exact is None or (text, bound(c, m, n, d)).
# Gates are exact integer comparisons (8*(n-m)^3 vs n^2 for the frontier
# split) so no triple is misclassified by rounding; a log value is evaluated
# only where its gate holds, inside the 128-bit working precision.  A row
# with an exact bound is decided by L >= bound; the others by their logs.
_BOUNDS = (
    ("oon_2n", lambda c, m, n, d: m <= (n + 1) // 2,
     lambda c, m, n, d: n * _fixed_consts()[0],
     ("2^n", lambda c, m, n, d: 2**n)),
    ("binom", lambda c, m, n, d: True,
     lambda c, m, n, d: mpmath.log(m * comb(n, m)),
     ("m * C(n, m)", lambda c, m, n, d: m * comb(n, m))),
    ("t7", lambda c, m, n, d: True,
     lambda c, m, n, d: (
         _log_consts(c)[0]
         + 2 * _log_int(m)
         + 2 * log_factorial(n)
         - 2 * log_factorial(m)
         - 3 * log_factorial(d)
     ), None),
    ("t9", lambda c, m, n, d: m < n,
     lambda c, m, n, d: (
         _log_consts(c)[1]
         + _log_int(n)
         + _log_int(m)
         - _fixed_consts()[2] * _log_int(d)
         + d * (2 * _log_int(m) - 3 * _log_int(d))
         + 3 * d
     ), None),
    # m <= n - n^(2/3)/2  <=>  8*(n-m)^3 >= n^2, exactly
    ("c5", lambda c, m, n, d: 8 * d**3 >= n * n,
     lambda c, m, n, d: _log_consts(c)[2] + _c5_terms(n)[0] + _c5_terms(n)[1], None),
    # n - n^(2/3)/2 <= m  <=>  8*(n-m)^3 <= n^2, exactly
    ("final", lambda c, m, n, d: 8 * d**3 <= n * n,
     lambda c, m, n, d: _log_consts(c)[1] + _log_int(n) + 3 * d, None),
    ("farhi", lambda c, m, n, d: c == 1 and m == 1,
     lambda c, m, n, d: _fixed_consts()[3] + n * _fixed_consts()[4],
     ("0.32 * 1.442^n", lambda c, m, n, d: Fraction(8, 25) * Fraction(721, 500) ** n)),
)

BOUND_NAMES = tuple(row[0] for row in _BOUNDS)


@dataclass(frozen=True)
class BoundValue:
    applicable: bool
    log_value: Optional[mpf]  # None when not applicable


_NOT_APPLICABLE = BoundValue(False, None)


@dataclass(frozen=True)
class BoundReport:
    """Every lower bound at one triple, with the exact lcm and its log.

    The frontier m = n - n^(2/3)/2 separates the regimes of the c5 and
    final bounds.  A frontier width of order n^a is near-optimal for the
    exponential-form bound when a sits just below 2/3 (around
    2/3 - 1/log n); that is guidance for choosing sweep policies, not an
    asserted claim.
    """

    c: int
    m: int
    n: int
    L: int
    logL: mpf
    bounds: dict[str, BoundValue]

    @cached_property
    def holds(self) -> dict[str, Optional[bool]]:
        """Whether each bound holds, None where it does not apply; computed once.

        A row with an exact bound compares L with it; the others compare
        logL within the tolerance, at the working precision (at the caller's
        precision, 53 bits by default, the subtraction could round a
        violation away).
        """
        c, m, n = self.c, self.m, self.n
        out = {}
        with mpmath.workprec(PRECISION_BITS):
            for name, _, _, exact in _BOUNDS:
                bv = self.bounds[name]
                if not bv.applicable:
                    out[name] = None
                elif exact is not None:
                    out[name] = self.L >= exact[1](c, m, n, n - m)
                else:
                    out[name] = self.logL >= bv.log_value - LOG_TOLERANCE * abs(bv.log_value)
        return out

    def failures(self) -> list[str]:
        out = []
        for name, _, _, exact in _BOUNDS:
            if self.holds[name] is False:
                if exact is not None:
                    out.append(f"bound {name}: L < {exact[0]}")
                else:
                    out.append(f"bound {name}: log_value {self.bounds[name].log_value} exceeds logL {self.logL}")
        return out


def _bound_report(c: int, m: int, n: int, big_l: int) -> BoundReport:
    """Every bound of `_BOUNDS` at one triple whose lcm is big_l, built but not checked."""
    d = n - m
    with mpmath.workprec(PRECISION_BITS):
        log_l = mpmath.log(big_l)
        bounds = {
            name: BoundValue(True, log_value(c, m, n, d)) if applies(c, m, n, d) else _NOT_APPLICABLE
            for name, applies, log_value, _ in _BOUNDS
        }
    return BoundReport(c=c, m=m, n=n, L=big_l, logL=log_l, bounds=bounds)


def bound_report(c: int, m: int, n: int) -> BoundReport:
    """Evaluate every applicable lower bound for one triple.

    Raises InvariantViolation when an applicable bound exceeds L.
    """
    return _checked("bound", _bound_report(c, m, n, lcm_range(c, m, n)))


@dataclass(frozen=True)
class TripleReport:
    """Every claim checked at one (c, m, n), all from one computation of L; both records whole."""

    divisor: DivisorReport
    bounds: BoundReport
    violations: tuple[str, ...]  # empty when every claim holds


def triple_report(c: int, m: int, n: int) -> TripleReport:
    """The divisor record and bound report of one triple, each checked once.

    Never raises InvariantViolation: a failed claim keeps the whole report
    that exposed it and adds its message to `violations`.
    """
    big_l = lcm_range(c, m, n)
    divisor = _divisor_report(c, m, n, big_l)
    bounds = _bound_report(c, m, n, big_l)
    messages = (_failure_message("divisor", divisor), _failure_message("bound", bounds))
    return TripleReport(divisor=divisor, bounds=bounds, violations=tuple(filter(None, messages)))


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
        upper = lower + mpmath.mpf(1) / (12 * k)
        return bool(lower <= exact <= upper)
