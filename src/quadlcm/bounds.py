"""Exact lcm of the sequence m^2+c ... n^2+c, its rational divisor, and lower bounds.

Divisibility claims are settled in exact integer and rational arithmetic
only.  So are three of the seven lower bounds: `oon_2n`, `binom` and
`farhi` compare L itself with 2^n, m*C(n, m) and 0.32 * 1.442^n.  The
other four, `t7`, `t9`, `c5` and `final`, involve e and pi; they are
decided in log space by certified enclosures, with no tolerance.

Logs are fixed-point integers: v stands for v / 2^128, and each carries an
error bound e in units of 2^-128, meaning |v - 2^128 * x| <= e for the true
log x.  One integer engine computes every log at 2^-192, 64 guard bits
below that scale; its error budget, in units u = 2^-192:

* `_engine` sums ln 2 = 2 atanh(1/3), pi = 16 atan(1/5) - 4 atan(1/239)
  and the table log(1 + i/256), i < 256, at 2^-208, each term within 2
  units there, and floors them: ln 2 within 1.01 u, pi within 1.03 u and
  each table entry, a running sum of 255 series, within 2 u.
* `_ln(x, shift)` = log(x / 2^shift), k = x.bit_length() - 1: the floored
  mantissa (1 u), s floored (2.01 u), at most 11 series terms each within
  1.34 u (30.2 u doubled, with the tail) and the table entry (2 u) give
  36 u; the term (k - shift) ln 2 adds 1.01 |k - shift| u.
* A source is an engine value floored to 2^-128, so within 1 + (its engine
  error) / 2^64 units of 2^-128, which is within _E = 2 while that error is
  below 2^64 u: log x of each x of fewer than 2^63 bits (log j, and log L
  once per triple); log 2, log 0.32 = 3 log 2 - 2 log 5 and log 1.442 =
  log 721 - log 500, within 120 u; the prefactor logs of each c, within
  5.4c + log2(c) + 140 u (the pi^2 c term is within 5.4c + 1 u), so for
  c < C_LIMIT = 2^61, which `_log_consts` enforces; the n-only term of
  c5, from a cube root floored at 2^-192 and floor(n^(2/3)/2) multiples
  of ln 2, within 39 + 1.01 (log2(n) + n^(2/3)/2) u, so for n < 2^90.
  Each is computed once per process.
* log k! is the prefix sum of the floored log j, within 2k.
* A row's log value is built from the sources by integer adds and integer
  multiples, so its bound is the matching sum and multiples of theirs; the
  one halving, 1.5 * log d, floors and adds 1.

A log row holds when logL - _E >= v + e and fails when logL + _E < v - e.
Any other case is undecided, and reported as a violation, never as a pass.

The seven bounds are data: rows of `_BOUNDS`, each a name, an exact integer
applicability gate, a log value and, where there is one, the exact bound.
Each report is built first and checked once: `failures()` is the one check
of a record.  A row (c, n) is the unit of work: `row_reports` takes one
descending fold over m (`_row_fold`), which computes L, P, (n-m)! and the
content multiple directly at the row's largest m and then with one lcm or
multiplication each per step down, and builds and checks every claim of
each m from them.  `triple_report` is the row of one m, so it computes L
once; `row_bound_reports` builds the bound reports alone from the same
fold.  log L is not folded: each is floor(2^128 log L) of its own L, where
a sum of floored logs could change a printed digit.  Every record comes
from `row_reports` or `row_bound_reports`, and nothing here raises on a
failed claim: its message is kept with the report that exposed it.

The exact quantity content_multiple lives in `ring`; it is imported here
too.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, log
from typing import Iterator, Optional

from .ring import QuadInt, _Record, _set, content, content_multiple, shifted_product

PRECISION_BITS = 128  # fixed-point scale: the int v stands for the log v / 2^128
_GUARD = 64  # guard bits of the log engine over PRECISION_BITS
_W = PRECISION_BITS + _GUARD  # the log engine's scale: its int v stands for v / 2^192
_TABLE_GUARD = 16  # extra bits at which the engine's constants are summed before flooring
_E = 2  # error bound of one floored source, in units of 2^-128
_ONE = 1 << PRECISION_BITS
C_LIMIT = 1 << 61  # the prefactor logs of c are within _E only for c below this


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


def _lcm_step(big_l: int, c: int, m: int) -> int:
    """lcm(big_l, m^2+c): L at (c, m, n) from L at (c, m+1, n), the one lcm step of a row's fold."""
    return lcm(big_l, m * m + c)


def _row_fold(c: int, n: int, ms: range) -> Iterator[tuple[int, int, QuadInt, int, int]]:
    """(m, L, P, (n-m)!, content_multiple(c, n-m)) at (c, m, n) for each m of ms, descending.

    The first, at the largest m, comes from `lcm_range` and `_divisor_parts`;
    each later one is one step down in m, with d = n - m:
    L <- lcm(L, m^2+c), P <- P * (m + sqrt(-c)), (n-m)! <- (n-m+1)! * d and
    the content multiple <- multiple * (d^2 + 4c).  ms is a range of
    consecutive m within 1..n.
    """
    if not ms:
        return
    _require_range(c, ms[0], n)
    top = ms[-1]
    big_l = lcm_range(c, top, n)
    product, fact, multiple = _divisor_parts(c, top, n)
    a, b = product.a, product.b
    for m in reversed(ms):
        if m < top:
            d = n - m
            big_l = _lcm_step(big_l, c, m)
            # (a + b*sqrt(-c)) * (m + sqrt(-c))
            a, b = a * m - c * b, a + b * m
            fact *= d
            multiple *= d * d + 4 * c
        yield m, big_l, QuadInt(a, b, c), fact, multiple


class DivisorReport(_Record):
    """Exact verification record of the divisor claims at one (c, m, n)."""

    _hidden = ("product",)  # kept for the star check; not compared, shown or serialized
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
    product: QuadInt  # (m + sqrt(-c)) ... (n + sqrt(-c))

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


def _divisor_report(c: int, m: int, n: int, big_l: int, product: QuadInt, fact: int,
                    multiple: int) -> DivisorReport:
    """The divisor record of one triple from its lcm and `_divisor_parts`, built but not checked.

    The numerator is norm(P).  The quotient L/D is None when it is not an
    integer, and the star witness is L*(n-m)! * conj(P) / norm(P) floored,
    so a false claim still gives a whole record for `failures()` to reject.
    """
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


# --- fixed-point log machinery ---------------------------------------------

# Floored sources of the log tables: _LOG_INT[j] = floor(2^128 log j) for
# j >= 1 and _LOG_FACT[k] = _LOG_INT[1] + ... + _LOG_INT[k].  Index 0 of
# _LOG_INT is a placeholder; log 0 is never read.  Entries are only ever
# appended, under _LOG_LOCK, so a reader indexing below a length it has
# seen needs no lock.
_LOG_INT: list[int] = [0, 0]
_LOG_FACT: list[int] = [0, 0]
_LOG_LOCK = threading.Lock()


def _arc_series(q: int, sign: int, bits: int) -> int:
    """atanh(1/q) (sign 1) or atan(1/q) (sign -1) for an integer q >= 3 at scale 2^bits, each term floored."""
    power, q2 = (1 << bits) // q, q * q
    total, j, term_sign = 0, 1, 1
    while power:
        total += term_sign * (power // j)
        power //= q2
        j += 2
        term_sign *= sign
    return total


@lru_cache(maxsize=None)
def _engine() -> tuple[int, int, tuple[int, ...]]:
    """ln 2, pi and log(1 + i/256) for i = 0..255 at scale 2^_W; built on the first log.

    The table is the running sum of log((a+1)/a) = 2 atanh(1/(2a+1)), a = 256..510.
    """
    bits = _W + _TABLE_GUARD
    table = [0]
    for a in range(256, 511):
        table.append(table[-1] + 2 * _arc_series(2 * a + 1, 1, bits))
    ln2 = 2 * _arc_series(3, 1, bits)
    pi = 16 * _arc_series(5, -1, bits) - 4 * _arc_series(239, -1, bits)
    return ln2 >> _TABLE_GUARD, pi >> _TABLE_GUARD, tuple(v >> _TABLE_GUARD for v in table)


def _ln(x: int, shift: int = 0) -> int:
    """log(x / 2^shift) for an integer x >= 1 at scale 2^_W, within 36 + 1.01 |k - shift| units.

    log x = k log 2 + log(a/256) + 2 atanh(s), with k = x.bit_length() - 1,
    a/256 <= y = x / 2^k < (a+1)/256 and s = (y - a/256) / (y + a/256) < 2^-9.
    """
    ln2, _, table = _engine()
    k = x.bit_length() - 1
    y = x << (_W - k) if k <= _W else x >> (k - _W)  # the mantissa at scale 2^_W, floored
    a = y >> (_W - 8)
    point = a << (_W - 8)  # a / 256 at scale 2^_W
    s = ((y - point) << _W) // (y + point)
    s2, power, total, j = s * s >> _W, s, s, 3
    while power:
        power = power * s2 >> _W
        total += power // j
        j += 2
    return (k - shift) * ln2 + table[a - 256] + 2 * total


def _log_fixed(x: int) -> int:
    """floor(2^128 * log x) for an integer x >= 1, within _E."""
    return _ln(x) >> _GUARD


def _extend_logs(k: int) -> None:
    """Grow _LOG_INT and _LOG_FACT through index k."""
    if len(_LOG_FACT) <= k:  # _LOG_FACT is appended last
        with _LOG_LOCK:
            while len(_LOG_INT) <= k:
                v = _log_fixed(len(_LOG_INT))
                _LOG_INT.append(v)
                _LOG_FACT.append(_LOG_FACT[-1] + v)


def log_factorial(k: int) -> int:
    """log(k!) in fixed point: the sum of floor(2^128 log j) over j <= k, within 2k units.

    Kept independent of Stirling so the Stirling inequality stays a
    checked claim rather than an input.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    _extend_logs(k)
    return _LOG_FACT[k]


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


@lru_cache(maxsize=None)
def _fixed_consts() -> tuple[int, int, int]:
    """Fixed-point log 2, log 0.32 = 3 log 2 - 2 log 5 and log 1.442 = log 721 - log 500, each within _E."""
    ln2 = _ln(2)
    return tuple(v >> _GUARD for v in (ln2, 3 * ln2 - 2 * _ln(5), _ln(721) - _ln(500)))


@lru_cache(maxsize=None)
def _log_consts(c: int) -> tuple[int, int, int]:
    """Fixed-point logs of the factorial, exponential and frontier prefactors for one c, each within _E.

    They are e^(-2 pi^2 c/3) / c, e^(-2 pi^2 c/3 - 5/12) / ((2 pi)^(3/2) c) and
    e^(-2 pi^2 c/3 - 5/12) / (pi^(3/2) c), whose logs are sums.  Raises
    ValueError for c >= C_LIMIT, where the error budget no longer holds.
    """
    if c >= C_LIMIT:
        raise ValueError(f"need c < 2^61, where the prefactor logs are certified, got {c}")
    pi = _engine()[1]
    log_pi = _ln(pi, _W)
    base = -(2 * c * (pi * pi >> _W)) // 3 - _ln(c)
    tail = base - (5 << _W) // 12
    return tuple(v >> _GUARD for v in (base, tail - 3 * (_ln(2) + log_pi) // 2, tail - 3 * log_pi // 2))


@lru_cache(maxsize=None)
def _c5_term(n: int) -> int:
    """The n-only part of c5, log(n - n^(2/3)/2) + floor(n^(2/3)/2) * (log 2 + 3), in fixed point within _E."""
    frontier = (n << (_W + 1)) - icbrt(n * n << 3 * _W)  # 2^(_W+1) * (n - n^(2/3)/2), floored
    return (_ln(frontier, _W + 1) + floor_half_frontier(n) * (_ln(2) + (3 << _W))) >> _GUARD


# One row per lower bound: (name, applies(c, m, n, d), log_value(c, m, n, d),
# exact) with d = n - m, where exact is None or (text, bound(c, m, n, d)).
# Gates are exact integer comparisons (8*(n-m)^3 vs n^2 for the frontier
# split) so no triple is misclassified by rounding.  A log value is a pair
# (v, e) of integers, v the fixed-point log and e its error bound, built by
# integer adds and multiples of the sources; it is evaluated only where its
# gate holds, after _LOG_INT and _LOG_FACT reach n.  A row with an exact
# bound is decided by L >= bound; the others by the enclosures of their logs.
_BOUNDS = (
    ("oon_2n", lambda c, m, n, d: m <= (n + 1) // 2,
     lambda c, m, n, d: (n * _fixed_consts()[0], _E * n),
     ("2^n", lambda c, m, n, d: 2**n)),
    ("binom", lambda c, m, n, d: True,
     lambda c, m, n, d: (
         _LOG_INT[m] + _LOG_FACT[n] - _LOG_FACT[m] - _LOG_FACT[d],
         _E * (1 + n + m + d),
     ),
     ("m * C(n, m)", lambda c, m, n, d: m * comb(n, m))),
    ("t7", lambda c, m, n, d: True,
     lambda c, m, n, d: (
         _log_consts(c)[0] + 2 * _LOG_INT[m] + 2 * _LOG_FACT[n] - 2 * _LOG_FACT[m] - 3 * _LOG_FACT[d],
         _E * (3 + 2 * n + 2 * m + 3 * d),
     ), None),
    ("t9", lambda c, m, n, d: m < n,
     lambda c, m, n, d: (
         _log_consts(c)[1]
         + _LOG_INT[n]
         + _LOG_INT[m]
         - ((3 * _LOG_INT[d]) >> 1)
         + d * (2 * _LOG_INT[m] - 3 * _LOG_INT[d])
         + 3 * d * _ONE,
         _E * (3 + 5 * d) + 3 * _E // 2 + 1,
     ), None),
    # m <= n - n^(2/3)/2  <=>  8*(n-m)^3 >= n^2, exactly
    ("c5", lambda c, m, n, d: 8 * d**3 >= n * n,
     lambda c, m, n, d: (_log_consts(c)[2] + _c5_term(n), 2 * _E), None),
    # n - n^(2/3)/2 <= m  <=>  8*(n-m)^3 <= n^2, exactly
    ("final", lambda c, m, n, d: 8 * d**3 <= n * n,
     lambda c, m, n, d: (_log_consts(c)[1] + _LOG_INT[n] + 3 * d * _ONE, 2 * _E), None),
    ("farhi", lambda c, m, n, d: c == 1 and m == 1,
     lambda c, m, n, d: (_fixed_consts()[1] + n * _fixed_consts()[2], _E * (1 + n)),
     ("0.32 * 1.442^n", lambda c, m, n, d: Fraction(8, 25) * Fraction(721, 500) ** n)),
)

BOUND_NAMES = tuple(row[0] for row in _BOUNDS)


class BoundValue(_Record):
    __slots__ = ("applicable", "log_value", "error")  # built several times per triple
    applicable: bool
    log_value: Optional[int]  # fixed point, log(bound) * 2^128; None when not applicable
    error: int  # |log_value - 2^128 * log(bound)| <= error; 0 when not applicable

    def __init__(self, applicable: bool, log_value: Optional[int], error: int) -> None:
        _set(self, "applicable", applicable)
        _set(self, "log_value", log_value)
        _set(self, "error", error)


_NOT_APPLICABLE = BoundValue(False, None, 0)


_LOG2_10 = log(10, 2)  # a float on purpose: see _log_str


def _log_str(v: int) -> str:
    """The fixed-point log v / 2^128 as a decimal with 15 significant digits, as mpmath.nstr prints it.

    mpmath's `to_str(x, 15)` in integers only: |x| floored to 69 significant
    bits (mpmath's working precision for 18 digits; its decimal count uses
    log2(10) as a float, as mpmath's to_digits_exp does), then to a decimal
    integer, rounded half-up at its 16th digit with the carry through a run
    of 9s; fixed notation for decimal exponents -4..14, `e` notation
    otherwise; trailing zeros stripped.  Equal to mpmath's string for every
    |x| below 2^3500, beyond which mpmath first divides by a power of ten.
    """
    if v == 0:
        return "0.0"
    sign, x = ("-", -v) if v < 0 else ("", v)
    fixprec = max(69 - (x.bit_length() - PRECISION_BITS), 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = fixprec - PRECISION_BITS
    fixed = x << shift if shift >= 0 else x >> -shift
    digits = str(fixed * 10**fixdps >> fixprec)
    exponent = len(digits) - fixdps - 1
    if digits[15] >= "5":
        digits = str(int(digits[:15]) + 1)
        if len(digits) > 15:  # 999...9 carried into a new leading digit
            digits = digits[:15]
            exponent += 1
    else:
        digits = digits[:15]
    if -5 < exponent < 15:
        if exponent < 0:
            digits = "0." + "0" * (-exponent - 1) + digits
        else:
            digits = digits[:exponent + 1] + "." + digits[exponent + 1:]
        exponent = 0
    else:
        digits = digits[0] + "." + digits[1:]
    digits = digits.rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    return sign + digits if exponent == 0 else f"{sign}{digits}e{exponent:+d}"


class BoundReport(_Record):
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
    logL: int  # fixed point, within _E of log(L) * 2^128
    bounds: dict[str, BoundValue]

    def _failed(self) -> dict[str, str]:
        """Name -> message of each applicable bound not shown to hold; one verdict pass.

        A row with an exact bound fails when L is below it.  A log row holds
        when the enclosures are ordered, logL - _E >= v + e, and fails when
        logL + _E < v - e; any other case is undecided, which is a failure
        too, never a pass.
        """
        c, m, n = self.c, self.m, self.n
        out = {}
        for name, _, _, exact in _BOUNDS:
            bv = self.bounds[name]
            if not bv.applicable:
                continue
            if exact is not None:
                if self.L < exact[1](c, m, n, n - m):
                    out[name] = f"bound {name}: L < {exact[0]}"
            elif self.logL - _E < bv.log_value + bv.error:
                if self.logL + _E < bv.log_value - bv.error:
                    out[name] = (f"bound {name}: log_value {_log_str(bv.log_value)} "
                                 f"exceeds logL {_log_str(self.logL)}")
                else:
                    out[name] = f"bound {name}: undecided"
        return out

    @property
    def holds(self) -> dict[str, Optional[bool]]:
        """Whether each bound is shown to hold, None where it does not apply; one verdict pass per read."""
        failed = self._failed()
        return {name: name not in failed if bv.applicable else None for name, bv in self.bounds.items()}

    def failures(self) -> list[str]:
        return list(self._failed().values())


def _bound_report(c: int, m: int, n: int, big_l: int) -> BoundReport:
    """Every bound of `_BOUNDS` at one triple whose lcm is big_l, built but not checked."""
    d = n - m
    _extend_logs(n)
    bounds = {
        name: BoundValue(True, *log_value(c, m, n, d)) if applies(c, m, n, d) else _NOT_APPLICABLE
        for name, applies, log_value, _ in _BOUNDS
    }
    return BoundReport(c=c, m=m, n=n, L=big_l, logL=_log_fixed(big_l), bounds=bounds)


class TripleReport(_Record):
    """Every claim checked at one (c, m, n), all from one computation of L; both records whole."""

    divisor: DivisorReport
    bounds: BoundReport
    violations: tuple[str, ...]  # empty when every claim holds


def triple_report(c: int, m: int, n: int) -> TripleReport:
    """The divisor record and bound report of one triple, each checked once.

    A failed claim keeps the whole report that exposed it and adds its
    message to `violations`.  It is the row of one m, so L is computed once.
    """
    return row_reports(c, n, range(m, m + 1))[0]


def row_reports(c: int, n: int, ms: range) -> list[TripleReport]:
    """`triple_report` at (c, m, n) for each m of ms, ascending, from one fold over m."""
    reports = []
    for m, big_l, product, fact, multiple in _row_fold(c, n, ms):
        divisor = _divisor_report(c, m, n, big_l, product, fact, multiple)
        bounds = _bound_report(c, m, n, big_l)
        messages = (_failure_message("divisor", divisor), _failure_message("bound", bounds))
        reports.append(TripleReport(divisor=divisor, bounds=bounds, violations=tuple(filter(None, messages))))
    return reports[::-1]


def row_bound_reports(c: int, n: int) -> list[tuple[BoundReport, Optional[str]]]:
    """The bound report of every (c, m, n), m = 1..n ascending, with its failure message or None.

    Each L comes from the same fold over m as `row_reports`.
    """
    reports = []
    for m, big_l, *_ in _row_fold(c, n, range(1, n + 1)):
        report = _bound_report(c, m, n, big_l)
        reports.append((report, _failure_message("bound", report)))
    return reports[::-1]

