"""Exact lcm of the sequence m^2+c ... n^2+c, its rational divisor, and lower bounds.

Divisibility claims are settled in exact integer and rational arithmetic
only.  So are three of the seven lower bounds: `oon_2n`, `binom` and
`farhi` compare L itself with 2^n, m*C(n, m) and 0.32 * 1.442^n.  The
other four, `t7`, `t9`, `c5` and `final`, involve e and pi; they are
decided in log space by certified enclosures, with no tolerance.

Logs are the fixed-point integers of `fixedlog`, each within its error
bound e in units of 2^-128; the sources there are each within _E = 2.  The
n-only term of c5 here, from a cube root floored at 2^-192 and
floor(n^(2/3)/2) multiples of ln 2, is within 39 + 1.01 (log2(n) +
n^(2/3)/2) units of 2^-192, so within _E for n < 2^90.  A row's log value
is built from the sources by integer adds and integer multiples, so its
bound is the matching sum and multiples of theirs; the one halving,
1.5 * log d, floors and adds 1.

A log row holds when logL - _E >= v + e and fails when logL + _E < v - e.
Any other case is undecided, and reported as a violation, never as a pass.

The seven bounds are data: rows of `_BOUNDS`, each a name, an exact integer
applicability gate, a log value and, where there is one, the exact bound.
Each report is built first and checked once: `failures()` is the one check
of a record, and a bound report's one verdict pass serves every read.  A row
(c, n) is the unit of work: `row_reports` takes one descending fold over m
(`_row_fold`) from L, P, (n-m)! and the content multiple at the row's
largest m, by one lcm or multiplication each per step down, and builds and
checks every claim of each m from them.  That start is `_row_start`, or a
sweep's `window.Window`.  `triple_report` is the row of one m, so it
computes L once; `row_bound_reports` folds L alone.  log L is not folded:
each is floor(2^128 log L) of its own L, where a sum of floored logs could
change a printed digit.  Every record comes from `row_reports` or
`row_bound_reports`, and nothing here raises on a failed claim: its message
is kept with the report that exposed it.

The exact quantity content_multiple lives in `ring`; it is imported here
too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Callable, Iterator, Optional

from .fixedlog import (C_LIMIT, PRECISION_BITS, _E, _GUARD, _LOG_FACT, _LOG_INT, _W, _extend_logs,
                       _fixed_consts, _ln, _log_consts, _log_fixed, _log_str)
from .ring import QuadInt, _Record, content, content_multiple, shifted_product

_ONE = 1 << PRECISION_BITS


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


def _row_start(c: int, m: int, n: int) -> tuple[int, tuple[int, int], int, int]:
    """(L, (A, B), (n-m)!, content_multiple(c, n-m)) at (c, m, n), P = A + B*sqrt(-c), from scratch."""
    product, fact, multiple = _divisor_parts(c, m, n)
    return lcm_range(c, m, n), (product.a, product.b), fact, multiple


def _row_fold(c: int, n: int, ms: range, start: Callable = _row_start) -> Iterator[tuple[int, int, QuadInt, int, int]]:
    """(m, L, P, (n-m)!, content_multiple(c, n-m)) at (c, m, n) for each m of ms, descending.

    The largest m comes from `start`, as `_row_start` gives it, each lower m with d = n - m from
    L <- `_lcm_step`, P <- P * (m + sqrt(-c)), (n-m)! <- (n-m+1)! * d and multiple <- multiple * (d^2 + 4c).
    """
    if not ms:
        return
    _require_range(c, ms[0], n)
    big_l, (a, b), fact, multiple = start(c, ms[-1], n)
    yield ms[-1], big_l, QuadInt(a, b, c), fact, multiple
    for m in reversed(ms[:-1]):
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
        elif self.quotient_check * self.D.numerator != self.L * self.D.denominator:
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
    return DivisorReport(c, m, n, big_l, num, den, Fraction(num, den), None if rem else quotient,
                         content(product), multiple, scaled * product.a // num, -scaled * product.b // num, product)


def _failure_message(kind: str, report) -> Optional[str]:
    """One line naming every failure of a divisor or bound report, None when it has none."""
    bad = report.failures()
    if bad:
        return f"{kind} invariants failed at (c={report.c}, m={report.m}, n={report.n}): {bad}"
    return None


def icbrt(x: int) -> int:
    """Integer cube root: the largest t with t^3 <= x."""
    if x < 0:
        raise ValueError(f"need x >= 0, got {x}")
    if x == 0:
        return 0
    # Newton iteration from an over-estimate; pure integer, so arbitrarily large x is fine.  By AM-GM
    # no iterate drops below floor(cbrt x), and every iterate above it descends, so it stops there.
    t = 1 << ((x.bit_length() + 2) // 3)
    while True:
        nxt = (2 * t + x // (t * t)) // 3
        if nxt >= t:
            break
        t = nxt
    return t


def floor_half_frontier(n: int) -> int:
    """floor(n^(2/3) / 2), via integer cube-root extraction."""
    return icbrt(n * n) // 2


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
    bounds: dict[str, Optional[tuple[int, int]]]  # name -> its row's (v, e), None where the gate fails

    def _failed(self) -> dict[str, str]:
        """Name -> message of each applicable bound not shown to hold; one verdict pass per record.

        A row with an exact bound fails when L is below it.  A log row holds
        when the enclosures are ordered, logL - _E >= v + e, and fails when
        logL + _E < v - e; any other case is undecided, which is a failure
        too, never a pass.  The pass is kept, so `holds` and `failures()` share it.
        """
        if "_verdicts" in vars(self):
            return vars(self)["_verdicts"]
        c, m, n = self.c, self.m, self.n
        out = vars(self)["_verdicts"] = {}
        for name, _, _, exact in _BOUNDS:
            bound = self.bounds[name]
            if bound is None:
                continue
            v, e = bound
            if exact is not None:
                if self.L < exact[1](c, m, n, n - m):
                    out[name] = f"bound {name}: L < {exact[0]}"
            elif self.logL - _E < v + e:
                if self.logL + _E < v - e:
                    out[name] = (f"bound {name}: log_value {_log_str(v)} "
                                 f"exceeds logL {_log_str(self.logL)}")
                else:
                    out[name] = f"bound {name}: undecided"
        return out

    @property
    def holds(self) -> dict[str, Optional[bool]]:
        """Whether each bound is shown to hold, None where it does not apply."""
        failed = self._failed()
        return {name: None if b is None else name not in failed for name, b in self.bounds.items()}

    def failures(self) -> list[str]:
        return list(self._failed().values())


def _bound_report(c: int, m: int, n: int, big_l: int) -> BoundReport:
    """Every bound of `_BOUNDS` at one triple whose lcm is big_l, built but not checked."""
    d = n - m
    _extend_logs(n)
    bounds = {name: log_value(c, m, n, d) if applies(c, m, n, d) else None
              for name, applies, log_value, _ in _BOUNDS}
    return BoundReport(c, m, n, big_l, _log_fixed(big_l), bounds)


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


def row_reports(c: int, n: int, ms: range, start: Callable = _row_start) -> list[TripleReport]:
    """`triple_report` at (c, m, n) for each m of ms, ascending, from one fold over m started by `start`."""
    reports = []
    for m, big_l, product, fact, multiple in _row_fold(c, n, ms, start):
        divisor = _divisor_report(c, m, n, big_l, product, fact, multiple)
        bounds = _bound_report(c, m, n, big_l)
        messages = (_failure_message("divisor", divisor), _failure_message("bound", bounds))
        reports.append(TripleReport(divisor, bounds, tuple(filter(None, messages))))
    return reports[::-1]


def row_bound_reports(c: int, n: int) -> list[tuple[BoundReport, Optional[str]]]:
    """The bound report of every (c, m, n), m = 1..n ascending, with its failure message or None.

    Each L comes from one fold down over m: `lcm_range` at m = n, then the `_lcm_step`s `row_reports` takes.
    """
    big_l, reports = lcm_range(c, n, n), []
    for m in range(n, 0, -1):
        big_l = big_l if m == n else _lcm_step(big_l, c, m)
        report = _bound_report(c, m, n, big_l)
        reports.append((report, _failure_message("bound", report)))
    return reports[::-1]

