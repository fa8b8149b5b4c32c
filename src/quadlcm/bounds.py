"""Exact lcm of the sequence m^2+c ... n^2+c, its rational divisor, and lower bounds.

Divisibility claims are settled in exact integer arithmetic only.  So are
three of the seven lower bounds: `oon_2n`, `binom` and `farhi` compare L
itself with 2^n, m*C(n, m) and 0.32 * 1.442^n, the last as
25 * 500^n * L >= 8 * 721^n.  The other four, `t7`, `t9`, `c5` and
`final`, involve e and pi; they are decided in log space by certified
enclosures, with no tolerance.

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
A row (c, n) is the unit of work, and `row_checks` is its one pass: one
descending fold over m (`_row_fold`) from L, P = A + B*sqrt(-c), (n-m)! and
the content multiple at the row's largest m, by one lcm or multiplication
each per step down, that checks every claim of each m once, in integers.
That start is `_row_start`, or a sweep's `window.Window`; a row without a
start (`table`) folds L alone and checks only the bounds.  The divisor
claims are read off (A, B): the numerator is norm(P) = A^2 + c*B^2, D is
reduced by one gcd, the content is gcd(A, B), and the floored star witness
(x, y) must satisfy x*A - c*y*B = L*(n-m)! and x*B + y*A = 0, with (n-m)!
taken afresh from m and n, not from the fold.  Each m gives one plain
tuple, no record, and nothing here raises on a failed claim: its message
stays in the tuple of the triple that exposed it.  log L is not folded:
each is floor(2^128 log L) of its own L, where a sum of floored logs could
change a printed digit.  The record classes `DivisorReport`, `BoundReport`
and `TripleReport` of `tests/oracles.py` re-check every claim
independently.

The exact quantity content_multiple lives in `ring`; it is imported here
too.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, gcd, lcm
from typing import Callable, Iterator, Optional

from .fixedlog import (C_LIMIT, PRECISION_BITS, _E, _GUARD, _LOG_FACT, _LOG_INT, _W, _extend_logs,
                       _fixed_consts, _ln, _log_consts, _log_fixed, _log_str)
from .ring import QuadInt, content_multiple, shifted_product

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


def _row_fold(c: int, n: int, ms: range, start: Optional[Callable]) -> Iterator[tuple]:
    """(m, L, (A, B), (n-m)!, content_multiple(c, n-m)) at (c, m, n) for each m of ms, descending.

    The largest m comes from `start`, as `_row_start` gives it, each lower m with d = n - m from
    L <- `_lcm_step`, P <- P * (m + sqrt(-c)), (n-m)! <- (n-m+1)! * d and multiple <- multiple * (d^2 + 4c).
    With start None, L comes from `lcm_range` and is all that is folded: the other three are None.
    """
    if not ms:
        return
    _require_range(c, ms[0], n)
    big_l, pair, fact, multiple = (lcm_range(c, ms[-1], n), None, None, None) if start is None else start(c, ms[-1], n)
    yield ms[-1], big_l, pair, fact, multiple
    for m in reversed(ms[:-1]):
        big_l = _lcm_step(big_l, c, m)
        if pair is not None:
            d, (a, b) = n - m, pair
            # (a + b*sqrt(-c)) * (m + sqrt(-c))
            pair, fact, multiple = (a * m - c * b, a + b * m), fact * d, multiple * (d * d + 4 * c)
        yield m, big_l, pair, fact, multiple


def _divisor_checks(c: int, m: int, n: int, big_l: int, pair: tuple[int, int], fact: int,
                    multiple: int) -> tuple[tuple, int, int, list[str]]:
    """The divisor values of one triple, its unreduced numerator and denominator, and its failed claims.

    The values are L, D_num, D_den, the quotient L/D (None when it is not an
    integer), the content gcd(A, B), the multiple, and the star witness
    L*(n-m)! * conj(P) / norm(P) floored, so a false claim still gives every value.
    """
    a, b = pair
    num, den = a * a + c * b * b, fact * multiple
    g, (quotient, rem), hc = gcd(num, den), divmod(big_l * den, num), gcd(a, b)
    scaled = big_l * fact
    x, y = scaled * a // num, -scaled * b // num
    bad = []
    if rem:
        quotient = None
        bad.append("L/D is not an integer")
    elif quotient * (num // g) != big_l * (den // g):
        bad.append("quotient_check * D != L")
    if multiple % hc:
        bad.append("hc_value does not divide hc_bound")
    # (x + y*sqrt(-c)) * (A + B*sqrt(-c)) == L * (n-m)!
    if x * a - c * y * b != big_l * factorial(n - m) or x * b + y * a:
        bad.append("(star_x + star_y*sqrt(-c)) * product != L * (n-m)!")
    return (big_l, num // g, den // g, quotient, hc, multiple, x, y), num, den, bad


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
# exact) with d = n - m, where exact is None or (text, below(L, c, m, n, d)),
# below true when L is less than the exact bound.
# Gates are exact integer comparisons (8*(n-m)^3 vs n^2 for the frontier
# split) so no triple is misclassified by rounding.  A log value is a pair
# (v, e) of integers, v the fixed-point log and e its error bound, built by
# integer adds and multiples of the sources; it is evaluated only where its
# gate holds, after _LOG_INT and _LOG_FACT reach n.  A row with an exact
# bound is decided by L itself; the others by the enclosures of their logs.
_BOUNDS = (
    ("oon_2n", lambda c, m, n, d: m <= (n + 1) // 2,
     lambda c, m, n, d: (n * _fixed_consts()[0], _E * n),
     ("2^n", lambda big_l, c, m, n, d: big_l < 2**n)),
    ("binom", lambda c, m, n, d: True,
     lambda c, m, n, d: (
         _LOG_INT[m] + _LOG_FACT[n] - _LOG_FACT[m] - _LOG_FACT[d],
         _E * (1 + n + m + d),
     ),
     ("m * C(n, m)", lambda big_l, c, m, n, d: big_l < m * comb(n, m))),
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
    # The frontier m = n - n^(2/3)/2 separates the regimes of c5 and final.  A frontier width of order
    # n^a is near-optimal for the exponential-form bound when a sits just below 2/3 (around
    # 2/3 - 1/log n): guidance for choosing sweep policies, not an asserted claim.
    # m <= n - n^(2/3)/2  <=>  8*(n-m)^3 >= n^2, exactly
    ("c5", lambda c, m, n, d: 8 * d**3 >= n * n,
     lambda c, m, n, d: (_log_consts(c)[2] + _c5_term(n), 2 * _E), None),
    # n - n^(2/3)/2 <= m  <=>  8*(n-m)^3 <= n^2, exactly
    ("final", lambda c, m, n, d: 8 * d**3 <= n * n,
     lambda c, m, n, d: (_log_consts(c)[1] + _LOG_INT[n] + 3 * d * _ONE, 2 * _E), None),
    ("farhi", lambda c, m, n, d: c == 1 and m == 1,
     lambda c, m, n, d: (_fixed_consts()[1] + n * _fixed_consts()[2], _E * (1 + n)),
     ("0.32 * 1.442^n", lambda big_l, c, m, n, d: 25 * 500**n * big_l < 8 * 721**n)),
)

BOUND_NAMES = tuple(row[0] for row in _BOUNDS)


def row_checks(c: int, n: int, ms: range, start: Optional[Callable] = _row_start) -> list[tuple]:
    """Every claim at (c, m, n) for each m of ms, ascending, each checked once in one pass over `_row_fold`.

    Each m gives (values, numerator, denominator, holds, violations).  The
    values are exact, in the order of `cli.sweep_columns()`: c, m, n, L,
    D_num, D_den, quotient, hc, hc_bound, star_x, star_y, then the
    fixed-point log L and each bound's log value v, None where a value is
    absent.  numerator and denominator are norm(P) and (n-m)! * multiple,
    unreduced; holds is True, False or None (the gate fails) per bound of
    BOUND_NAMES; violations has one line per kind of claim, divisor or bound,
    that failed.  An exact row fails when L is below its bound, a log row as
    the module docstring says.  With start None only the bounds are checked,
    and the divisor values but L are None.
    """
    _extend_logs(n)
    rows = []
    for m, big_l, pair, fact, multiple in _row_fold(c, n, ms, start):
        d, violations = n - m, []
        if pair is None:
            divisor, num, den = (big_l,) + (None,) * 7, None, None
        else:
            divisor, num, den, bad = _divisor_checks(c, m, n, big_l, pair, fact, multiple)
            if bad:
                violations.append(f"divisor invariants failed at (c={c}, m={m}, n={n}): {bad}")
        log_l, logs, holds, bad = _log_fixed(big_l), [], [], []
        for name, applies, log_value, exact in _BOUNDS:
            if not applies(c, m, n, d):
                logs.append(None)
                holds.append(None)
                continue
            v, e = log_value(c, m, n, d)
            if exact is not None:
                failed = f"bound {name}: L < {exact[0]}" if exact[1](big_l, c, m, n, d) else None
            elif log_l - _E >= v + e:
                failed = None
            elif log_l + _E < v - e:
                failed = f"bound {name}: log_value {_log_str(v)} exceeds logL {_log_str(log_l)}"
            else:
                failed = f"bound {name}: undecided"
            logs.append(v)
            holds.append(failed is None)
            if failed is not None:
                bad.append(failed)
        if bad:
            violations.append(f"bound invariants failed at (c={c}, m={m}, n={n}): {bad}")
        rows.append(((c, m, n) + divisor + (log_l, *logs), num, den, tuple(holds), tuple(violations)))
    return rows[::-1]
