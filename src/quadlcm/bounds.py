"""Exact lcm of the sequence m^2+c ... n^2+c, its rational divisor, and lower bounds.

Divisibility claims are settled in exact integer arithmetic only.  So are
three of the seven lower bounds: `oon_2n`, `binom` and `farhi` compare L
itself with 2^n, m*C(n, m) and 0.32 * 1.442^n, the last as
L >= ceil(8 * 721^n / (25 * 500^n)), for an integer L the same test as
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

A row (c, n) is the unit of work, and `row_checks` is its one pass.  It
first plans the row: each bound's gate is an exact m-interval (oon_2n at
m <= (n+1)//2, t9 at m < n, c5 and final on either side of the frontier,
from one integer cube root, farhi at m = 1 when c = 1), and each value that
depends on (c, n) only is built once, and only when some m of the row lies
in its bound's interval: the logs of oon_2n, c5 and farhi, the terms t7, t9
and final share, and the exact thresholds of oon_2n and farhi.  Then one
descending fold over m checks every claim of each m once, in integers, as
it steps.  It starts from the state of `divisor` at the row's largest m,
(L, (A, B), content multiple, witness) with P = A + B*sqrt(-c),
and steps down by `divisor._join`, the step a sweep's window pushes with.
That start is `_row_start`, which builds the state from scratch from
`lcm_range`, the integer pair of `ring.shifted_product` and
`divisor._witness`, or a sweep's `window.Window.move`; a row without a
start (`table`) folds L alone by `divisor._lcm_step`, the L step of
`_join`, and checks only the bounds.  The divisor claims of each m are
proved once, by `divisor._divisor_checks` from the witness of its state and
the one factorial(n - m) it takes per triple.
The seven bounds of an m are one straight-line pass in BOUND_NAMES order,
whose m-dependent logs are integer expressions and whose failure messages
are built only when a verdict is False; `tests/oracles.py` keeps the bounds
as a per-triple table, to re-check the pass.

Each m gives one plain tuple, no record, and nothing here raises on a
failed claim: its message stays in the tuple of the triple that exposed it.
log L is not folded: each is floor(2^128 log L) of its own L, where a sum
of floored logs could change a printed digit; an m whose L equals the
previous m's reuses that log, as the same integer has the same floor.  The
record classes `DivisorReport`, `BoundReport` and `TripleReport` of
`tests/oracles.py` re-check every claim independently.  The exact quantity
content_multiple lives in `ring`; it is imported here too.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, lcm
from typing import Callable, Optional

from . import divisor
from .fixedlog import (C_LIMIT, PRECISION_BITS, _E, _GUARD, _LOG_FACT, _LOG_INT, _W, _extend_logs,
                       _fixed_consts, _ln, _log_consts, _log_fixed, _log_str)
from .ring import content_multiple, shifted_product

_ONE = 1 << PRECISION_BITS


def _require_range(c: int, m: int, n: int) -> None:
    if c < 1:
        raise ValueError(f"need c >= 1, got {c}")
    if m < 1 or m > n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")


def lcm_range(c: int, m: int, n: int) -> int:
    """lcm of m^2+c, (m+1)^2+c, ..., n^2+c, exact, as a balanced tree of pairwise lcms."""
    _require_range(c, m, n)
    terms = [k * k + c for k in range(m, n + 1)]
    while len(terms) > 1:  # each level joins neighbours, so no big lcm meets many small terms one by one
        terms = [*map(lcm, terms[::2], terms[1::2]), *terms[len(terms) & ~1:]]
    return terms[0]


def _row_start(c: int, m: int, n: int) -> tuple:
    """The state of `divisor` at (c, m, n) from scratch: (L, (A, B), content_multiple(c, n-m), witness)."""
    begun = lcm_range(c, m, n), shifted_product(c, m, n), content_multiple(c, n - m)
    return (*begun, divisor._witness(c, *begun, factorial(n - m)))


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


@lru_cache(maxsize=4096)  # a sweep's rows reuse it across their c's; past the bound, it is rebuilt
def _c5_term(n: int) -> int:
    """The n-only part of c5, log(n - n^(2/3)/2) + floor(n^(2/3)/2) * (log 2 + 3), in fixed point within _E."""
    frontier = (n << (_W + 1)) - icbrt(n * n << 3 * _W)  # 2^(_W+1) * (n - n^(2/3)/2), floored
    return (_ln(frontier, _W + 1) + floor_half_frontier(n) * (_ln(2) + (3 << _W))) >> _GUARD


BOUND_NAMES = ("oon_2n", "binom", "t7", "t9", "c5", "final", "farhi")

# the bound that L itself is compared with, as a failure message names it, for each exact row
_EXACT_TEXT = {"oon_2n": "2^n", "binom": "m * C(n, m)", "farhi": "0.32 * 1.442^n"}


# The frontier m = n - n^(2/3)/2 separates the regimes of c5 and final.  A frontier width of order
# n^a is near-optimal for the exponential-form bound when a sits just below 2/3 (around
# 2/3 - 1/log n): guidance for choosing sweep policies, not an asserted claim.
def _frontier_gates(n: int) -> tuple[int, int]:
    """(last, first): c5 applies at m <= last, 8*(n-m)^3 >= n^2, and final at m >= first, 8*(n-m)^3 <= n^2.

    Exact, from one cube root: 8d^3 <= n^2 iff 2d <= icbrt(n^2), so t = floor_half_frontier(n), the frontier
    width of the `frontier` m-policy, is the largest d with 8d^3 <= n^2; the least d with 8d^3 >= n^2 is t on
    a tie, 8t^3 = n^2, where both apply, and t + 1 otherwise.
    """
    t = floor_half_frontier(n)
    return n - t - (8 * t**3 != n * n), n - t


def _farhi_bound(n: int) -> int:
    """ceil(0.32 * 1.442^n) = ceil(8 * 721^n / (25 * 500^n)): an integer L is below it iff 25 * 500^n * L < 8 * 721^n."""
    return -(-8 * 721**n // (25 * 500**n))


def row_checks(c: int, n: int, ms: range, start: Optional[Callable] = _row_start) -> list[tuple]:
    """Every claim at (c, m, n) for each m of ms, ascending, each checked once in one descending fold.

    Each m gives (values, numerator, denominator, holds, violations).  The
    values are exact, in the order of `cli.sweep_columns()`: c, m, n, L,
    D_num, D_den, quotient, hc, hc_bound, star_x, star_y, then the
    fixed-point log L and each bound's log value v, None where a value is
    absent.  numerator and denominator are norm(P) and (n-m)! * multiple,
    unreduced; holds is True, False or None (the gate fails) per bound of
    BOUND_NAMES; violations has one line per kind of claim, divisor or bound,
    that failed.  An exact row fails when L is below its bound, a log row as
    the module docstring says.

    The row is planned once, before the fold: each gate is an m-interval,
    and each (c, n)-only value, a log or an exact threshold, is built only
    when some m of ms lies in its bound's interval.  Then each m is one
    straight-line pass over the seven bounds, in BOUND_NAMES order, with its
    m-dependent logs as integer expressions and its messages built only
    when some verdict is False.

    The largest m's state, (L, (A, B), multiple, witness) as
    `divisor` defines it, comes from `start(c, m, n)`: `_row_start` by
    default, a sweep's `window.Window.move`.  Each lower m steps it by
    `divisor._join` with d = n - m, and `divisor._divisor_checks` proves
    the claims of each m from it, handing down the witness that stood.  With
    start None, L alone comes from `lcm_range` and is folded by
    `divisor._lcm_step`: only the bounds are checked, and the divisor values
    but L are None.  An empty ms gives [] and calls no start.
    """
    if not ms:
        return []
    bottom, top = ms[0], ms[-1]
    _require_range(c, bottom, n)
    _extend_logs(n)
    # The plan.  Gates: oon_2n at m <= half, t9 at m < n, c5 at m <= c5_last, final at m >= final_first
    # and farhi at m <= farhi_last, that is at m = 1 when c = 1.
    half, farhi_last = (n + 1) // 2, 1 if c == 1 else 0
    c5_last, final_first = _frontier_gates(n)
    k_t7, k_exp, k_c5 = _log_consts(c)
    lfn = _LOG_FACT[n]
    k_exp += _LOG_INT[n]  # t9 and final both add log n to the exponential prefactor
    v_oon, two_n = (n * _fixed_consts()[0], 1 << n) if bottom <= half else (None, None)
    v_c5 = k_c5 + _c5_term(n) if bottom <= c5_last else None
    v_farhi, farhi = ((_fixed_consts()[1] + n * _fixed_consts()[2], _farhi_bound(n)) if bottom <= farhi_last
                      else (None, None))
    rows, last_l = [], None
    if start is None:  # L alone
        big_l, state = lcm_range(c, top, n), None
    else:
        state = start(c, top, n)
    lcm_step, join, checks = divisor._lcm_step, divisor._join, divisor._divisor_checks
    for m in reversed(ms):
        d, violations = n - m, ()
        if state is None:
            if m < top:  # one step down the fold, from m + 1, as `divisor._join` steps L
                big_l = lcm_step(big_l, m * m + c)[0]
            values, num, den = (big_l,) + (None,) * 7, None, None
        else:
            if m < top:
                state = join(state, c, m, d)
            values, num, den, bad, state = checks(c, m, n, state)
            big_l = state[0]
            if bad:
                violations = (f"divisor invariants failed at (c={c}, m={m}, n={n}): {bad}",)
        if big_l != last_l:  # the fold leaves L unchanged at many m: one log per distinct L
            last_l, log_l = big_l, _log_fixed(big_l)
            low = log_l - _E  # a log row holds when this lower end of log L's enclosure is >= v + e
        # the logs of binom, t7, t9 and final depend on m; t7's and t9's error bounds too, c5's and final's are 2 _E
        lm, lfd = _LOG_INT[m], _LOG_FACT[d]
        v_binom = lm + lfn - _LOG_FACT[m] - lfd
        v_t7, e_t7 = k_t7 + 2 * v_binom - lfd, _E * (3 + 2 * n + 2 * m + 3 * d)  # 2 log m + 2 log n!/m! - 3 log d!
        if m < n:
            ld = _LOG_INT[d]
            v_t9 = k_exp + lm - ((3 * ld) >> 1) + d * (2 * lm - 3 * ld) + 3 * d * _ONE
            e_t9 = _E * (3 + 5 * d) + 3 * _E // 2 + 1
            t9 = low >= v_t9 + e_t9
        else:
            v_t9 = e_t9 = t9 = None
        v_final = k_exp + 3 * d * _ONE if m >= final_first else None
        logs = (v_oon if m <= half else None, v_binom, v_t7, v_t9, v_c5 if m <= c5_last else None, v_final,
                v_farhi if m <= farhi_last else None)
        holds = (big_l >= two_n if m <= half else None,
                 big_l >= m * comb(n, m),
                 low >= v_t7 + e_t7,
                 t9,
                 low >= v_c5 + 2 * _E if m <= c5_last else None,
                 None if v_final is None else low >= v_final + 2 * _E,
                 big_l >= farhi if m <= farhi_last else None)
        if False in holds:
            errors = (None, None, e_t7, e_t9, 2 * _E, 2 * _E, None)  # None for the rows that L decides
            bad = [f"bound {name}: L < {_EXACT_TEXT[name]}" if e is None
                   else f"bound {name}: log_value {_log_str(v)} exceeds logL {_log_str(log_l)}" if log_l + _E < v - e
                   else f"bound {name}: undecided"
                   for name, v, held, e in zip(BOUND_NAMES, logs, holds, errors) if held is False]
            violations += (f"bound invariants failed at (c={c}, m={m}, n={n}): {bad}",)
        rows.append(((c, m, n, *values, log_l, *logs), num, den, holds, violations))
    return rows[::-1]
