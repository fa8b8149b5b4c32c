"""Independent oracles shared by the unit and acceptance tests.

Everything here deliberately avoids the library's own divisibility
criterion: multiples are found by solving the quotient equations directly,
so agreement with the implementation is a real two-sided check.  The bound
logs have a second evaluation here too, in 128-bit mpf (`mpf_bound_logs`),
and the integer log printer has mpmath's own (`mpmath_log_str`).  The
bound prefactors in mpf and the Stirling check are test-only and live
here too, and so are the Newton basis, the falling factorial and the
alternating-sum definition of the Newton coefficients, which only the
tests use.  `checked_triple` is how the tests read the records
of one triple: `triple_report`, asserted to hold every claim.
"""

from __future__ import annotations

import random
from functools import lru_cache
from fractions import Fraction
from math import comb, factorial

import mpmath

from quadlcm.ring import QuadInt, QuadRat
from quadlcm.bounds import TripleReport, floor_half_frontier, log_factorial, triple_report
from quadlcm.poly import PoleError, QuadPoly, shift_product_poly


def checked_triple(c: int, m: int, n: int) -> TripleReport:
    """`triple_report(c, m, n)`, with every claim asserted to hold."""
    report = triple_report(c, m, n)
    assert report.violations == (), report.violations
    return report


def multiples_by_search(z: QuadInt, limit: int) -> set[int]:
    """All integers N with |N| <= limit that are multiples of z in Z[sqrt(-c)].

    Found by enumerating quotients x + y*sqrt(-c): expanding
    (x + y*sqrt(-c))(a + b*sqrt(-c)) = N forces b*x + a*y = 0, and
    |N| <= limit caps |y| at limit*|b|/norm(z), so the search is finite
    and complete.
    """
    a, b, c = z.a, z.b, z.c
    if z.is_zero():
        raise ValueError("zero has no multiples set")
    found = {0}
    if b == 0:
        step = abs(a)
        for n_val in range(0, limit + 1, step):
            found.add(n_val)
            found.add(-n_val)
        return found
    nrm = z.norm()
    ymax = (limit * abs(b)) // nrm
    for y in range(-ymax, ymax + 1):
        if (a * y) % b != 0:
            continue
        x = -a * y // b
        n_val = x * a - c * y * b
        if abs(n_val) <= limit:
            found.add(n_val)
    return found


def multiples_by_criterion(z: QuadInt, limit: int) -> set[int]:
    """The implementation's prediction: every multiple of norm(z)/content(z)."""
    from quadlcm.ring import divisibility_criterion

    crit = divisibility_criterion(z)
    found = set()
    for n_val in range(0, limit + 1, crit):
        found.add(n_val)
        found.add(-n_val)
    return found


def _nonzero_quadint(rng: random.Random, c: int, span: int) -> QuadInt:
    while True:
        z = QuadInt(rng.randint(-span, span), rng.randint(-span, span), c)
        if not z.is_zero():
            return z


def lemma_instance(rng: random.Random) -> tuple[list[QuadInt], QuadInt, QuadInt]:
    """A random (u, a, b) satisfying both divisibility hypotheses.

    The u_i share a common factor g, so a alone is generally *not* a
    multiple of the product of the u_i and the difference-product side b
    has real work to do.  Duplicated u_i (which force b = 0) appear with
    small probability to cover the degenerate branch.
    """
    c = rng.randint(1, 5)
    count = rng.randint(1, 4)
    g = _nonzero_quadint(rng, c, 3)
    ws = [_nonzero_quadint(rng, c, 4) for _ in range(count)]
    if count >= 2 and rng.random() < 0.1:
        ws[-1] = ws[0]  # duplicate: difference products vanish
    u = [g * w for w in ws]

    prod_w = QuadInt(1, 0, c)
    for w in ws:
        prod_w = prod_w * w
    t = QuadInt(rng.randint(-4, 4), rng.randint(-4, 4), c)
    a = g * prod_w * t

    diff_products = []
    for i, ui in enumerate(u):
        d = QuadInt(1, 0, c)
        for j, uj in enumerate(u):
            if j != i:
                d = d * (ui - uj)
        diff_products.append(d)
    if any(d.is_zero() for d in diff_products):
        b = QuadInt(0, 0, c)
    else:
        b = QuadInt(rng.randint(-3, 3), rng.randint(-3, 3), c)
        for d in diff_products:
            b = b * d
    return u, a, b


def newton_basis(c: int, ell: int) -> QuadPoly:
    """(X - s)(X - s - 1)...(X - s - ell + 1) with s = sqrt(-c); 1 when ell = 0."""
    acc = QuadPoly(c, (QuadRat(1, 0, c),))
    for j in range(ell):
        acc = acc * QuadPoly(c, (QuadRat(-j, -1, c), QuadRat(1, 0, c)))
    return acc


def alternating_sum(c: int, k: int, ell: int, z: QuadRat) -> QuadRat:
    """(1/ell!) sum_j (-1)^(ell-j) C(ell, j) / P(z + j + sqrt(-c)), P = shift_product_poly(c, k).

    The definition of the Newton coefficient, summed term by term; a value
    of P that vanishes raises PoleError, as in the library.
    """
    p = shift_product_poly(c, k)
    total = QuadRat(0, 0, c)
    for j in range(ell + 1):
        val = p.eval(QuadRat(z.a + j, z.b + 1, c))
        if val.is_zero():
            raise PoleError(f"P vanishes at z + {j} + sqrt(-{c})")
        total = total + val.inverse() * QuadRat((-1) ** (ell - j) * comb(ell, j), 0, c)
    return total * QuadRat(Fraction(1, factorial(ell)), 0, c)


def falling(x: QuadRat, n: int) -> QuadRat:
    """Falling factorial x (x-1) ... (x-n+1) in Q(sqrt(-c)); empty product is 1."""
    acc = QuadRat(1, 0, x.c)
    for t in range(n):
        acc = acc * QuadRat(x.a - t, x.b, x.c)
    return acc


# --- the 128-bit mpf evaluation of the bound logs ---------------------------
# The bound rows as they were evaluated before the fixed-point engine, kept
# as the parity oracle of its printed logs: nstr(value, 15) of each must equal
# the engine's string.  Only rows whose gate holds are evaluated.

_PRECISION_BITS = 128
_LOG_INT_CACHE: dict = {}
_LOG_FACT_CACHE: list = []


def _log_int(n):
    v = _LOG_INT_CACHE.get(n)
    if v is None:
        with mpmath.workprec(_PRECISION_BITS):
            v = mpmath.log(n)
        _LOG_INT_CACHE[n] = v
    return v


def _log_factorial(k):
    if len(_LOG_FACT_CACHE) <= k:
        with mpmath.workprec(_PRECISION_BITS):
            while len(_LOG_FACT_CACHE) <= k:
                if not _LOG_FACT_CACHE:
                    _LOG_FACT_CACHE.append(mpmath.mpf(0))
                j = len(_LOG_FACT_CACHE)
                _LOG_FACT_CACHE.append(_LOG_FACT_CACHE[-1] + mpmath.log(j))
    return _LOG_FACT_CACHE[k]


def factorial_bound_const(c: int, prec: int = _PRECISION_BITS) -> mpmath.mpf:
    """Prefactor e^(-2*pi^2*c/3) / c of the factorial-form bound, at prec bits."""
    with mpmath.workprec(prec):
        return mpmath.exp(-2 * mpmath.pi**2 * c / 3) / c


def exp_bound_const(c: int, prec: int = _PRECISION_BITS) -> mpmath.mpf:
    """Prefactor e^(-2*pi^2*c/3 - 5/12) / ((2*pi)^(3/2) * c), at prec bits."""
    with mpmath.workprec(prec):
        return (mpmath.exp(-2 * mpmath.pi**2 * c / 3 - mpmath.mpf(5) / 12)
                / ((2 * mpmath.pi) ** mpmath.mpf("1.5") * c))


def frontier_bound_const(c: int, prec: int = _PRECISION_BITS) -> mpmath.mpf:
    """Prefactor e^(-2*pi^2*c/3 - 5/12) / (pi^(3/2) * c), at prec bits; 2^(3/2) times exp_bound_const."""
    with mpmath.workprec(prec):
        return (mpmath.exp(-2 * mpmath.pi**2 * c / 3 - mpmath.mpf(5) / 12)
                / (mpmath.pi ** mpmath.mpf("1.5") * c))


@lru_cache(maxsize=None)
def _fixed_consts():
    with mpmath.workprec(_PRECISION_BITS):
        return (mpmath.log(2), mpmath.mpf(2) / 3, mpmath.mpf("1.5"),
                mpmath.log(mpmath.mpf("0.32")), mpmath.log(mpmath.mpf("1.442")))


@lru_cache(maxsize=None)
def _log_consts(c):
    with mpmath.workprec(_PRECISION_BITS):
        return (mpmath.log(factorial_bound_const(c)), mpmath.log(exp_bound_const(c)),
                mpmath.log(frontier_bound_const(c)))


@lru_cache(maxsize=None)
def _c5_terms(n):
    log2, two_thirds = _fixed_consts()[:2]
    with mpmath.workprec(_PRECISION_BITS):
        frontier = mpmath.mpf(n) - mpmath.power(n, two_thirds) / 2
        return mpmath.log(frontier), floor_half_frontier(n) * (log2 + 3)


_MPF_BOUNDS = (
    ("oon_2n", lambda c, m, n, d: m <= (n + 1) // 2,
     lambda c, m, n, d: n * _fixed_consts()[0]),
    ("binom", lambda c, m, n, d: True,
     lambda c, m, n, d: mpmath.log(m * comb(n, m))),
    ("t7", lambda c, m, n, d: True,
     lambda c, m, n, d: (
         _log_consts(c)[0]
         + 2 * _log_int(m)
         + 2 * _log_factorial(n)
         - 2 * _log_factorial(m)
         - 3 * _log_factorial(d)
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
    ("c5", lambda c, m, n, d: 8 * d**3 >= n * n,
     lambda c, m, n, d: _log_consts(c)[2] + _c5_terms(n)[0] + _c5_terms(n)[1]),
    ("final", lambda c, m, n, d: 8 * d**3 <= n * n,
     lambda c, m, n, d: _log_consts(c)[1] + _log_int(n) + 3 * d),
    ("farhi", lambda c, m, n, d: c == 1 and m == 1,
     lambda c, m, n, d: _fixed_consts()[3] + n * _fixed_consts()[4]),
)


def mpf_bound_logs(c: int, m: int, n: int, big_l: int):
    """(log L, {name: log value}) in 128-bit mpf, one entry per bound whose gate holds."""
    d = n - m
    with mpmath.workprec(_PRECISION_BITS):
        return mpmath.log(big_l), {
            name: log_value(c, m, n, d)
            for name, applies, log_value in _MPF_BOUNDS if applies(c, m, n, d)
        }


def mpf_ratio(value, log_l):
    """The table ratio log(bound) / log(L) in 128-bit mpf."""
    with mpmath.workprec(_PRECISION_BITS):
        return value / log_l


# --- the log sources as mpmath evaluates and floors them -------------------
# floor(2^128 x) of each source x of the bounds engine, from mpmath at 160
# bits or more, as the engine computed them before it was integer-only: the
# integer engine must floor every one of them to the same value.

_SOURCE_BITS = _PRECISION_BITS + 32


def _floored(x) -> int:
    return mpmath.libmp.to_fixed(x._mpf_, _PRECISION_BITS)


def mpmath_log_fixed(x: int) -> int:
    """floor(2^128 log x) for an integer x >= 1."""
    libmp = mpmath.libmp
    prec = _SOURCE_BITS + x.bit_length().bit_length()
    return libmp.to_fixed(libmp.mpf_log(libmp.from_int(x), prec), _PRECISION_BITS)


def mpmath_fixed_consts() -> tuple[int, int, int]:
    """floor(2^128 log x) for x = 2, 0.32 and 1.442."""
    with mpmath.workprec(_SOURCE_BITS):
        return tuple(_floored(mpmath.log(mpmath.mpf(p) / q)) for p, q in ((2, 1), (8, 25), (721, 500)))


def mpmath_log_consts(c: int) -> tuple[int, int, int]:
    """floor(2^128 log x) for the factorial, exponential and frontier prefactors x of one c."""
    prec = _SOURCE_BITS + (8 * c + 8).bit_length()
    with mpmath.workprec(prec):
        return tuple(_floored(mpmath.log(const(c, prec)))
                     for const in (factorial_bound_const, exp_bound_const, frontier_bound_const))


def mpmath_c5_term(n: int) -> int:
    """floor(2^128 x) for x = log(n - n^(2/3)/2) + floor(n^(2/3)/2) * (log 2 + 3)."""
    with mpmath.workprec(_SOURCE_BITS + n.bit_length() + 2):
        frontier = n - mpmath.cbrt(n * n) / 2
        return _floored(mpmath.log(frontier) + floor_half_frontier(n) * (mpmath.log(2) + 3))


def mpmath_log_str(v: int) -> str:
    """The fixed-point log v / 2^128 as mpmath's to_str prints it at 15 digits: the printer's oracle."""
    libmp = mpmath.libmp
    return libmp.to_str(libmp.from_man_exp(v, -_PRECISION_BITS), 15)


def stirling_check(k: int) -> bool:
    """Both sides of k^k e^-k sqrt(2 pi k) <= k! <= (same) * e^(1/(12k)).

    The left side uses the exact log-factorial sum, so this stays an
    independent verification of the double inequality.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    with mpmath.workprec(_PRECISION_BITS):
        exact = mpmath.ldexp(log_factorial(k), -_PRECISION_BITS)
        lower = k * mpmath.log(k) - k + mpmath.log(2 * mpmath.pi * k) / 2
        upper = lower + mpmath.mpf(1) / (12 * k)
        return bool(lower <= exact <= upper)
