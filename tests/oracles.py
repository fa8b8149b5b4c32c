"""Independent oracles shared by the unit and acceptance tests.

These are reference implementations, built on the public `ring` and `poly`
API, that no command runs; the tests compare the library against them.

* The arithmetic no command runs, as plain functions on the public fields:
  `replace` for records, `quad_add`, `quad_sub`, `quad_neg` and
  `quad_inverse` for QuadInt and QuadRat, and `from_coeffs`, `poly_add`,
  `poly_sub`, `poly_neg`, `poly_mul`, `poly_scale` and `poly_conj` for
  QuadPoly.

* The divisibility lemma: the criterion norm(z)/content(z), exact division
  in Z[sqrt(-c)] and the product lemma checker.  `multiples_by_search`
  finds multiples by solving the quotient equations directly, so its
  agreement with the criterion is a real two-sided check.
* The Bezout cofactor alpha summed in the Newton basis from the
  term-by-term alternating sums (`sum_form_alpha`), and the extended
  Euclidean route to it (`bezout_pair`); `shift` and both routes of
  `forward_difference`; the forward-difference table of the alternating
  sums in QuadRat arithmetic (`difference_table_sums`), the route the
  library's integer table replaced; `one_poly` and `split_parts`.
* The bound logs in 128-bit mpf (`mpf_bound_logs`), mpmath's own log
  printer (`mpmath_log_str`), the bound prefactors in mpf and the Stirling
  check.

`checked_triple` is how the tests read the records of one triple:
`triple_report`, asserted to hold every claim.
"""

from __future__ import annotations

import random
from functools import lru_cache
from fractions import Fraction
from math import comb, factorial, lcm

import mpmath

from quadlcm.ring import QuadInt, QuadRat, RingMismatchError, content
from quadlcm.bounds import TripleReport, floor_half_frontier, triple_report
from quadlcm.fixedlog import _LOG_FACT, _extend_logs
from quadlcm.poly import IntPoly, PoleError, QuadPoly, shift_product_poly


# --- the arithmetic no command runs -----------------------------------------


def fields(record) -> dict:
    """Field name -> value of a record, hidden fields included."""
    return {name: getattr(record, name) for name in record._fields}


def replace(record, **changes):
    """A copy of `record` with `changes`, rebuilt through its __init__, so nothing derived from the old fields carries over."""
    return type(record)(**{**fields(record), **changes})


def _same_ring(x, y) -> None:
    if x.c != y.c:
        raise RingMismatchError(f"ring parameters differ: {x.c} != {y.c}")


def quad_add(x, y):
    """x + y, of x's type: QuadInt components stay ints, QuadRat ones Fractions."""
    _same_ring(x, y)
    return type(x)(x.a + y.a, x.b + y.b, x.c)


def quad_neg(x):
    return type(x)(-x.a, -x.b, x.c)


def quad_sub(x, y):
    return quad_add(x, quad_neg(y))


def quad_inverse(x: QuadRat) -> QuadRat:
    """1 / (a + b*sqrt(-c)) = (a - b*sqrt(-c)) / (a^2 + c*b^2)."""
    n = x.norm()
    if n == 0:
        raise ZeroDivisionError("inverse of zero")
    return QuadRat(x.a / n, -x.b / n, x.c)


def from_coeffs(c: int, coeffs) -> QuadPoly:
    """The polynomial with QuadRat coefficients `coeffs`, ascending degree; the inverse of `QuadPoly.coeffs`."""
    for co in coeffs:
        if co.c != c:
            raise RingMismatchError(f"coefficient ring {co.c} != polynomial ring {c}")
    den = lcm(*(f.denominator for co in coeffs for f in (co.a, co.b)))
    return QuadPoly(c, IntPoly([int(co.a * den) for co in coeffs]), IntPoly([int(co.b * den) for co in coeffs]), den)


def poly_add(p: QuadPoly, q: QuadPoly) -> QuadPoly:
    _same_ring(p, q)
    den = lcm(p.den, q.den)
    x, y = den // p.den, den // q.den
    return QuadPoly(p.c, p.A.scale(x) + q.A.scale(y), p.B.scale(x) + q.B.scale(y), den)


def poly_neg(p: QuadPoly) -> QuadPoly:
    return QuadPoly(p.c, -p.A, -p.B, p.den)


def poly_sub(p: QuadPoly, q: QuadPoly) -> QuadPoly:
    return poly_add(p, poly_neg(q))


def poly_mul(p: QuadPoly, q: QuadPoly) -> QuadPoly:
    # sqrt(-c) * sqrt(-c) = -c
    _same_ring(p, q)
    return QuadPoly(p.c, p.A * q.A - (p.B * q.B).scale(p.c), p.A * q.B + p.B * q.A, p.den * q.den)


def poly_scale(p: QuadPoly, s) -> QuadPoly:
    """p times s, an int, a Fraction or a QuadRat."""
    if not isinstance(s, QuadRat):
        s = QuadRat(s, 0, p.c)
    return poly_mul(p, from_coeffs(p.c, (s,)))


def poly_conj(p: QuadPoly) -> QuadPoly:
    """Conjugate every coefficient; a ring morphism on polynomials."""
    return QuadPoly(p.c, p.A, -p.B, p.den)


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
    """The criterion's prediction: every multiple of norm(z)/content(z)."""
    crit = divisibility_criterion(z)
    found = set()
    for n_val in range(0, limit + 1, crit):
        found.add(n_val)
        found.add(-n_val)
    return found


# --- the divisibility lemma in Z[sqrt(-c)] ------------------------------------


class InexactDivisionError(ArithmeticError):
    """A claimed exact division left a non-integral component."""


class DivisibilityHypothesisError(ValueError):
    """The divisibility hypotheses of `product_divides_ab` fail."""


def divisibility_criterion(z: QuadInt) -> int:
    """The positive integer norm(z) / content(z).

    An integer N is a multiple of z in Z[sqrt(-c)] exactly when this
    integer divides N.  The quotient is always integral because gcd(a, b)
    divides a^2 + c*b^2 componentwise.
    """
    return z.norm() // content(z)


def divide_exact(w: QuadInt, z: QuadInt) -> QuadInt:
    """Return q with q*z = w, or raise InexactDivisionError.

    Computed as w * conj(z) / norm(z) with both rational components
    required to be integers.
    """
    if z.is_zero():
        raise ZeroDivisionError("division by zero in Z[sqrt(-c)]")
    num, n = w * z.conj(), z.norm()
    qa, ra = divmod(num.a, n)
    qb, rb = divmod(num.b, n)
    if ra or rb:
        raise InexactDivisionError(f"{w} is not an exact multiple of {z}")
    return QuadInt(qa, qb, w.c)


def product_divides_ab(u: list[QuadInt], a: QuadInt, b: QuadInt) -> bool:
    """Check that u_0 * u_1 * ... * u_n divides a*b in Z[sqrt(-c)].

    First verifies the two divisibility hypotheses: every u_i divides a, and
    for every i the difference product prod_{j != i} (u_i - u_j) divides b.
    A violated hypothesis raises DivisibilityHypothesisError; a false
    conclusion (impossible when the hypotheses hold) returns False.
    """
    if not u:
        raise ValueError("need at least one element u_i")
    for i, ui in enumerate(u):
        if ui.is_zero():
            raise ValueError(f"u[{i}] is zero")
        try:
            divide_exact(a, ui)
        except InexactDivisionError:
            raise DivisibilityHypothesisError(f"u[{i}]={ui} does not divide a={a}") from None
        diff = QuadInt(1, 0, a.c)
        for j, uj in enumerate(u):
            if j != i:
                diff = diff * quad_sub(ui, uj)
        if diff.is_zero():
            # zero divides only zero
            if not b.is_zero():
                raise DivisibilityHypothesisError(f"difference product at i={i} is zero but b={b} is not")
        else:
            try:
                divide_exact(b, diff)
            except InexactDivisionError:
                raise DivisibilityHypothesisError(
                    f"difference product {diff} at i={i} does not divide b={b}"
                ) from None
    prod_u = QuadInt(1, 0, a.c)
    for ui in u:
        prod_u = prod_u * ui
    try:
        divide_exact(a * b, prod_u)
        return True
    except InexactDivisionError:
        return False


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
                d = d * quad_sub(ui, uj)
        diff_products.append(d)
    if any(d.is_zero() for d in diff_products):
        b = QuadInt(0, 0, c)
    else:
        b = QuadInt(rng.randint(-3, 3), rng.randint(-3, 3), c)
        for d in diff_products:
            b = b * d
    return u, a, b


def one_poly(c: int) -> QuadPoly:
    return QuadPoly(c, IntPoly((1,)))


def split_parts(p: QuadPoly) -> tuple[IntPoly, IntPoly]:
    """Split p with Z[sqrt(-c)] coefficients as (A, B) with p = A + B*sqrt(-c)."""
    if p.den != 1:
        raise ValueError(f"coefficients are not in Z[sqrt(-c)]: common denominator {p.den}")
    return p.A, p.B


def difference_table_sums(c: int, p: QuadPoly, z: QuadRat, ells) -> list[QuadRat]:
    """The library's `_alternating_sums` as a forward-difference table of QuadRat values.

    Each 1/P(z + j + sqrt(-c)) is a QuadRat, and every entry of the table is
    a QuadRat subtraction, so each is normalised in Fraction arithmetic; a
    value of P that vanishes raises PoleError, as in the library.
    """
    row = []
    for j in range(max(ells) + 1):
        val = p.eval(QuadRat(z.a + j, z.b + 1, c))
        if val.is_zero():
            raise PoleError(f"P vanishes at z + {j} + sqrt(-{c})")
        row.append(quad_inverse(val))
    heads = []
    while row:
        heads.append(row[0])
        row = [quad_sub(b, a) for a, b in zip(row, row[1:])]
    return [heads[ell] * QuadRat(Fraction(1, factorial(ell)), 0, c) for ell in ells]


def newton_basis(c: int, ell: int) -> QuadPoly:
    """(X - s)(X - s - 1)...(X - s - ell + 1) with s = sqrt(-c); 1 when ell = 0."""
    acc = from_coeffs(c, (QuadRat(1, 0, c),))
    for j in range(ell):
        acc = poly_mul(acc, from_coeffs(c, (QuadRat(-j, -1, c), QuadRat(1, 0, c))))
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
        total = quad_add(total, quad_inverse(val) * QuadRat((-1) ** (ell - j) * comb(ell, j), 0, c))
    return total * QuadRat(Fraction(1, factorial(ell)), 0, c)


def falling(x: QuadRat, n: int) -> QuadRat:
    """Falling factorial x (x-1) ... (x-n+1) in Q(sqrt(-c)); empty product is 1."""
    acc = QuadRat(1, 0, x.c)
    for t in range(n):
        acc = acc * QuadRat(x.a - t, x.b, x.c)
    return acc


def sum_form_alpha(c: int, k: int) -> QuadPoly:
    """The Bezout cofactor alpha as sum_ell alternating_sum(c, k, ell, 0) * newton_basis(c, ell)."""
    alpha = QuadPoly(c)
    for ell in range(k + 1):
        alpha = poly_add(alpha, poly_scale(newton_basis(c, ell), alternating_sum(c, k, ell, QuadRat(0, 0, c))))
    return alpha


def shift(p: QuadPoly, h: int) -> QuadPoly:
    """p(X + h), composed by Horner's rule in QuadPoly arithmetic."""
    x_plus_h = from_coeffs(p.c, (QuadRat(h, 0, p.c), QuadRat(1, 0, p.c)))
    acc = QuadPoly(p.c)
    for co in reversed(p.coeffs):
        acc = poly_add(poly_mul(acc, x_plus_h), from_coeffs(p.c, (co,)))
    return acc


def forward_difference(p: QuadPoly, order: int) -> QuadPoly:
    """Apply the forward-difference operator `order` times.

    Computed along two independent routes that must agree exactly: n-fold
    repetition of p(X+1) - p(X), and the alternating binomial sum over
    shifts sum_m (-1)^(order-m) C(order, m) p(X+m).
    """
    if order < 0:
        raise ValueError(f"need order >= 0, got {order}")
    repeated = p
    for _ in range(order):
        repeated = poly_sub(shift(repeated, 1), repeated)
    binomial = QuadPoly(p.c)
    for m in range(order + 1):
        binomial = poly_add(binomial, poly_scale(shift(p, m), (-1) ** (order - m) * comb(order, m)))
    assert repeated == binomial, "forward-difference routes disagree"
    return repeated


# --- the extended Euclidean route to the Bezout cofactor ---------------------


class NonCoprimeError(ValueError):
    """The two polynomials share a factor of degree >= 1."""


def divmod_poly(num: QuadPoly, den: QuadPoly) -> tuple[QuadPoly, QuadPoly]:
    """Euclidean division in Q(sqrt(-c))[X]: num = q*den + r, deg r < deg den."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    _same_ring(num, den)
    q, rem = QuadPoly(num.c), num
    inv_lead = quad_inverse(den.leading())
    while rem.degree >= den.degree:
        # the leading term of rem, divided by den's; subtracting it times den cancels it
        lead = rem.leading() * inv_lead
        term = from_coeffs(num.c, (QuadRat(0, 0, num.c),) * (rem.degree - den.degree) + (lead,))
        q, rem = poly_add(q, term), poly_sub(rem, poly_mul(term, den))
    return q, rem


def bezout_pair(p: QuadPoly, q: QuadPoly) -> tuple[QuadPoly, QuadPoly]:
    """The unique (U, V) with p*U + q*V = 1, deg U < deg q, deg V < deg p.

    Extended Euclid with the running remainder kept monic to control
    coefficient growth, then one division each to reduce the degrees.
    Raises NonCoprimeError when a common factor of degree >= 1 survives.
    """
    if p.degree < 1 or q.degree < 1:
        raise ValueError("both polynomials must be non-constant")
    c = p.c
    r0, r1 = p, q
    u0, u1 = one_poly(c), QuadPoly(c)
    v0, v1 = QuadPoly(c), one_poly(c)
    while not r1.is_zero():
        quo, rem = divmod_poly(r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, poly_sub(u0, poly_mul(quo, u1))
        v0, v1 = v1, poly_sub(v0, poly_mul(quo, v1))
        if not r1.is_zero():
            inv_lead = quad_inverse(r1.leading())
            r1, u1, v1 = poly_scale(r1, inv_lead), poly_scale(u1, inv_lead), poly_scale(v1, inv_lead)
    if r0.degree >= 1:
        raise NonCoprimeError(f"common factor of degree {r0.degree}")
    unit = quad_inverse(r0.leading())
    _, u_red = divmod_poly(poly_scale(u0, unit), q)
    _, v_red = divmod_poly(poly_scale(v0, unit), p)
    assert poly_add(poly_mul(p, u_red), poly_mul(q, v_red)) == one_poly(c), "Bezout reduction lost exactness"
    return u_red, v_red


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
    _extend_logs(k)
    with mpmath.workprec(_PRECISION_BITS):
        exact = mpmath.ldexp(_LOG_FACT[k], -_PRECISION_BITS)
        lower = k * mpmath.log(k) - k + mpmath.log(2 * mpmath.pi * k) / 2
        upper = lower + mpmath.mpf(1) / (12 * k)
        return bool(lower <= exact <= upper)
