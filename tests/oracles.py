"""Independent oracles shared by the unit and acceptance tests.

These are reference implementations, built on the public `ring` and `poly`
API, that no command runs; the tests compare the library against them.

* The arithmetic no command runs, as plain functions on the public fields:
  `replace` for records, `quad_add`, `quad_sub`, `quad_neg`, `quad_conj`,
  `quad_inverse`, `quad_norm`, `quad_is_zero` and `content` for QuadInt
  and QuadRat, and `from_coeffs`, `poly_coeffs`, `poly_add`, `poly_sub`,
  `poly_neg`, `poly_mul`, `poly_scale`, `poly_conj`, `poly_degree`,
  `poly_is_zero`, `poly_leading`, `poly_horner` and `poly_eval` for
  QuadPoly, and `cert_alpha`, a certificate's alpha as a QuadPoly.
* The per-triple records `DivisorReport`, `BoundReport` and `TripleReport`,
  each with its own `failures()`: the independent re-check of
  `bounds.row_checks`, which builds no record.  A `BoundReport`'s values
  come from `_BOUND_ROWS`, the seven bounds as a per-triple table of exact
  gates and log values; the pass plans them once per row instead.
  `pass_tuple` writes a record as the pass's tuple.  `checked_triple` is how the tests read the
  records of one triple: `triple_report`, asserted to hold every claim and
  to equal the library's pass.
* The divisibility lemma: the criterion norm(z)/content(z), exact division
  in Z[sqrt(-c)] and the product lemma checker.  `multiples_by_search`
  finds multiples by solving the quotient equations directly, so its
  agreement with the criterion is a real two-sided check.
* The Newton coefficients of the Bezout cofactor alpha at any rational
  point z, in integers: the closed product form (`closed_forms`) and the
  forward-difference table of 1/P (`alternating_sums`), each raising
  PoleError where a factor vanishes; the library builds the certificate
  from their z = 0 cases scaled by 2d, in Z[sqrt(-c)].  alpha summed in
  the Newton basis from the term-by-term alternating sums
  (`sum_form_alpha`), and the extended Euclidean route to it
  (`bezout_pair`); `shift` and both routes of `forward_difference`; the
  forward-difference table in QuadRat arithmetic
  (`difference_table_sums`); `one_poly` and `split_parts`.
* The bound logs in 128-bit mpf (`mpf_bound_logs`), mpmath's own log
  printer (`mpmath_log_str`), the bound prefactors in mpf and the Stirling
  check.
"""

from __future__ import annotations

import random
from functools import lru_cache
from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial, gcd, lcm
from typing import Optional

import mpmath

from quadlcm import bounds
from quadlcm.ring import QuadInt, QuadRat, RingMismatchError, _Record, content_multiple, shifted_product
from quadlcm.bounds import floor_half_frontier
from quadlcm.fixedlog import PRECISION_BITS, _E, _LOG_FACT, _LOG_INT, _extend_logs, _log_fixed, _log_str
from quadlcm.poly import IntPoly, QuadPoly, shift_product_poly
from quadlcm.window import _start


# --- the arithmetic no command runs -----------------------------------------


def fields(record) -> dict:
    """Field name -> value of a record."""
    return {name: getattr(record, name) for name in record._fields}


def replace(record, **changes):
    """A copy of `record` with `changes`, rebuilt through its __init__, so nothing derived from the old fields carries over.

    A change to a property is dropped, as the copy derives its own: `DivisorReport.product` is one.
    """
    kept = {name: v for name, v in changes.items() if not isinstance(getattr(type(record), name, None), property)}
    return type(record)(**{**fields(record), **kept})


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
    n = quad_norm(x)
    if n == 0:
        raise ZeroDivisionError("inverse of zero")
    return QuadRat(x.a / n, -x.b / n, x.c)


def from_coeffs(c: int, coeffs) -> QuadPoly:
    """The polynomial with QuadRat coefficients `coeffs`, ascending degree; the inverse of `poly_coeffs`."""
    for co in coeffs:
        if co.c != c:
            raise RingMismatchError(f"coefficient ring {co.c} != polynomial ring {c}")
    den = lcm(*(f.denominator for co in coeffs for f in (co.a, co.b)))
    return QuadPoly(c, IntPoly([int(co.a * den) for co in coeffs]), IntPoly([int(co.b * den) for co in coeffs]), den)


def poly_coeffs(p: QuadPoly) -> tuple[QuadRat, ...]:
    """The QuadRat coefficients of `p` in ascending degree, each in lowest terms."""
    return tuple(QuadRat(Fraction(a, p.den), Fraction(b, p.den), p.c)
                 for a, b in zip_longest(p.A.coeffs, p.B.coeffs, fillvalue=0))


def cert_alpha(cert) -> QuadPoly:
    """The Bezout cofactor (r + s*sqrt(-c)) / 2d of a `BezoutCertificate`."""
    return QuadPoly(cert.c, cert.r, cert.s, 2 * cert.d)


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


def quad_conj(x):
    """a + b*sqrt(-c) -> a - b*sqrt(-c), of x's type."""
    return type(x)(x.a, -x.b, x.c)


def poly_degree(p: QuadPoly) -> int:
    """Degree, with the zero polynomial at -1."""
    return max(p.A.degree, p.B.degree)


def poly_is_zero(p: QuadPoly) -> bool:
    return poly_degree(p) == -1


def poly_leading(p: QuadPoly) -> QuadRat:
    if poly_is_zero(p):
        raise ValueError("zero polynomial has no leading coefficient")
    return poly_coeffs(p)[-1]


def poly_horner(p: QuadPoly, z: QuadRat) -> tuple[int, int, int]:
    """Integers (a, b, t) with p(z) = (a + b*sqrt(-c)) / t, t = den * e^(deg+1) for z = w/e, by Horner."""
    _same_ring(p, z)
    e = lcm(z.a.denominator, z.b.denominator)
    x, y, c = int(z.a * e), int(z.b * e), p.c
    acc_a = acc_b = 0
    power = 1
    for a, b in reversed(list(zip_longest(p.A.coeffs, p.B.coeffs, fillvalue=0))):
        acc_a, acc_b = acc_a * x - c * acc_b * y + a * power, acc_a * y + acc_b * x + b * power
        power *= e
    return acc_a * e, acc_b * e, p.den * power


def poly_eval(p: QuadPoly, z: QuadRat) -> QuadRat:
    """p(z): exact Horner evaluation in integers (`poly_horner`), then one division."""
    a, b, t = poly_horner(p, z)
    return QuadRat(Fraction(a, t), Fraction(b, t), p.c)


def quad_norm(x):
    """Squared complex modulus a^2 + c*b^2 of a QuadInt or QuadRat, of its component type; multiplicative."""
    return x.a * x.a + x.c * x.b * x.b


def quad_is_zero(x) -> bool:
    return x.a == 0 and x.b == 0


def content(z: QuadInt) -> int:
    """gcd of the two components of a nonzero element; gcd(0, t) = |t|."""
    if quad_is_zero(z):
        raise ValueError("content is undefined at zero")
    return gcd(z.a, z.b)


# --- the per-triple records: the independent re-check of `bounds.row_checks` -
# Each claim of one triple as a record with its own `failures()`, built from
# `lcm_range`, `shifted_product`, `factorial` and `content_multiple` in
# QuadInt and Fraction arithmetic, with the exact bounds as Fractions: no fold,
# window or integer shortcut of the library's pass.  `pass_tuple` writes a
# record as the tuple the pass gives, so the two compare with ==.


class DivisorReport(_Record):
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

    @property
    def product(self) -> QuadInt:
        """(m + sqrt(-c)) ... (n + sqrt(-c)), for the star check: derived from (c, m, n), so not a field."""
        return QuadInt(*shifted_product(self.c, self.m, self.n), self.c)

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


# name -> (text, exact bound) of the rows that L itself decides
_EXACT_BOUNDS = {
    "oon_2n": ("2^n", lambda c, m, n: 2**n),
    "binom": ("m * C(n, m)", lambda c, m, n: m * comb(n, m)),
    "farhi": ("0.32 * 1.442^n", lambda c, m, n: Fraction(8, 25) * Fraction(721, 500) ** n),
}


class BoundReport(_Record):
    """Every lower bound at one triple, with the exact lcm and its log."""

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
        out = vars(self)["_verdicts"] = {}
        for name, bound in self.bounds.items():
            if bound is None:
                continue
            v, e = bound
            if name in _EXACT_BOUNDS:
                text, exact = _EXACT_BOUNDS[name]
                if self.L < exact(self.c, self.m, self.n):
                    out[name] = f"bound {name}: L < {text}"
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


class TripleReport(_Record):
    """Every claim checked at one (c, m, n), all from one computation of L; both records whole."""

    divisor: DivisorReport
    bounds: BoundReport
    violations: tuple[str, ...]  # empty when every claim holds


def divisor_report(c: int, m: int, n: int, big_l: int) -> DivisorReport:
    """The divisor record of one triple whose lcm is big_l, built but not checked.

    The quotient L/D is None when it is not an integer, and the star witness
    is L*(n-m)! * conj(P) / norm(P) floored, so a false claim still gives a
    whole record for `failures()` to reject.
    """
    product, fact, multiple = QuadInt(*shifted_product(c, m, n), c), factorial(n - m), content_multiple(c, n - m)
    num, den = quad_norm(product), fact * multiple
    quotient, rem = divmod(big_l * den, num)
    scaled = big_l * fact
    return DivisorReport(c, m, n, big_l, num, den, Fraction(num, den), None if rem else quotient,
                         content(product), multiple, scaled * product.a // num, -scaled * product.b // num)


# One row per lower bound, in `bounds.BOUND_NAMES` order: (name, applies(c, m, n, d), log_value(c, m, n, d))
# with d = n - m, each triple taken on its own.  Gates are the exact integer comparisons (8*(n-m)^3 vs n^2
# for the frontier split), where `bounds.row_checks` plans a row's gates as m-intervals; a log value is a
# pair (v, e), v the fixed-point log as the sum and multiples of the library's floored sources and e its
# error bound, where the pass hoists a row's (c, n)-only terms.  The exact bounds are `_EXACT_BOUNDS`.
_BOUND_ROWS = (
    ("oon_2n", lambda c, m, n, d: m <= (n + 1) // 2,
     lambda c, m, n, d: (n * bounds._fixed_consts()[0], _E * n)),
    ("binom", lambda c, m, n, d: True,
     lambda c, m, n, d: (_LOG_INT[m] + _LOG_FACT[n] - _LOG_FACT[m] - _LOG_FACT[d], _E * (1 + n + m + d))),
    ("t7", lambda c, m, n, d: True,
     lambda c, m, n, d: (
         bounds._log_consts(c)[0] + 2 * _LOG_INT[m] + 2 * _LOG_FACT[n] - 2 * _LOG_FACT[m] - 3 * _LOG_FACT[d],
         _E * (3 + 2 * n + 2 * m + 3 * d),
     )),
    ("t9", lambda c, m, n, d: m < n,
     lambda c, m, n, d: (
         bounds._log_consts(c)[1]
         + _LOG_INT[n]
         + _LOG_INT[m]
         - ((3 * _LOG_INT[d]) >> 1)
         + d * (2 * _LOG_INT[m] - 3 * _LOG_INT[d])
         + (3 * d << PRECISION_BITS),
         _E * (3 + 5 * d) + 3 * _E // 2 + 1,
     )),
    ("c5", lambda c, m, n, d: 8 * d**3 >= n * n,
     lambda c, m, n, d: (bounds._log_consts(c)[2] + bounds._c5_term(n), 2 * _E)),
    ("final", lambda c, m, n, d: 8 * d**3 <= n * n,
     lambda c, m, n, d: (bounds._log_consts(c)[1] + _LOG_INT[n] + (3 * d << PRECISION_BITS), 2 * _E)),
    ("farhi", lambda c, m, n, d: c == 1 and m == 1,
     lambda c, m, n, d: (bounds._fixed_consts()[1] + n * bounds._fixed_consts()[2], _E * (1 + n))),
)


def bound_report(c: int, m: int, n: int, big_l: int) -> BoundReport:
    """Every bound of `_BOUND_ROWS` at one triple whose lcm is big_l, built but not checked."""
    d = n - m
    _extend_logs(n)
    values = {name: log_value(c, m, n, d) if applies(c, m, n, d) else None for name, applies, log_value in _BOUND_ROWS}
    return BoundReport(c, m, n, big_l, _log_fixed(big_l), values)


def failure_message(kind: str, report) -> Optional[str]:
    """One line naming every failure of a divisor or bound report, None when it has none."""
    bad = report.failures()
    if bad:
        return f"{kind} invariants failed at (c={report.c}, m={report.m}, n={report.n}): {bad}"
    return None


def triple_report(c: int, m: int, n: int) -> TripleReport:
    """The divisor record and bound report of one triple, from one `bounds.lcm_range`, each checked once."""
    big_l = bounds.lcm_range(c, m, n)
    divisor, bound = divisor_report(c, m, n, big_l), bound_report(c, m, n, big_l)
    messages = (failure_message("divisor", divisor), failure_message("bound", bound))
    return TripleReport(divisor, bound, tuple(filter(None, messages)))


def pass_tuple(report: TripleReport, divisor: bool = True) -> tuple:
    """The tuple `bounds.row_checks` gives for the triple of `report`; with divisor False, as `table` asks for it."""
    dr, br = report.divisor, report.bounds
    if divisor:
        exact = (dr.D.numerator, dr.D.denominator, dr.quotient_check, dr.hc_value, dr.hc_bound, dr.star_x, dr.star_y)
        unreduced, violations = (dr.numerator, dr.denominator), report.violations
    else:
        exact, unreduced = (None,) * 7, (None, None)
        violations = tuple(v for v in report.violations if v.startswith("bound "))
    logs = tuple(None if bv is None else bv[0] for bv in br.bounds.values())
    return ((dr.c, dr.m, dr.n, dr.L) + exact + (br.logL,) + logs, *unreduced, tuple(br.holds.values()), violations)


def checked_triple(c: int, m: int, n: int) -> TripleReport:
    """`triple_report(c, m, n)`, with every claim asserted to hold and the library's pass asserted to agree."""
    report = triple_report(c, m, n)
    assert report.violations == (), report.violations
    assert bounds.row_checks(c, n, range(m, m + 1), _start) == [pass_tuple(report)]
    return report


def multiples_by_search(z: QuadInt, limit: int) -> set[int]:
    """All integers N with |N| <= limit that are multiples of z in Z[sqrt(-c)].

    Found by enumerating quotients x + y*sqrt(-c): expanding
    (x + y*sqrt(-c))(a + b*sqrt(-c)) = N forces b*x + a*y = 0, and
    |N| <= limit caps |y| at limit*|b|/norm(z), so the search is finite
    and complete.
    """
    a, b, c = z.a, z.b, z.c
    if quad_is_zero(z):
        raise ValueError("zero has no multiples set")
    found = {0}
    if b == 0:
        step = abs(a)
        for n_val in range(0, limit + 1, step):
            found.add(n_val)
            found.add(-n_val)
        return found
    nrm = quad_norm(z)
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
    return quad_norm(z) // content(z)


def divide_exact(w: QuadInt, z: QuadInt) -> QuadInt:
    """Return q with q*z = w, or raise InexactDivisionError.

    Computed as w * conj(z) / norm(z) with both rational components
    required to be integers.
    """
    if quad_is_zero(z):
        raise ZeroDivisionError("division by zero in Z[sqrt(-c)]")
    num, n = w * quad_conj(z), quad_norm(z)
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
        if quad_is_zero(ui):
            raise ValueError(f"u[{i}] is zero")
        try:
            divide_exact(a, ui)
        except InexactDivisionError:
            raise DivisibilityHypothesisError(f"u[{i}]={ui} does not divide a={a}") from None
        diff = QuadInt(1, 0, a.c)
        for j, uj in enumerate(u):
            if j != i:
                diff = diff * quad_sub(ui, uj)
        if quad_is_zero(diff):
            # zero divides only zero
            if not quad_is_zero(b):
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
        if not quad_is_zero(z):
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
    if any(quad_is_zero(d) for d in diff_products):
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


class PoleError(ZeroDivisionError):
    """A denominator factor vanished at the requested evaluation point."""


def alternating_sums(c: int, p: QuadPoly, z: QuadRat, ells) -> list[QuadRat]:
    """(1/ell!) sum_j (-1)^(ell-j) C(ell, j) / P(z + j + sqrt(-c)) for each ell in ells.

    That is Delta^ell f(0) / ell! for f(j) = 1/P(z + j + sqrt(-c)), and Delta^ell f(0) is the
    head of row ell of f's forward-difference table, built by subtractions only.  Each value
    P(z + j + s) = (a + b*s)/t comes from integer Horner, with an exact zero test (PoleError),
    so f(j) = t*(a - b*s)/norm; the table runs on the integer numerators over one common
    denominator, the lcm of the norms, and each head becomes one QuadRat.  At z = 0 this is
    the table `poly.bezout_certificate` checks the certificate against.
    """
    values = []  # (a, b, norm) of each P(z + j + s) = (a + b*s)/t; t is the same at every j
    for j in range(max(ells) + 1):
        a, b, t = poly_horner(p, QuadRat(z.a + j, z.b + 1, c))
        if not (a or b):
            raise PoleError(f"P vanishes at z + {j} + sqrt(-{c})")
        values.append((a, b, a * a + c * b * b))
    den = lcm(*(norm for _, _, norm in values))
    row_a = [a * (den // norm) for a, _, norm in values]
    row_b = [-b * (den // norm) for _, b, norm in values]
    heads = []
    while row_a:
        heads.append((row_a[0], row_b[0]))
        row_a = [y - x for x, y in zip(row_a, row_a[1:])]
        row_b = [y - x for x, y in zip(row_b, row_b[1:])]
    out = []
    for ell in ells:
        a, b = heads[ell]
        scale = den * factorial(ell)
        out.append(QuadRat(Fraction(a * t, scale), Fraction(b * t, scale), c))
    return out


def closed_forms(c: int, k: int, z: QuadRat, ells) -> list[QuadRat]:
    """alternating_sums(c, P, z, ells) in closed product form, for ascending ells, in one pass.

    The value at ell is (-1)^(k+ell) C(k+ell, ell) / ((z + 2s) (k - 2s - z)^falling_k
    (ell + 2s + z)^falling_ell) with s = sqrt(-c) and P = shift_product_poly(c, k).
    With z = w/e, each of the k+1+ell factors is an integer pair over e, so the
    denominator is e^-(k+1+ell) times a QuadInt den, built once: (w + 2es) times
    each (e(k - t) - 2es - w), then one factor (e*ell + 2es + w) more per ell.
    Each factor gets an exact zero test (PoleError) before it is multiplied in,
    and each value is the one pair e^(k+1+ell) * (+-C) * conj(den) / norm(den).
    At z = 0, 2d times the value at ell is `poly._scaled_newton_terms(c, k)[ell]`.
    """
    e = lcm(z.a.denominator, z.b.denominator)
    p, q = int(z.a * e), int(z.b * e) + 2 * e

    def factor(a: int, b: int) -> QuadInt:
        if not (a or b):
            raise PoleError(f"denominator factor vanishes at z = {z}")
        return QuadInt(a, b, c)

    den = factor(p, q)
    for t in range(k):
        den = den * factor(e * (k - t) - p, -q)
    out, ell = [], 0
    for target in ells:
        while ell < target:
            ell += 1
            den = den * factor(e * ell + p, q)
        num, norm = quad_conj(den), quad_norm(den)
        scale = (-1) ** (k + ell) * comb(k + ell, ell) * e ** (k + 1 + ell)
        out.append(QuadRat(Fraction(scale * num.a, norm), Fraction(scale * num.b, norm), c))
    return out


def difference_table_sums(c: int, p: QuadPoly, z: QuadRat, ells) -> list[QuadRat]:
    """`alternating_sums` as a forward-difference table of QuadRat values.

    Each 1/P(z + j + sqrt(-c)) is a QuadRat, and every entry of the table is
    a QuadRat subtraction, so each is normalised in Fraction arithmetic; a
    value of P that vanishes raises PoleError, as `alternating_sums` does.
    """
    row = []
    for j in range(max(ells) + 1):
        val = poly_eval(p, QuadRat(z.a + j, z.b + 1, c))
        if quad_is_zero(val):
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
    of P that vanishes raises PoleError, as `alternating_sums` does.
    """
    p = shift_product_poly(c, k)
    total = QuadRat(0, 0, c)
    for j in range(ell + 1):
        val = poly_eval(p, QuadRat(z.a + j, z.b + 1, c))
        if quad_is_zero(val):
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
    for co in reversed(poly_coeffs(p)):
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
    if poly_is_zero(den):
        raise ZeroDivisionError("polynomial division by zero")
    _same_ring(num, den)
    q, rem = QuadPoly(num.c), num
    inv_lead = quad_inverse(poly_leading(den))
    while poly_degree(rem) >= poly_degree(den):
        # the leading term of rem, divided by den's; subtracting it times den cancels it
        lead = poly_leading(rem) * inv_lead
        term = from_coeffs(num.c, (QuadRat(0, 0, num.c),) * (poly_degree(rem) - poly_degree(den)) + (lead,))
        q, rem = poly_add(q, term), poly_sub(rem, poly_mul(term, den))
    return q, rem


def bezout_pair(p: QuadPoly, q: QuadPoly) -> tuple[QuadPoly, QuadPoly]:
    """The unique (U, V) with p*U + q*V = 1, deg U < deg q, deg V < deg p.

    Extended Euclid with the running remainder kept monic to control
    coefficient growth, then one division each to reduce the degrees.
    Raises NonCoprimeError when a common factor of degree >= 1 survives.
    """
    if poly_degree(p) < 1 or poly_degree(q) < 1:
        raise ValueError("both polynomials must be non-constant")
    c = p.c
    r0, r1 = p, q
    u0, u1 = one_poly(c), QuadPoly(c)
    v0, v1 = QuadPoly(c), one_poly(c)
    while not poly_is_zero(r1):
        quo, rem = divmod_poly(r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, poly_sub(u0, poly_mul(quo, u1))
        v0, v1 = v1, poly_sub(v0, poly_mul(quo, v1))
        if not poly_is_zero(r1):
            inv_lead = quad_inverse(poly_leading(r1))
            r1, u1, v1 = poly_scale(r1, inv_lead), poly_scale(u1, inv_lead), poly_scale(v1, inv_lead)
    if poly_degree(r0) >= 1:
        raise NonCoprimeError(f"common factor of degree {poly_degree(r0)}")
    unit = quad_inverse(poly_leading(r0))
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
