"""Exact polynomial arithmetic over Q(sqrt(-c)), fraction-free.

A QuadPoly is (A + B*sqrt(-c)) / den: A and B are IntPoly numerators and
den > 0 is one common denominator with gcd(den, A_i, B_i) = 1, so equality
is structural and the zero polynomial is ((), (), 1).  Arithmetic runs as
integer loops in IntPoly, the module's one integer coefficient-list kernel.

Builds the monic shift-product polynomials P whose values are the products
(n-k + sqrt(-c)) ... (n + sqrt(-c)), forward differences, and the unique
degree-<=k Bezout cofactor alpha with alpha*P + conj(alpha)*conj(P) = 1.
Three independent routes to alpha are kept, and their exact agreement is
the module's main correctness check: the closed product formula for its
Newton coefficients, the alternating-sum definition of those coefficients
as read off one forward-difference table, and the extended Euclidean
algorithm on P and conj(P).  The closed-form vector is built in one pass.

The module depends on `ring` only: the certificate's d = content_multiple
is an exact ring quantity defined there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, factorial, gcd, lcm
from typing import Sequence

from .ring import QuadRat, RingMismatchError, _check_same_ring, _Record, _set, content_multiple


class PoleError(ZeroDivisionError):
    """A denominator factor vanished at the requested evaluation point."""


class NonCoprimeError(ValueError):
    """The two polynomials share a factor of degree >= 1."""


class CertificateError(RuntimeError):
    """A Bezout certificate invariant failed; indicates an implementation bug."""


class IntPoly(_Record):
    """Dense polynomial with integer coefficients, ascending degree, trimmed."""

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Sequence[int]) -> None:
        co = list(coeffs)
        while co and not co[-1]:
            co.pop()
        _set(self, "coeffs", tuple(co))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: IntPoly) -> IntPoly:
        return IntPoly([x + y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __neg__(self) -> IntPoly:
        return self.scale(-1)

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    def __mul__(self, other: IntPoly) -> IntPoly:
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return IntPoly(out)

    def scale(self, s: int) -> IntPoly:
        return IntPoly([x * s for x in self.coeffs])

    def shift(self, h: int) -> IntPoly:
        """Compose with X + h, by repeated synthetic division."""
        out = list(self.coeffs)
        for i in range(len(out) - 1):
            for j in range(len(out) - 2, i - 1, -1):
                out[j] += h * out[j + 1]
        return IntPoly(out)


def _quad(c: int, a: IntPoly, b: IntPoly = IntPoly(()), den: int = 1) -> QuadPoly:
    """(a + b*sqrt(-c)) / den for den > 0, in normal form, set past the frozen __setattr__."""
    g = gcd(den, *a.coeffs, *b.coeffs)
    if g > 1:
        a, b = IntPoly([x // g for x in a.coeffs]), IntPoly([x // g for x in b.coeffs])
        den //= g
    poly = object.__new__(QuadPoly)
    _set(poly, "c", c)
    _set(poly, "A", a)
    _set(poly, "B", b)
    _set(poly, "den", den)
    return poly


class QuadPoly(_Record):
    """Dense polynomial (A + B*sqrt(-c)) / den over Q(sqrt(-c)), normalised.

    QuadPoly(c, coeffs) builds it from QuadRat coefficients in ascending
    degree; `coeffs` reads them back, each in lowest terms.
    """

    __slots__ = ("c", "A", "B", "den")
    c: int
    A: IntPoly
    B: IntPoly
    den: int

    def __init__(self, c: int, coeffs: Sequence[QuadRat] = ()) -> None:
        for co in coeffs:
            if co.c != c:
                raise RingMismatchError(f"coefficient ring {co.c} != polynomial ring {c}")
        den = lcm(*(f.denominator for co in coeffs for f in (co.a, co.b)))
        self.__setstate__(_quad(c, IntPoly([int(co.a * den) for co in coeffs]),
                                IntPoly([int(co.b * den) for co in coeffs]), den).__getstate__())

    @property
    def coeffs(self) -> tuple[QuadRat, ...]:
        return tuple(QuadRat(Fraction(a, self.den), Fraction(b, self.den), self.c)
                     for a, b in zip_longest(self.A.coeffs, self.B.coeffs, fillvalue=0))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return max(self.A.degree, self.B.degree)

    def is_zero(self) -> bool:
        return self.A.is_zero() and self.B.is_zero()

    def leading(self) -> QuadRat:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: QuadPoly) -> QuadPoly:
        _check_same_ring(self, other)
        den = lcm(self.den, other.den)
        x, y = den // self.den, den // other.den
        return _quad(self.c, self.A.scale(x) + other.A.scale(y),
                     self.B.scale(x) + other.B.scale(y), den)

    def __neg__(self) -> QuadPoly:
        return _quad(self.c, -self.A, -self.B, self.den)

    def __sub__(self, other: QuadPoly) -> QuadPoly:
        return self + (-other)

    def __mul__(self, other: QuadPoly) -> QuadPoly:
        # sqrt(-c) * sqrt(-c) = -c
        _check_same_ring(self, other)
        a1, b1, a2, b2 = self.A, self.B, other.A, other.B
        return _quad(self.c, a1 * a2 - (b1 * b2).scale(self.c), a1 * b2 + b1 * a2,
                     self.den * other.den)

    def scale(self, s: int | Fraction | QuadRat) -> QuadPoly:
        if not isinstance(s, QuadRat):
            s = QuadRat(s, 0, self.c)
        return self * QuadPoly(self.c, (s,))

    def conj(self) -> QuadPoly:
        """Conjugate every coefficient; a ring morphism on polynomials."""
        return _quad(self.c, self.A, -self.B, self.den)

    def eval(self, z: QuadRat) -> QuadRat:
        """Exact Horner evaluation in integers: e^deg * p(w/e) for z = w/e, then one division."""
        _check_same_ring(self, z)
        e = lcm(z.a.denominator, z.b.denominator)
        p, q, c = int(z.a * e), int(z.b * e), self.c
        acc_a = acc_b = 0
        power = 1
        for a, b in reversed(list(zip_longest(self.A.coeffs, self.B.coeffs, fillvalue=0))):
            acc_a, acc_b = acc_a * p - c * acc_b * q + a * power, acc_a * q + acc_b * p + b * power
            power *= e
        den = self.den * power
        return QuadRat(Fraction(acc_a * e, den), Fraction(acc_b * e, den), c)

    def shift(self, h: int) -> QuadPoly:
        """Compose with X + h."""
        return _quad(self.c, self.A.shift(h), self.B.shift(h), self.den)

    def __str__(self) -> str:
        return " + ".join(f"({co})X^{i}" for i, co in enumerate(self.coeffs)) or "0"


def one_poly(c: int) -> QuadPoly:
    return _quad(c, IntPoly((1,)))


def _linear(c: int, a: int, b: int) -> QuadPoly:
    """X + a + b*sqrt(-c)."""
    return _quad(c, IntPoly((a, 1)), IntPoly((b,)))


def shift_product_poly(c: int, k: int) -> QuadPoly:
    """The monic degree-(k+1) polynomial (X + s)(X - 1 + s)...(X - k + s), s = sqrt(-c).

    Its value at an integer n > k is the product
    (n-k + sqrt(-c)) (n-k+1 + sqrt(-c)) ... (n + sqrt(-c)).
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    acc = one_poly(c)
    for j in range(k + 1):
        acc = acc * _linear(c, -j, 1)
    return acc


# reciprocal_difference evaluates P at one point per call, so it reads P from
# here; QuadPoly is immutable, so one shared P per (c, k) is safe.  The
# public name stays a plain function.
_cached_shift_product_poly = lru_cache(maxsize=None)(shift_product_poly)


def split_parts(p: QuadPoly) -> tuple[IntPoly, IntPoly]:
    """Split p with Z[sqrt(-c)] coefficients as (A, B) with p = A + B*sqrt(-c)."""
    if p.den != 1:
        raise ValueError(f"coefficients are not in Z[sqrt(-c)]: common denominator {p.den}")
    return p.A, p.B


def recombine_parts(c: int, a: IntPoly, b: IntPoly) -> QuadPoly:
    """Inverse of split_parts: A + B*sqrt(-c) as a QuadPoly."""
    return _quad(c, a, b)


def forward_difference(p: QuadPoly, order: int) -> QuadPoly:
    """Apply the forward-difference operator `order` times.

    Computed along two independent routes that must agree exactly: n-fold
    repetition of p(X+1) - p(X), and the alternating binomial sum over
    shifts sum_m (-1)^(order-m) C(order, m) p(X+m).  Disagreement would
    mean a broken shift or arithmetic, so it raises immediately.
    """
    if order < 0:
        raise ValueError(f"need order >= 0, got {order}")
    repeated = p
    for _ in range(order):
        repeated = repeated.shift(1) - repeated
    binomial = QuadPoly(p.c)
    for m in range(order + 1):
        binomial = binomial + p.shift(m).scale((-1) ** (order - m) * comb(order, m))
    if repeated != binomial:
        raise AssertionError("forward-difference routes disagree; arithmetic bug")
    return repeated


def _alternating_sums(c: int, p: QuadPoly, z: QuadRat, ells: Sequence[int]) -> list[QuadRat]:
    """(1/ell!) sum_j (-1)^(ell-j) C(ell, j) / P(z + j + sqrt(-c)) for each ell in ells.

    That is Delta^ell f(0) / ell! for f(j) = 1/P(z + j + sqrt(-c)), and Delta^ell f(0) is the
    head of row ell of f's forward-difference table, built by subtractions only.  Each value
    of P is evaluated once, with an exact zero test (PoleError) before inversion.
    """
    row = []
    for j in range(max(ells) + 1):
        val = p.eval(QuadRat(z.a + j, z.b + 1, c))
        if val.is_zero():
            raise PoleError(f"P vanishes at z + {j} + sqrt(-{c})")
        row.append(val.inverse())
    heads = []
    while row:
        heads.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return [heads[ell] * QuadRat(Fraction(1, factorial(ell)), 0, c) for ell in ells]


def reciprocal_difference(c: int, k: int, ell: int, z: QuadRat) -> QuadRat:
    """The scaled ell-th forward difference of w -> 1/P(w + sqrt(-c)) at z.

    Evaluates (1/ell!) sum_j (-1)^(ell-j) C(ell, j) / P(z + j + sqrt(-c))
    where P = shift_product_poly(c, k).  Exact; raises PoleError when an
    evaluation point annihilates P.
    """
    if ell > k:
        raise ValueError(f"need ell <= k, got ell={ell}, k={k}")
    if z.c != c:
        raise RingMismatchError(f"z lives in ring {z.c}, expected {c}")
    return _alternating_sums(c, _cached_shift_product_poly(c, k), z, [ell])[0]


def _closed_forms(c: int, k: int, z: QuadRat, ells: Sequence[int]) -> list[QuadRat]:
    """reciprocal_difference_closed(c, k, ell, z) for each ell in ells, ascending, in one pass.

    The denominator is built once: (z + 2s) (k - 2s - z)^falling_k, then the
    falling factorial (1 + 2s + z) ... (ell + 2s + z) gains one factor per
    ell.  Each factor gets an exact zero test (PoleError) before it is
    multiplied in.
    """
    def factor(a: Fraction, b: Fraction) -> QuadRat:
        f = QuadRat(a, b, c)
        if f.is_zero():
            raise PoleError(f"denominator factor vanishes at z = {z}")
        return f

    den = factor(z.a, z.b + 2)
    for t in range(k):
        den = den * factor(k - t - z.a, -2 - z.b)
    out, ell = [], 0
    for target in ells:
        while ell < target:
            ell += 1
            den = den * factor(ell + z.a, 2 + z.b)
        out.append(den.inverse() * QuadRat((-1) ** (k + ell) * comb(k + ell, ell), 0, c))
    return out


def reciprocal_difference_closed(c: int, k: int, ell: int, z: QuadRat) -> QuadRat:
    """Closed product form of reciprocal_difference; equal on the common domain.

    (-1)^(k+ell) / (z + 2s) * C(k+ell, ell) / ((k - 2s - z)^falling_k
    (ell + 2s + z)^falling_ell) with s = sqrt(-c).  Each denominator factor
    gets an exact zero test before inversion.
    """
    if ell > k:
        raise ValueError(f"need ell <= k, got ell={ell}, k={k}")
    if z.c != c:
        raise RingMismatchError(f"z lives in ring {z.c}, expected {c}")
    return _closed_forms(c, k, z, [ell])[0]


def _newton_series(c: int, coeffs: Sequence[QuadRat]) -> QuadPoly:
    """sum_ell coeffs[ell] (X - s)...(X - s - ell + 1), s = sqrt(-c), nested: a0 + (X - s)(a1 + ...)."""
    acc = QuadPoly(c)
    for ell in reversed(range(len(coeffs))):
        acc = acc * _linear(c, -ell, -1) + QuadPoly(c, (coeffs[ell],))
    return acc


def bezout_poly(c: int, k: int) -> QuadPoly:
    """The unique degree-<=k cofactor alpha with alpha*P + conj(alpha)*conj(P) = 1.

    Assembled in the shifted falling-factorial basis from the closed-form
    Newton coefficients.
    """
    return _newton_series(c, _closed_forms(c, k, QuadRat(0, 0, c), range(k + 1)))


def bezout_poly_interp(c: int, k: int) -> QuadPoly:
    """Same cofactor from the alternating-sum Newton coefficients.

    Exact agreement with bezout_poly is the finite identity behind the
    closed form, so the pair doubles as a cross check.
    """
    p = shift_product_poly(c, k)
    return _newton_series(c, _alternating_sums(c, p, QuadRat(0, 0, c), range(k + 1)))


def divmod_poly(num: QuadPoly, den: QuadPoly) -> tuple[QuadPoly, QuadPoly]:
    """Euclidean division in Q(sqrt(-c))[X]: num = q*den + r, deg r < deg den."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    _check_same_ring(num, den)
    q, rem = QuadPoly(num.c), num
    inv_lead = den.leading().inverse()
    while rem.degree >= den.degree:
        # the leading term of rem, divided by den's; subtracting it times den cancels it
        lead = rem.leading() * inv_lead
        term = QuadPoly(num.c, (QuadRat(0, 0, num.c),) * (rem.degree - den.degree) + (lead,))
        q, rem = q + term, rem - term * den
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
        u0, u1 = u1, u0 - quo * u1
        v0, v1 = v1, v0 - quo * v1
        if not r1.is_zero():
            inv_lead = r1.leading().inverse()
            r1, u1, v1 = r1.scale(inv_lead), u1.scale(inv_lead), v1.scale(inv_lead)
    if r0.degree >= 1:
        raise NonCoprimeError(f"common factor of degree {r0.degree}: {r0}")
    unit = r0.leading().inverse()
    _, u_red = divmod_poly(u0.scale(unit), q)
    _, v_red = divmod_poly(v0.scale(unit), p)
    if p * u_red + q * v_red != one_poly(c):
        raise AssertionError("Bezout reduction lost exactness; arithmetic bug")
    return u_red, v_red


class BezoutCertificate(_Record):
    """Integer witness that the content of any value of P divides d.

    Carries alpha (the Bezout cofactor), the integer split P = A + B*sqrt(-c),
    d = c * prod_{l=1..k} (l^2 + 4c), and the split 2d*alpha = r + s*sqrt(-c),
    tied together by the exact identity r*A - c*s*B = d.
    """

    c: int
    k: int
    alpha: QuadPoly
    A: IntPoly
    B: IntPoly
    r: IntPoly
    s: IntPoly
    d: int

    def verify(self) -> None:
        """Re-check every certificate invariant exactly; raise CertificateError.

        P = A + B*sqrt(-c) must be monic of degree k+1 with the k+1 distinct roots j - sqrt(-c),
        j = 0..k, which pins it down in Q(sqrt(-c)); then d, the split (r, s) of 2d*alpha, and
        the one identity r*A - c*s*B = d.  Given the split, that is d times the Bezout identity
        alpha*P + conj(alpha)*conj(P) = 1, as 2d*(alpha*P + conj(alpha)*conj(P)) = 2*(r*A - c*s*B).
        """
        c, k = self.c, self.k
        if self.alpha.degree > k:
            raise CertificateError(f"deg alpha = {self.alpha.degree} exceeds k = {k}")
        p = recombine_parts(c, self.A, self.B)
        if (p.degree != k + 1 or p.leading() != QuadRat(1, 0, c)
                or not all(p.eval(QuadRat(j, -1, c)).is_zero() for j in range(k + 1))):
            raise CertificateError("A, B do not split the shift product polynomial")
        d = content_multiple(c, k)
        if d != self.d:
            raise CertificateError(f"d = {self.d} != c * prod(l^2 + 4c) = {d}")
        try:
            r, s = split_parts(self.alpha.scale(2 * d))
        except ValueError as exc:
            raise CertificateError(f"2d*alpha leaves Z[sqrt(-c)][X]: {exc}") from None
        if (r, s) != (self.r, self.s):
            raise CertificateError("r, s do not split 2d*alpha")
        if self.r * self.A - (self.s * self.B).scale(c) != IntPoly((d,)):
            raise CertificateError("r*A - c*s*B != d")


def bezout_certificate(c: int, k: int) -> BezoutCertificate:
    """Build the certificate for parameters (c, k) and verify it once.

    P is built once.  The Newton coefficients of alpha come from the closed
    product formula and, independently, from the forward-difference table of
    the k+1 values 1/P(j + sqrt(-c)); the two vectors must agree exactly
    before alpha is assembled in nested Newton form.  This is the standing
    defense against sign conventions drifting between conjugation and the
    closed product formula.
    """
    p = shift_product_poly(c, k)
    closed = _closed_forms(c, k, QuadRat(0, 0, c), range(k + 1))
    if closed != _alternating_sums(c, p, QuadRat(0, 0, c), range(k + 1)):
        raise CertificateError("closed-form and sum-form Newton coefficients disagree")
    alpha = _newton_series(c, closed)
    d = content_multiple(c, k)
    r, s = split_parts(alpha.scale(2 * d))
    cert = BezoutCertificate(c=c, k=k, alpha=alpha, A=p.A, B=p.B, r=r, s=s, d=d)
    cert.verify()
    return cert
