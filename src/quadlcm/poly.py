"""Exact polynomial arithmetic over Q(sqrt(-c)), fraction-free.

A QuadPoly is (A + B*sqrt(-c)) / den, built from exactly these fields: A
and B are IntPoly numerators and den >= 1 is one common denominator, and
construction divides out gcd(den, A_i, B_i), so equality is structural and
the zero polynomial is ((), (), 1).  Arithmetic runs as integer loops in
IntPoly, the module's one integer coefficient-list kernel.

Builds the monic shift-product polynomials P whose values are the products
(n-k + sqrt(-c)) ... (n + sqrt(-c)), and the unique degree-<=k Bezout
cofactor alpha with alpha*P + conj(alpha)*conj(P) = 1.  Two independent
routes to alpha's Newton coefficients are kept, and their exact agreement is
the module's main correctness check: the closed product formula, built in
one pass, and the alternating-sum definition, read off one
forward-difference table of 1/P.  The extended Euclidean algorithm on P and
conj(P) is a third route, kept in the tests as an oracle.  The certificate
stores alpha only as the integer split 2d*alpha = r + s*sqrt(-c).

The module depends on `ring` only: the certificate's d = content_multiple
is an exact ring quantity defined there.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial, gcd, lcm
from typing import Sequence

from .ring import QuadRat, RingMismatchError, _check_same_ring, _Record, _set, content_multiple


class PoleError(ZeroDivisionError):
    """A denominator factor vanished at the requested evaluation point."""


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


class QuadPoly(_Record):
    """Dense polynomial (A + B*sqrt(-c)) / den over Q(sqrt(-c)), built from its fields.

    QuadPoly(c, A, B, den) needs den >= 1 and normalises, dividing out
    gcd(den, A_i, B_i); QuadPoly(c) is zero.  from_coeffs builds it from
    QuadRat coefficients in ascending degree, and `coeffs` reads them back,
    each in lowest terms.
    """

    __slots__ = ("c", "A", "B", "den")
    c: int
    A: IntPoly
    B: IntPoly
    den: int

    def __init__(self, c: int, A: IntPoly = IntPoly(()), B: IntPoly = IntPoly(()), den: int = 1) -> None:
        if den < 1:
            raise ValueError(f"need den >= 1, got {den}")
        g = gcd(den, *A.coeffs, *B.coeffs)
        if g > 1:
            A, B = IntPoly([x // g for x in A.coeffs]), IntPoly([x // g for x in B.coeffs])
            den //= g
        _set(self, "c", c)
        _set(self, "A", A)
        _set(self, "B", B)
        _set(self, "den", den)

    @classmethod
    def from_coeffs(cls, c: int, coeffs: Sequence[QuadRat]) -> QuadPoly:
        """The polynomial with QuadRat coefficients `coeffs`, ascending degree; the inverse of `coeffs`."""
        for co in coeffs:
            if co.c != c:
                raise RingMismatchError(f"coefficient ring {co.c} != polynomial ring {c}")
        den = lcm(*(f.denominator for co in coeffs for f in (co.a, co.b)))
        return cls(c, IntPoly([int(co.a * den) for co in coeffs]), IntPoly([int(co.b * den) for co in coeffs]), den)

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
        return QuadPoly(self.c, self.A.scale(x) + other.A.scale(y), self.B.scale(x) + other.B.scale(y), den)

    def __neg__(self) -> QuadPoly:
        return QuadPoly(self.c, -self.A, -self.B, self.den)

    def __sub__(self, other: QuadPoly) -> QuadPoly:
        return self + (-other)

    def __mul__(self, other: QuadPoly) -> QuadPoly:
        # sqrt(-c) * sqrt(-c) = -c
        _check_same_ring(self, other)
        a1, b1, a2, b2 = self.A, self.B, other.A, other.B
        return QuadPoly(self.c, a1 * a2 - (b1 * b2).scale(self.c), a1 * b2 + b1 * a2,
                        self.den * other.den)

    def scale(self, s: int | Fraction | QuadRat) -> QuadPoly:
        if not isinstance(s, QuadRat):
            s = QuadRat(s, 0, self.c)
        return self * QuadPoly.from_coeffs(self.c, (s,))

    def conj(self) -> QuadPoly:
        """Conjugate every coefficient; a ring morphism on polynomials."""
        return QuadPoly(self.c, self.A, -self.B, self.den)

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


def one_poly(c: int) -> QuadPoly:
    return QuadPoly(c, IntPoly((1,)))


def _linear(c: int, a: int, b: int) -> QuadPoly:
    """X + a + b*sqrt(-c)."""
    return QuadPoly(c, IntPoly((a, 1)), IntPoly((b,)))


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


def split_parts(p: QuadPoly) -> tuple[IntPoly, IntPoly]:
    """Split p with Z[sqrt(-c)] coefficients as (A, B) with p = A + B*sqrt(-c)."""
    if p.den != 1:
        raise ValueError(f"coefficients are not in Z[sqrt(-c)]: common denominator {p.den}")
    return p.A, p.B


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


def _closed_forms(c: int, k: int, z: QuadRat, ells: Sequence[int]) -> list[QuadRat]:
    """_alternating_sums(c, P, z, ells) in closed product form, for ascending ells, in one pass.

    The value at ell is (-1)^(k+ell) C(k+ell, ell) / ((z + 2s) (k - 2s - z)^falling_k
    (ell + 2s + z)^falling_ell) with s = sqrt(-c) and P = shift_product_poly(c, k).
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


def _newton_series(c: int, coeffs: Sequence[QuadRat]) -> QuadPoly:
    """sum_ell coeffs[ell] (X - s)...(X - s - ell + 1), s = sqrt(-c), nested: a0 + (X - s)(a1 + ...)."""
    acc = QuadPoly(c)
    for ell in reversed(range(len(coeffs))):
        acc = acc * _linear(c, -ell, -1) + QuadPoly.from_coeffs(c, (coeffs[ell],))
    return acc


class BezoutCertificate(_Record):
    """Integer witness that the content of any value of P divides d.

    Carries the integer split P = A + B*sqrt(-c), d = c * prod_{l=1..k} (l^2 + 4c),
    and the Bezout cofactor alpha as its integer split 2d*alpha = r + s*sqrt(-c),
    tied together by the exact identity r*A - c*s*B = d.
    """

    c: int
    k: int
    A: IntPoly
    B: IntPoly
    r: IntPoly
    s: IntPoly
    d: int

    @property
    def alpha(self) -> QuadPoly:
        """The Bezout cofactor (r + s*sqrt(-c)) / 2d."""
        return QuadPoly(self.c, self.r, self.s, 2 * self.d)

    def verify(self) -> None:
        """Re-check every certificate invariant exactly; raise CertificateError.

        deg r and deg s, so deg alpha, must be at most k.  P = A + B*sqrt(-c) must
        be monic of degree k+1 with the k+1 distinct roots j - sqrt(-c), j = 0..k, which pins it
        down; then d, and the one identity r*A - c*s*B = d.  As 2d*alpha = r + s*sqrt(-c), that
        is d times the Bezout identity alpha*P + conj(alpha)*conj(P) = 1, since
        2d*(alpha*P + conj(alpha)*conj(P)) = 2*(r*A - c*s*B).
        """
        c, k = self.c, self.k
        degree = max(self.r.degree, self.s.degree)
        if degree > k:
            raise CertificateError(f"deg alpha = {degree} exceeds k = {k}")
        p = QuadPoly(c, self.A, self.B)
        if (p.degree != k + 1 or p.leading() != QuadRat(1, 0, c)
                or not all(p.eval(QuadRat(j, -1, c)).is_zero() for j in range(k + 1))):
            raise CertificateError("A, B do not split the shift product polynomial")
        d = content_multiple(c, k)
        if d != self.d:
            raise CertificateError(f"d = {self.d} != c * prod(l^2 + 4c) = {d}")
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
    cert = BezoutCertificate(c=c, k=k, A=p.A, B=p.B, r=r, s=s, d=d)
    cert.verify()
    return cert
