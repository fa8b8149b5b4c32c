"""Exact polynomial arithmetic over Q(sqrt(-c)), fraction-free.

A QuadPoly is (A + B*sqrt(-c)) / den, built from exactly these fields: A
and B are IntPoly numerators and den >= 1 is one common denominator, and
construction divides out gcd(den, A_i, B_i), so equality is structural and
the zero polynomial is ((), (), 1).  A QuadPoly is read, not computed with:
its coefficients, degree, leading coefficient and values.  The arithmetic
the certificate needs runs as integer loops in IntPoly and on coefficient
lists.

Builds the monic shift-product polynomials P whose values are the products
(n-k + sqrt(-c)) ... (n + sqrt(-c)), and the unique degree-<=k Bezout
cofactor alpha with alpha*P + conj(alpha)*conj(P) = 1.  Two independent
routes to alpha's Newton coefficients are kept, and their exact agreement is
the module's main correctness check: the closed product formula, built in
one pass, and the alternating-sum definition, read off one
forward-difference table of 1/P.  The extended Euclidean algorithm on P and
conj(P) is a third route, kept in the tests as an oracle.  The certificate
stores alpha only as the integer split 2d*alpha = r + s*sqrt(-c).

The certificate is built in integers: P one linear factor at a time on
integer coefficient lists; each closed-form coefficient from one QuadInt
denominator; the difference table on integer numerators over one common
denominator; alpha in nested Newton form over one common denominator.
Only the Newton coefficients themselves, which the two routes compare,
are QuadRat values.

The module depends on `ring` only: the certificate's d = content_multiple
is an exact ring quantity defined there.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial, gcd, lcm
from typing import Sequence

from .ring import QuadInt, QuadRat, _check_same_ring, _Record, _set, content_multiple


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
    gcd(den, A_i, B_i); QuadPoly(c) is zero.  `coeffs` reads the QuadRat
    coefficients in ascending degree, each in lowest terms.
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

    def __mul__(self, other: QuadPoly) -> QuadPoly:
        # no command multiplies polynomials: this stays because perfbench/tracer.py counts it by name.
        # sqrt(-c) * sqrt(-c) = -c
        _check_same_ring(self, other)
        a1, b1, a2, b2 = self.A, self.B, other.A, other.B
        return QuadPoly(self.c, a1 * a2 - (b1 * b2).scale(self.c), a1 * b2 + b1 * a2,
                        self.den * other.den)

    def eval(self, z: QuadRat) -> QuadRat:
        """Exact Horner evaluation in integers (`_horner`), then one division."""
        a, b, t = self._horner(z)
        return QuadRat(Fraction(a, t), Fraction(b, t), self.c)

    def _horner(self, z: QuadRat) -> tuple[int, int, int]:
        """Integers (a, b, t) with self(z) = (a + b*sqrt(-c)) / t, t = den * e^(deg+1) for z = w/e, by Horner."""
        _check_same_ring(self, z)
        e = lcm(z.a.denominator, z.b.denominator)
        p, q, c = int(z.a * e), int(z.b * e), self.c
        acc_a = acc_b = 0
        power = 1
        for a, b in reversed(list(zip_longest(self.A.coeffs, self.B.coeffs, fillvalue=0))):
            acc_a, acc_b = acc_a * p - c * acc_b * q + a * power, acc_a * q + acc_b * p + b * power
            power *= e
        return acc_a * e, acc_b * e, self.den * power


def _times_linear(c: int, A: list[int], B: list[int], a: int, b: int) -> tuple[list[int], list[int]]:
    """(A + B*s)(X + a + b*s) on ascending integer coefficient lists, s = sqrt(-c): s*s = -c."""
    A1, B1 = A + [0], B + [0]
    return ([x + a * y - c * b * w for x, y, w in zip([0] + A, A1, B1)],
            [x + a * y + b * w for x, y, w in zip([0] + B, B1, A1)])


def shift_product_poly(c: int, k: int) -> QuadPoly:
    """The monic degree-(k+1) polynomial (X + s)(X - 1 + s)...(X - k + s), s = sqrt(-c).

    Its value at an integer n > k is the product
    (n-k + sqrt(-c)) (n-k+1 + sqrt(-c)) ... (n + sqrt(-c)).
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    A, B = [1], [0]
    for j in range(k + 1):
        A, B = _times_linear(c, A, B, -j, 1)
    return QuadPoly(c, IntPoly(A), IntPoly(B))


def _alternating_sums(c: int, p: QuadPoly, z: QuadRat, ells: Sequence[int]) -> list[QuadRat]:
    """(1/ell!) sum_j (-1)^(ell-j) C(ell, j) / P(z + j + sqrt(-c)) for each ell in ells.

    That is Delta^ell f(0) / ell! for f(j) = 1/P(z + j + sqrt(-c)), and Delta^ell f(0) is the
    head of row ell of f's forward-difference table, built by subtractions only.  Each value
    P(z + j + s) = (a + b*s)/t comes from integer Horner, with an exact zero test (PoleError),
    so f(j) = t*(a - b*s)/norm; the table runs on the integer numerators over one common
    denominator, the lcm of the norms, and each head becomes one QuadRat.
    """
    values = []  # (a, b, norm) of each P(z + j + s) = (a + b*s)/t; t is the same at every j
    for j in range(max(ells) + 1):
        a, b, t = p._horner(QuadRat(z.a + j, z.b + 1, c))
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


def _closed_forms(c: int, k: int, z: QuadRat, ells: Sequence[int]) -> list[QuadRat]:
    """_alternating_sums(c, P, z, ells) in closed product form, for ascending ells, in one pass.

    The value at ell is (-1)^(k+ell) C(k+ell, ell) / ((z + 2s) (k - 2s - z)^falling_k
    (ell + 2s + z)^falling_ell) with s = sqrt(-c) and P = shift_product_poly(c, k).
    With z = w/e, each of the k+1+ell factors is an integer pair over e, so the
    denominator is e^-(k+1+ell) times a QuadInt den, built once: (w + 2es) times
    each (e(k - t) - 2es - w), then one factor (e*ell + 2es + w) more per ell.
    Each factor gets an exact zero test (PoleError) before it is multiplied in,
    and each value is the one pair e^(k+1+ell) * (+-C) * conj(den) / norm(den).
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
        num, norm = den.conj(), den.norm()
        scale = (-1) ** (k + ell) * comb(k + ell, ell) * e ** (k + 1 + ell)
        out.append(QuadRat(Fraction(scale * num.a, norm), Fraction(scale * num.b, norm), c))
    return out


def _newton_series(c: int, coeffs: Sequence[QuadRat]) -> QuadPoly:
    """sum_ell coeffs[ell] (X - s)...(X - s - ell + 1), s = sqrt(-c), nested: a0 + (X - s)(a1 + ...).

    Runs on integer numerators over one common denominator, the lcm of the coefficients'.
    """
    den = lcm(*(f.denominator for co in coeffs for f in (co.a, co.b)))
    A, B = [], []
    for ell in reversed(range(len(coeffs))):
        A, B = _times_linear(c, A, B, -ell, -1)
        co = coeffs[ell]
        A[0] += co.a.numerator * (den // co.a.denominator)
        B[0] += co.b.numerator * (den // co.b.denominator)
    return QuadPoly(c, IntPoly(A), IntPoly(B), den)


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
    closed product formula.  2d*alpha must be integral, and its split is
    r + s*sqrt(-c).
    """
    p = shift_product_poly(c, k)
    closed = _closed_forms(c, k, QuadRat(0, 0, c), range(k + 1))
    if closed != _alternating_sums(c, p, QuadRat(0, 0, c), range(k + 1)):
        raise CertificateError("closed-form and sum-form Newton coefficients disagree")
    alpha = _newton_series(c, closed)
    d = content_multiple(c, k)
    scale, rem = divmod(2 * d, alpha.den)
    if rem:  # alpha is in lowest terms, so 2d*alpha is integral exactly when den | 2d
        raise CertificateError(f"2d*alpha is not integral: its denominator {alpha.den} does not divide 2d")
    cert = BezoutCertificate(c=c, k=k, A=p.A, B=p.B, r=alpha.A.scale(scale), s=alpha.B.scale(scale), d=d)
    cert.verify()
    return cert
