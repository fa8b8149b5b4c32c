"""Exact polynomials over Q(sqrt(-c)), and the Bezout certificate in Z[sqrt(-c)].

A QuadPoly is (A + B*sqrt(-c)) / den, built from exactly these fields: A
and B are IntPoly numerators and den >= 1 is one common denominator, and
construction divides out gcd(den, A_i, B_i), so equality is structural and
the zero polynomial is ((), (), 1).  A QuadPoly is read, not computed with:
it holds P.  No command builds a Fraction, QuadRat or QuadPoly reader of
alpha: the JSON document reads it off the integers r, s and 2d.

Builds the monic shift-product polynomials P whose values are the products
(n-k + sqrt(-c)) ... (n + sqrt(-c)), and the certificate of the unique
degree-<=k Bezout cofactor alpha with alpha*P + conj(alpha)*conj(P) = 1: the
integer split 2d*alpha = r + s*sqrt(-c), d = c * prod_{l=1..k} (l^2 + 4c).

With s = sqrt(-c), alpha interpolates f(j) = 1/P(j + s) at the roots j + s,
j = 0..k, of conj(P): alpha = sum_ell a_ell (X - s)(X - s - 1)...(X - s - ell + 1)
with a_ell = Delta^ell f(0) / ell!, whose closed product form is
    a_ell = (-1)^(k+ell) C(k+ell, ell) / (2s prod_{u=1..k} (u - 2s) prod_{u=1..ell} (u + 2s)).
As (u - 2s)(u + 2s) = u^2 + 4c and c/s = -s, that is
    2d * a_ell = (-1)^(k+ell+1) C(k+ell, ell) * s * prod_{u=ell+1..k} (u + 2s),
an element of Z[s].  `_scaled_newton_terms` builds these k+1 integer pairs in
one pass, and `bezout_certificate` nests them into r and s on integer lists.
The independent route is the definition, one integer forward-difference
table of 1/P(j + s), each P(j + s) from integer Horner (`_value`); the two
must agree term by term.  That check is also the proof that alpha's
denominator divides 2d, which a divmod used to test.  No factor u + 2s and
no P(j + s) = prod_t (j - t + 2s) can vanish: each factor has sqrt-part 2.
Both routes at rational points, and the extended Euclidean route, are test
oracles.

The module depends on `ring` only: the certificate's d = content_multiple
is an exact ring quantity defined there.
"""

from __future__ import annotations

from itertools import zip_longest
from math import comb, factorial, gcd, lcm
from typing import Sequence

from .ring import _check_same_ring, _Record, _set, content_multiple


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
    gcd(den, A_i, B_i); QuadPoly(c) is zero.
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

    def __mul__(self, other: QuadPoly) -> QuadPoly:
        # no command multiplies polynomials: this stays because perfbench/tracer.py counts it by name.
        # sqrt(-c) * sqrt(-c) = -c
        _check_same_ring(self, other)
        a1, b1, a2, b2 = self.A, self.B, other.A, other.B
        return QuadPoly(self.c, a1 * a2 - (b1 * b2).scale(self.c), a1 * b2 + b1 * a2,
                        self.den * other.den)


def _times_linear(c: int, A: list[int], B: list[int], a: int, b: int) -> tuple[list[int], list[int]]:
    """(A + B*s)(X + a + b*s) on ascending integer coefficient lists, s = sqrt(-c): s*s = -c."""
    A1, B1 = A + [0], B + [0]
    return ([x + a * y - c * b * w for x, y, w in zip([0] + A, A1, B1)],
            [x + a * y + b * w for x, y, w in zip([0] + B, B1, A1)])


def _value(c: int, A: Sequence[int], B: Sequence[int], x: int, y: int) -> tuple[int, int]:
    """The pair (a, b) with (A + B*s)(x + y*s) = a + b*s, s = sqrt(-c), by integer Horner."""
    a = b = 0
    for u, v in reversed(list(zip_longest(A, B, fillvalue=0))):
        a, b = a * x - c * b * y + u, a * y + b * x + v
    return a, b


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


def _scaled_newton_terms(c: int, k: int) -> list[tuple[int, int]]:
    """The pairs (a, b) of 2d * a_ell = a + b*s, s = sqrt(-c), indexed by ell = 0..k.

    One pass down from ell = k keeps x + y*s = prod_{u=ell+1..k} (u + 2s); the
    term is (-1)^(k+ell+1) C(k+ell, ell) * s * (x + y*s), as the module docstring derives.
    """
    terms, x, y = [], 1, 0
    for ell in range(k, -1, -1):
        t = comb(k + ell, ell) if (k + ell) % 2 else -comb(k + ell, ell)
        terms.append((-c * y * t, x * t))  # s * (x + y*s) = -c*y + x*s
        x, y = x * ell - 2 * c * y, 2 * x + y * ell  # times (ell + 2s)
    return terms[::-1]


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

    def verify(self) -> None:
        """Re-check every certificate invariant exactly; raise CertificateError.

        deg r and deg s, so deg alpha, must be at most k.  P = A + B*sqrt(-c) must be monic of
        degree k+1 (deg A = k+1, leading 1, deg B <= k) with the k+1 distinct roots j - sqrt(-c),
        j = 0..k, which pins it down; then d, and the one identity r*A - c*s*B = d.  As
        2d*alpha = r + s*sqrt(-c), that is d times the Bezout identity alpha*P + conj(alpha)*conj(P) = 1,
        since 2d*(alpha*P + conj(alpha)*conj(P)) = 2*(r*A - c*s*B).
        """
        c, k, A, B = self.c, self.k, self.A.coeffs, self.B.coeffs
        degree = max(self.r.degree, self.s.degree)
        if degree > k:
            raise CertificateError(f"deg alpha = {degree} exceeds k = {k}")
        if (len(A) != k + 2 or A[-1] != 1 or len(B) > k + 1
                or any(_value(c, A, B, j, -1) != (0, 0) for j in range(k + 1))):
            raise CertificateError("A, B do not split the shift product polynomial")
        d = content_multiple(c, k)
        if d != self.d:
            raise CertificateError(f"d = {self.d} != c * prod(l^2 + 4c) = {d}")
        if self.r * self.A - (self.s * self.B).scale(c) != IntPoly((d,)):
            raise CertificateError("r*A - c*s*B != d")


def bezout_certificate(c: int, k: int) -> BezoutCertificate:
    """Build the certificate for parameters (c, k) and verify it once.

    The integer terms 2d * a_ell are checked against the difference table of
    f(j) = 1/P(j + s): each P(j + s) = a + b*s gives f(j) = (a - b*s)/norm, the table runs
    on the integer numerators over den, the lcm of the norms, and 2d times its head at ell
    must equal the term times den * ell!.  The terms then nest, for ell = k..0, as
    2d * a_ell plus (X - s - ell) times the inner sum.
    """
    p = shift_product_poly(c, k)
    d = content_multiple(c, k)
    terms = _scaled_newton_terms(c, k)
    values = [_value(c, p.A.coeffs, p.B.coeffs, j, 1) for j in range(k + 1)]
    norms = [a * a + c * b * b for a, b in values]
    den = lcm(*norms)
    row = [(a * (den // norm), -b * (den // norm)) for (a, b), norm in zip(values, norms)]
    for ell, (ta, tb) in enumerate(terms):
        (ha, hb), scale = row[0], den * factorial(ell)
        if 2 * d * ha != ta * scale or 2 * d * hb != tb * scale:
            raise CertificateError("closed-form and sum-form Newton coefficients disagree")
        row = [(a1 - a0, b1 - b0) for (a0, b0), (a1, b1) in zip(row, row[1:])]
    r, s = [], []
    for ell in range(k, -1, -1):
        r, s = _times_linear(c, r, s, -ell, -1)
        r[0] += terms[ell][0]
        s[0] += terms[ell][1]
    cert = BezoutCertificate(c=c, k=k, A=p.A, B=p.B, r=IntPoly(r), s=IntPoly(s), d=d)
    cert.verify()
    return cert
