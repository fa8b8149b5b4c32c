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
Newton coefficients, the alternating-sum definition of those coefficients,
and the extended Euclidean algorithm on P and conj(P).  The closed-form
vector is built in one pass, one new denominator factor per coefficient.

The module depends on `ring` only: the certificate's d = content_multiple
is an exact ring quantity defined there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial, gcd, lcm
from typing import Sequence

from .ring import QuadRat, RingMismatchError, _check_same_ring, content_multiple


class PoleError(ZeroDivisionError):
    """A denominator factor vanished at the requested evaluation point."""


class NonCoprimeError(ValueError):
    """The two polynomials share a factor of degree >= 1."""


class CertificateError(RuntimeError):
    """A Bezout certificate invariant failed; indicates an implementation bug."""


@dataclass(frozen=True)
class IntPoly:
    """Dense polynomial with integer coefficients, ascending degree, trimmed."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        co = list(self.coeffs)
        while co and not co[-1]:
            co.pop()
        object.__setattr__(self, "coeffs", tuple(co))

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
    vars(poly).update(c=c, A=a, B=b, den=den)
    return poly


@dataclass(frozen=True, init=False)
class QuadPoly:
    """Dense polynomial (A + B*sqrt(-c)) / den over Q(sqrt(-c)), normalised.

    QuadPoly(c, coeffs) builds it from QuadRat coefficients in ascending
    degree; `coeffs` reads them back, each in lowest terms.
    """

    c: int
    A: IntPoly
    B: IntPoly
    den: int

    def __init__(self, c: int, coeffs: Sequence[QuadRat] = ()) -> None:
        for co in coeffs:
            if co.c != c:
                raise RingMismatchError(f"coefficient ring {co.c} != polynomial ring {c}")
        den = lcm(*(f.denominator for co in coeffs for f in (co.a, co.b)))
        vars(self).update(vars(_quad(c, IntPoly([int(co.a * den) for co in coeffs]),
                                     IntPoly([int(co.b * den) for co in coeffs]), den)))

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


def zero_poly(c: int) -> QuadPoly:
    return QuadPoly(c)


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
    binomial = zero_poly(p.c)
    for m in range(order + 1):
        binomial = binomial + p.shift(m).scale((-1) ** (order - m) * comb(order, m))
    if repeated != binomial:
        raise AssertionError("forward-difference routes disagree; arithmetic bug")
    return repeated


def newton_basis(c: int, ell: int) -> QuadPoly:
    """(X - s)(X - s - 1)...(X - s - ell + 1) with s = sqrt(-c); 1 when ell = 0."""
    acc = one_poly(c)
    for j in range(ell):
        acc = acc * _linear(c, -j, -1)
    return acc


def falling(x: QuadRat, n: int) -> QuadRat:
    """Falling factorial x (x-1) ... (x-n+1) in Q(sqrt(-c)); empty product is 1."""
    acc = QuadRat(1, 0, x.c)
    for t in range(n):
        acc = acc * QuadRat(x.a - t, x.b, x.c)
    return acc


def _alternating_sums(c: int, p: QuadPoly, z: QuadRat, ells: Sequence[int]) -> list[QuadRat]:
    """(1/ell!) sum_j (-1)^(ell-j) C(ell, j) / P(z + j + sqrt(-c)) for each ell in ells.

    Each value of P is evaluated once, with an exact zero test (PoleError) before inversion.
    """
    inverses = []
    for j in range(max(ells) + 1):
        val = p.eval(QuadRat(z.a + j, z.b + 1, c))
        if val.is_zero():
            raise PoleError(f"P vanishes at z + {j} + sqrt(-{c})")
        inverses.append(val.inverse())
    out = []
    for ell in ells:
        total = QuadRat(0, 0, c)
        for j in range(ell + 1):
            total = total + inverses[j] * QuadRat((-1) ** (ell - j) * comb(ell, j), 0, c)
        out.append(total * QuadRat(Fraction(1, factorial(ell)), 0, c))
    return out


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
    return _alternating_sums(c, shift_product_poly(c, k), z, [ell])[0]


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


def newton_coeff(c: int, k: int, ell: int) -> QuadRat:
    """Newton forward-difference coefficient of the Bezout cofactor (sum form)."""
    return reciprocal_difference(c, k, ell, QuadRat(0, 0, c))


def newton_coeff_closed(c: int, k: int, ell: int) -> QuadRat:
    """Same coefficient from the closed product formula."""
    return reciprocal_difference_closed(c, k, ell, QuadRat(0, 0, c))


def _newton_series(c: int, coeffs: Sequence[QuadRat]) -> QuadPoly:
    """sum_ell coeffs[ell] * newton_basis(c, ell), one basis factor multiplied in per ell."""
    acc, basis = zero_poly(c), one_poly(c)
    for ell, coeff in enumerate(coeffs):
        acc = acc + basis.scale(coeff)
        basis = basis * _linear(c, -ell, -1)
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
    q, rem = zero_poly(num.c), num
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
    u0, u1 = one_poly(c), zero_poly(c)
    v0, v1 = zero_poly(c), one_poly(c)
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


@dataclass(frozen=True)
class BezoutCertificate:
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

        P = A + B*sqrt(-c) is checked against its definition: monic of degree
        k+1 with the k+1 distinct roots j - sqrt(-c), j = 0..k, which pins it
        down in the field Q(sqrt(-c)).
        """
        c, k = self.c, self.k
        if self.alpha.degree > k:
            raise CertificateError(f"deg alpha = {self.alpha.degree} exceeds k = {k}")
        p = recombine_parts(c, self.A, self.B)
        if (p.degree != k + 1 or p.leading() != QuadRat(1, 0, c)
                or not all(p.eval(QuadRat(j, -1, c)).is_zero() for j in range(k + 1))):
            raise CertificateError("A, B do not split the shift product polynomial")
        if self.alpha * p + self.alpha.conj() * p.conj() != one_poly(c):
            raise CertificateError("alpha*P + conj(alpha)*conj(P) != 1")
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
    product formula and, independently, from alternating sums over the k+1
    values P(j + sqrt(-c)); the two vectors must agree exactly before alpha
    is assembled.  This is the standing defense against sign conventions
    drifting between conjugation and the closed product formula.
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
