"""Exact arithmetic in Z[sqrt(-c)] and its fraction field Q(sqrt(-c)).

Elements are stored as a pair of components (a, b) meaning a + b*sqrt(-c),
together with the ring parameter c >= 1.  Every operation is pure and exact;
values from rings with different c never mix silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence


class RingMismatchError(ValueError):
    """Raised when operands carry different ring parameters c."""


class InexactDivisionError(ArithmeticError):
    """Raised when a claimed exact division leaves a non-integral component."""


class DivisibilityHypothesisError(ValueError):
    """Raised when the divisibility hypotheses of ``product_divides_ab`` fail."""


def _check_same_ring(x, y) -> None:
    if x.c != y.c:
        raise RingMismatchError(f"ring parameters differ: {x.c} != {y.c}")


class _Quad:
    """The arithmetic QuadInt and QuadRat share: a + b*sqrt(-c) with c >= 1.

    Every operation returns an element of the operand's own type, so
    integer parts stay ints and rational parts stay Fractions.
    """

    def __post_init__(self) -> None:
        if self.c < 1:
            raise ValueError(f"ring parameter c must be >= 1, got {self.c}")

    def __add__(self, other):
        _check_same_ring(self, other)
        return type(self)(self.a + other.a, self.b + other.b, self.c)

    def __sub__(self, other):
        _check_same_ring(self, other)
        return type(self)(self.a - other.a, self.b - other.b, self.c)

    def __neg__(self):
        return type(self)(-self.a, -self.b, self.c)

    def __mul__(self, other):
        # sqrt(-c) * sqrt(-c) = -c
        _check_same_ring(self, other)
        return type(self)(
            self.a * other.a - self.c * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.c,
        )

    def conj(self):
        """a + b*sqrt(-c) -> a - b*sqrt(-c)."""
        return type(self)(self.a, -self.b, self.c)

    def norm(self):
        """Squared complex modulus a^2 + c*b^2; multiplicative."""
        return self.a * self.a + self.c * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


@dataclass(frozen=True)
class QuadInt(_Quad):
    """An element a + b*sqrt(-c) of Z[sqrt(-c)], with c >= 1."""

    a: int
    b: int
    c: int

    def __str__(self) -> str:
        return f"{self.a}{self.b:+}√-{self.c}"


@dataclass(frozen=True)
class QuadRat(_Quad):
    """An element a + b*sqrt(-c) of Q(sqrt(-c)) with exact rational components."""

    a: Fraction
    b: Fraction
    c: int

    def __post_init__(self) -> None:
        super().__post_init__()
        # Accept ints so call sites stay readable; Fraction keeps canonical form.
        if not isinstance(self.a, Fraction):
            object.__setattr__(self, "a", Fraction(self.a))
        if not isinstance(self.b, Fraction):
            object.__setattr__(self, "b", Fraction(self.b))

    def inverse(self) -> QuadRat:
        """1 / (a + b*sqrt(-c)) = (a - b*sqrt(-c)) / (a^2 + c*b^2)."""
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return QuadRat(self.a / n, -self.b / n, self.c)

    def __str__(self) -> str:
        return f"{self.a}{'+' if self.b >= 0 else ''}{self.b}√-{self.c}"


def content(z: QuadInt) -> int:
    """gcd of the two components of a nonzero element; gcd(0, t) = |t|."""
    if z.is_zero():
        raise ValueError("content is undefined at zero")
    return gcd(z.a, z.b)


def divisibility_criterion(z: QuadInt) -> int:
    """The positive integer norm(z) / content(z).

    An integer N is a multiple of z in Z[sqrt(-c)] exactly when this
    integer divides N.  The quotient is always integral because gcd(a, b)
    divides a^2 + c*b^2 componentwise.
    """
    return z.norm() // content(z)


def is_multiple(n: int, z: QuadInt) -> bool:
    """Whether the rational integer n is a multiple of z in Z[sqrt(-c)]."""
    return n % divisibility_criterion(z) == 0


def divide_exact(w: QuadInt, z: QuadInt) -> QuadInt:
    """Return q with q*z = w, or raise InexactDivisionError.

    Computed as w * conj(z) / norm(z) with both rational components
    required to be integers.
    """
    _check_same_ring(w, z)
    if z.is_zero():
        raise ZeroDivisionError("division by zero in Z[sqrt(-c)]")
    num = w * z.conj()
    n = z.norm()
    qa, ra = divmod(num.a, n)
    qb, rb = divmod(num.b, n)
    if ra or rb:
        raise InexactDivisionError(f"{w} is not an exact multiple of {z}")
    return QuadInt(qa, qb, w.c)


def shifted_product(c: int, m: int, n: int) -> QuadInt:
    """The product (m + sqrt(-c)) (m+1 + sqrt(-c)) ... (n + sqrt(-c))."""
    if m > n:
        raise ValueError(f"need m <= n, got m={m}, n={n}")
    a, b = 1, 0
    for k in range(m, n + 1):
        # (a + b*sqrt(-c)) * (k + sqrt(-c))
        a, b = a * k - c * b, a + b * k
    return QuadInt(a, b, c)


def content_multiple(c: int, k: int) -> int:
    """c * prod_{l=1..k} (l^2 + 4c).

    A multiple of the content of every product of k+1 consecutive factors
    (n + sqrt(-c)); the Bezout certificate of poly is the proof.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    out = c
    for ell in range(1, k + 1):
        out *= ell * ell + 4 * c
    return out


def product_divides_ab(u: Sequence[QuadInt], a: QuadInt, b: QuadInt) -> bool:
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
        _check_same_ring(ui, a)
        try:
            divide_exact(a, ui)
        except InexactDivisionError:
            raise DivisibilityHypothesisError(f"u[{i}]={ui} does not divide a={a}") from None
        diff = QuadInt(1, 0, a.c)
        for j, uj in enumerate(u):
            if j != i:
                diff = diff * (ui - uj)
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
