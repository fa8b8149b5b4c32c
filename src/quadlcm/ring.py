"""Exact arithmetic in Z[sqrt(-c)] and its fraction field Q(sqrt(-c)).

Elements are stored as a pair of components (a, b) meaning a + b*sqrt(-c),
together with the ring parameter c >= 1.  Every operation is pure and exact;
values from rings with different c never mix silently.
"""

from __future__ import annotations

from operator import attrgetter


class RingMismatchError(ValueError):
    """Raised when operands carry different ring parameters c."""


def _check_same_ring(x, y) -> None:
    if x.c != y.c:
        raise RingMismatchError(f"ring parameters differ: {x.c} != {y.c}")


_set = object.__setattr__  # how an __init__ sets a field past _Record.__setattr__


class _Record:
    """Frozen value semantics, defined once; a class's fields are its own annotations.

    A record is built once from its fields, positionally or by keyword, and
    never assigned to.  Equality (within one class only) and the repr use
    its fields; a record defines no hash, so it is unhashable.
    `__init_subclass__` precomputes the field set and `_key`, an `attrgetter`
    of the fields.  `BezoutCertificate` uses this __init__; `IntPoly`, the
    type built most often, and `QuadInt` and `QuadRat`, which no command
    builds, have their own.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls._fields = tuple(vars(cls).get("__annotations__", cls._fields))
        cls._field_set = frozenset(cls._fields)
        if cls._fields:  # not a descriptor, so `self._key(x)` is the key of any x of this class
            cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        values = vars(self)
        values.update(dict(zip(self._fields, args), **kwargs))  # one dict merged whole: fast attribute reads
        if len(args) + len(kwargs) != len(self._fields) or values.keys() != self._field_set:
            raise TypeError(f"{type(self).__name__} takes exactly the fields {', '.join(self._fields)}")

    def __eq__(self, other):
        return self._key(self) == self._key(other) if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class _Quad(_Record):
    """The arithmetic QuadInt and QuadRat share: a + b*sqrt(-c) with c >= 1.

    Every operation returns an element of the operand's own type, so
    integer parts stay ints and rational parts stay Fractions.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c: int) -> None:
        if c < 1:
            raise ValueError(f"ring parameter c must be >= 1, got {c}")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)

    def __mul__(self, other):
        # no command multiplies elements: this stays because perfbench/tracer.py counts it by name.
        # sqrt(-c) * sqrt(-c) = -c
        _check_same_ring(self, other)
        return type(self)(
            self.a * other.a - self.c * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.c,
        )


class QuadInt(_Quad):
    """An element a + b*sqrt(-c) of Z[sqrt(-c)], with c >= 1."""

    __slots__ = ()
    a: int
    b: int
    c: int


class QuadRat(_Quad):
    """An element a + b*sqrt(-c) of Q(sqrt(-c)) with exact rational components."""

    __slots__ = ()
    a: Fraction
    b: Fraction
    c: int

    def __init__(self, a, b, c: int) -> None:
        # Accept ints so call sites stay readable; Fraction keeps canonical form.  Imported here, so
        # that no command, as none builds a QuadRat, loads `fractions`.
        from fractions import Fraction
        super().__init__(a if isinstance(a, Fraction) else Fraction(a),
                         b if isinstance(b, Fraction) else Fraction(b), c)


def shifted_product(c: int, m: int, n: int) -> tuple[int, int]:
    """(A, B) with A + B*sqrt(-c) = (m + sqrt(-c)) (m+1 + sqrt(-c)) ... (n + sqrt(-c))."""
    if c < 1 or m > n:
        raise ValueError(f"need c >= 1 and m <= n, got c={c}, m={m}, n={n}")
    a, b = 1, 0
    for k in range(m, n + 1):
        # (a + b*sqrt(-c)) * (k + sqrt(-c))
        a, b = a * k - c * b, a + b * k
    return a, b


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
