"""A sweep's sliding window: L, P, (n-m)!, the content multiple and the divisor witness of [m, n].

A push of k = n+1 multiplies P = A + B*sqrt(-c) by k + sqrt(-c), and (n-m)!
and the multiple by d and d^2 + 4c, d = k - m; a pop of m divides them out, P
as P * (m - sqrt(-c)) / (m^2 + c), each checked with divmod: a remainder
raises WindowError, never a silent start over.  L is a queue of q_k = k^2 + c
in two stacks, O(window) memory: the back, k = s..n, is its lcm back_l; the
front, k = m..s-1, is one cofactor r_k = q_k / gcd(q_k, lcm(q_{k+1..s-1})) per
k, so their product front_l is the front's lcm and a pop is front_l // r_m.
An empty front takes the whole back.  The window moves right row by row.

L = lcm(front_l, back_l) itself is carried, so no move takes the lcm of two
big integers: a push multiplies it by t = q_k / gcd(q_k, L), a pop of m
divides it by e = q_m / lcm(gcd(q_m, front_l), gcd(q_m, back_l)), with
front_l already divided by r_m, and an empty front that takes the back sets
it to front_l.  e is q_m / gcd(q_m, L') for the L' that remains, as gcd
distributes over lcm; its division is checked with the others.

The divisor witness (D_num, D_den, quotient, star_x, star_y) of `divisor` is
built from scratch at each start over, by `divisor._carried_checks` with none
to carry, and then carried: a push by `divisor._grow` with t, a pop by
`divisor._shrink` with e.  `bounds.row_checks` proves it at the row's top m,
where a failed identity sends that triple to the direct route.  A start over
whose L/D is not an integer leaves the window without a witness, None, until
its next start over.  Only `sweep` loads this module, and makes one window
before any worker forks.
"""

from math import gcd, lcm
from typing import Optional

from . import bounds, divisor


class WindowError(ArithmeticError):
    """A pop whose exact division left a remainder: the window is not the product of its terms."""


class Window:
    """L, P = A + B*sqrt(-c), (n-m)!, content_multiple(c, n-m) and the divisor witness of a window [m, n] of one c."""

    c = None  # no window yet: the first `move` starts over
    witness = None  # none carried: `bounds.row_checks` builds the top triple's afresh

    def __call__(self, c: int, m: int, n: int) -> tuple[int, tuple[int, int], int, int, Optional[tuple]]:
        """`move`'s values at [m, n] of c and the window's witness: a sweep's start for `bounds.row_checks`."""
        return (*self.move(c, m, n), self.witness)

    def move(self, c: int, m: int, n: int) -> tuple[int, tuple[int, int], int, int]:
        """(L, (A, B), (n-m)!, content_multiple(c, n-m)) at [m, n] of c, as `bounds._row_start` gives them.

        A new c, a move left or a jump past the window starts over from `bounds._row_start`, the default
        start, which builds them from scratch, and the witness with them.
        """
        if c != self.c or m < self.m or n < self.n or m > self.n:
            start = bounds._row_start(c, m, n)
            self.l, (self.a, self.b), self.fact, self.multiple = start
            self.witness = divisor._carried_checks(c, m, n, *start, None)[4]
            self.c, self.m, self.n, self.front, self.front_l, self.back_l = c, m, n, [], 1, self.l
        for k in range(self.m, m):  # pop k
            d, q = self.n - k, k * k + c
            if not self.front:  # the back moves to the front, newest term first; front_l is 1 here
                for j in range(self.n, k - 1, -1):
                    self.front.append((j * j + c) // gcd(j * j + c, self.front_l))
                    self.front_l *= self.front[-1]
                self.l, self.back_l = self.front_l, 1  # L = lcm(front_l, back_l) is the front's lcm
            # (A + B*sqrt(-c)) * (k - sqrt(-c)) / (k^2 + c)
            (self.a, ra), (self.b, rb) = divmod(self.a * k + c * self.b, q), divmod(self.b * k - self.a, q)
            (self.fact, rf), (self.multiple, rm) = divmod(self.fact, d), divmod(self.multiple, d * d + 4 * c)
            self.front_l, rl = divmod(self.front_l, self.front.pop())
            e = q // lcm(gcd(q, self.front_l), gcd(q, self.back_l))
            self.l, re = divmod(self.l, e)
            if ra or rb or rf or rm or rl or re:
                raise WindowError(f"pop of m={k} from the window [{k}, {self.n}] of c={c} left a remainder")
            if self.witness is not None:
                self.witness = divisor._shrink(self.witness, c, k, d, e)
        for k in range(self.n + 1, n + 1):  # push k
            d, q = k - m, k * k + c
            t = q // gcd(self.l, q)
            self.a, self.b, self.fact = self.a * k - c * self.b, self.a + self.b * k, self.fact * d
            self.multiple, self.back_l, self.l = self.multiple * (d * d + 4 * c), lcm(self.back_l, q), self.l * t
            if self.witness is not None:
                self.witness = divisor._grow(self.witness, c, k, d, t)
        self.m, self.n = m, n
        return self.l, (self.a, self.b), self.fact, self.multiple
