"""A sweep's sliding window: L, P, (n-m)! and the content multiple of [m, n], moved right row by row.

A push of k = n+1 multiplies P = A + B*sqrt(-c) by k + sqrt(-c), and (n-m)!
and the multiple by d and d^2 + 4c, d = k - m; a pop of m divides them out, P
as P * (m - sqrt(-c)) / (m^2 + c), each checked with divmod: a remainder
raises WindowError, never a silent start over.  L is a queue of q_k = k^2 + c
in two stacks, O(window) memory: the back, k = s..n, is its lcm back_l; the
front, k = m..s-1, is one cofactor r_k = q_k / gcd(q_k, lcm(q_{k+1..s-1})) per
k, so their product front_l is the front's lcm and a pop is front_l // r_m.
An empty front takes the whole back.  Only `sweep` loads this module, and
makes one window before any worker forks.
"""

from math import gcd, lcm

from . import bounds


class WindowError(ArithmeticError):
    """A pop whose exact division left a remainder: the window is not the product of its terms."""


class Window:
    """L, P = A + B*sqrt(-c), (n-m)! and content_multiple(c, n-m) of one window [m, n] of one c."""

    c = None  # no window yet: the first `move` starts over

    def move(self, c: int, m: int, n: int) -> tuple[int, tuple[int, int], int, int]:
        """(L, (A, B), (n-m)!, content_multiple(c, n-m)) at [m, n] of c, as `bounds._row_start` gives them.

        A sweep passes this to `bounds.row_checks` as its rows' start.  A new c, a move left or a jump
        past the window starts over from `bounds._row_start`, the default start, which builds them from
        scratch.
        """
        if c != self.c or m < self.m or n < self.n or m > self.n:
            self.back_l, (self.a, self.b), self.fact, self.multiple = bounds._row_start(c, m, n)
            self.c, self.m, self.n, self.front, self.front_l = c, m, n, [], 1
        for k in range(self.m, m):  # pop k
            d, q = self.n - k, k * k + c
            if not self.front:  # the back moves to the front, newest term first; front_l is 1 here
                for j in range(self.n, k - 1, -1):
                    self.front.append((j * j + c) // gcd(j * j + c, self.front_l))
                    self.front_l *= self.front[-1]
                self.back_l = 1
            # (A + B*sqrt(-c)) * (k - sqrt(-c)) / (k^2 + c)
            (self.a, ra), (self.b, rb) = divmod(self.a * k + c * self.b, q), divmod(self.b * k - self.a, q)
            (self.fact, rf), (self.multiple, rm) = divmod(self.fact, d), divmod(self.multiple, d * d + 4 * c)
            self.front_l, rl = divmod(self.front_l, self.front.pop())
            if ra or rb or rf or rm or rl:
                raise WindowError(f"pop of m={k} from the window [{k}, {self.n}] of c={c} left a remainder")
        for k in range(self.n + 1, n + 1):  # push k
            d = k - m
            self.a, self.b, self.fact = self.a * k - c * self.b, self.a + self.b * k, self.fact * d
            self.multiple, self.back_l = self.multiple * (d * d + 4 * c), lcm(self.back_l, k * k + c)
        self.m, self.n = m, n
        return lcm(self.front_l, self.back_l), (self.a, self.b), self.fact, self.multiple
