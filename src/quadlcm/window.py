"""A row's start: the state of `divisor` at [m, n], built from scratch or slid right row by row.

The state is (L, (A, B), multiple, witness); (n-m)! is not in it, as the
proof takes factorial(n - m) once per triple.  `_start`, `verify`'s start,
builds it from scratch, and `Window.move`, a sweep's, slides it.  A push of
k = n+1 steps it by `divisor._join` at width k - m, the step a row's fold
takes down in m; a pop of m undoes one by `divisor._leave` at width n - m,
whose every division is a divmod: a remainder raises WindowError, never a
silent start over.

The window keeps only what a pop of L needs, the queue of q_k = k^2 + c in
two stacks, O(window) memory: the back, k = s..n, is its lcm back_l; the
front, k = m..s-1, is one cofactor r_k = q_k / gcd(q_k, lcm(q_{k+1..s-1}))
per k, so their product front_l is the front's lcm and a pop is front_l //
r_m.  An empty front takes the whole back, whose lcm is then L itself.  No
move takes the lcm of two big integers: a push multiplies L by t = q_k /
gcd(q_k, L), a pop divides it by e = q_m / lcm(gcd(q_m, front_l), gcd(q_m,
back_l)), with front_l already divided by r_m.  e is q_m / gcd(q_m, L') for
the L' that remains, as gcd distributes over lcm; its division is checked
with the others.

The witness that a start over builds is carried by every push and pop;
`bounds.row_checks` proves it at the row's top m, where one that fails its
identities is rebuilt for that triple.  `sweep` and `verify` load this
module; a sweep makes one window before any worker forks.  `_start` looks
its builders up on their modules, so a wrapper set there wraps them here.
"""

from math import factorial, gcd, lcm

from . import bounds, divisor, ring


def _start(c: int, m: int, n: int) -> tuple:
    """The state of `divisor` at (c, m, n) from scratch: (L, (A, B), content_multiple(c, n-m), witness)."""
    begun = bounds.lcm_range(c, m, n), ring.shifted_product(c, m, n), ring.content_multiple(c, n - m)
    return (*begun, divisor._witness(c, *begun, factorial(n - m)))


class WindowError(ArithmeticError):
    """A pop whose exact division left a remainder: the window is not the product of its terms."""


class Window:
    """The state of `divisor` at a window [m, n] of one c, and the queue that pops its L."""

    c = None  # no window yet: the first `move` starts over

    def move(self, c: int, m: int, n: int) -> tuple:
        """The state at [m, n] of c, as `_start` gives it: a sweep's start for `bounds.row_checks`.

        A new c, a move left or a jump past the window starts over from `_start`.
        """
        if c != self.c or m < self.m or n < self.n or m > self.n:
            self.state = _start(c, m, n)
            self.c, self.m, self.n, self.front, self.front_l, self.back_l = c, m, n, [], 1, self.state[0]
        state = self.state
        for k in range(self.m, m):  # pop k
            if not self.front:  # the back moves to the front, newest term first; front_l is 1 here
                for j in range(self.n, k - 1, -1):
                    self.front.append((j * j + c) // gcd(j * j + c, self.front_l))
                    self.front_l *= self.front[-1]
                self.back_l = 1
            q = k * k + c
            self.front_l, rl = divmod(self.front_l, self.front.pop())
            state, rem = divisor._leave(state, c, k, self.n - k, q // lcm(gcd(q, self.front_l), gcd(q, self.back_l)))
            if rem or rl:
                raise WindowError(f"pop of m={k} from the window [{k}, {self.n}] of c={c} left a remainder")
        for k in range(self.n + 1, n + 1):  # push k
            state, self.back_l = divisor._join(state, c, k, k - m), lcm(self.back_l, k * k + c)
        self.state, self.m, self.n = state, m, n
        return state
