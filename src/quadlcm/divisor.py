"""The state of a window [m, n] of one c, the one rule that steps it, and the one proof of the divisor claims.

D = prod(k^2+c) / (c (n-m)! prod(l^2+4c)), k = m..n and l = 1..n-m, must
divide L = lcm(m^2+c, ..., n^2+c); the content gcd(A, B) of P = A +
B*sqrt(-c) = prod(k + sqrt(-c)) must divide the multiple c prod(l^2+4c);
and the star witness L*(n-m)!/P must lie in Z[sqrt(-c)].  The claims are
read off (A, B), whose numerator is norm(P) = A^2 + c*B^2 over the
denominator (n-m)! * multiple.

The state of a window [m, n] is one tuple, (L, (A, B), multiple, witness).
The witness is (D_num, D_den, quotient, star_x, star_y): D = D_num/D_den in
lowest terms, the quotient q = L/D, None when it is not an integer, and the
star witness beta = x + y*sqrt(-c).  `_witness` builds it from scratch and
checks nothing: D reduced by one gcd, q from divmod(L * D_den, D_num), and
beta floored from L*(n-m)!*conj(P)/norm(P).  (n-m)! is not carried: it
depends on m and n only, and `_divisor_checks` takes factorial(n - m) once
per triple.

`_join` adds the term k at width d, as a row's fold steps down in m and as
a sweep's window pushes n + 1.  With u = k^2+c, t = u/gcd(u, L) from
`_lcm_step`, the one step of L, and w = d(d^2+4c): L becomes L*t, P becomes
P*(k + sqrt(-c)), the multiple becomes multiple*(d^2+4c), D becomes D*u/w,
q becomes q*t*w/u and beta becomes beta*t*d*(k - sqrt(-c))/u.  `_leave` is
its inverse, a window's pop of k, with e = u/gcd(u, L') for the L' that
remains in place of t; it divides with divmod and returns a flag that is
set when a division left a remainder.  D stays in lowest terms by
construction: `_times` cancels g1 = gcd(D_num, w), then g2 = gcd(u,
D_den*w/g1), and what is left of the numerator is prime to what is left of
the denominator.  The steps of q and beta are floored, so a step that
should have been inexact gives a value whose identity fails.  A step costs
a few products of a big integer by a small one instead of a big gcd and
three big divisions.

`_divisor_checks` is the one proof, with f = factorial(n - m).  A witness
stands when its identities hold: q * norm(P) == L * f * multiple proves D |
L and that q is L/D; D_den * norm(P) == D_num * f * multiple that
D_num/D_den is D; x*A - c*y*B == L*f and x*B + y*A == 0 that (x, y) is the
star witness.  Each identity pins its value down, so a witness that stands
is the one `_witness` builds.  Otherwise `_witness` rebuilds it from f, and
the claims the rebuilt witness fails are reported: L/D is not an integer
when the divmod leaves a remainder, the quotient is cross-checked on the
unreduced form, and the star identities are checked again.  Either way the
content gcd(A, B) must divide the multiple.  Nothing here raises on a
failed claim: its message is returned.

This is a module apart from `bounds` to keep each source file below 2048
parser tokens: past that, Python 3.11 compiling a module from source
allocates its next 2048 token structs at once, which raised every bound
command's peak RSS by about 0.11 MiB.
"""

from __future__ import annotations

from math import factorial, gcd


_CONTENT_FAILURE = "hc_value does not divide hc_bound"
_STAR_FAILURE = "(star_x + star_y*sqrt(-c)) * product != L * (n-m)!"


def _witness(c: int, big_l: int, pair: tuple[int, int], multiple: int, fact: int) -> tuple:
    """(D_num, D_den, quotient, star_x, star_y) from scratch, with fact = (n-m)!: one gcd, one divmod and two floors.

    It checks nothing.  The quotient is None when L * D_den leaves a remainder modulo D_num, that is when L/D
    is not an integer.
    """
    a, b = pair
    num, den = a * a + c * b * b, fact * multiple
    g = gcd(num, den)
    num_g, den_g = num // g, den // g
    quotient, rem = divmod(big_l * den_g, num_g)
    scaled = big_l * fact
    return num_g, den_g, None if rem else quotient, scaled * a // num, -scaled * b // num


def _lcm_step(big_l: int, u: int) -> tuple[int, int]:
    """(lcm(L, u), t), t = u / gcd(u, L): the one step of L, for `_join` and the L-only fold of `bounds`."""
    t = u // gcd(u, big_l)
    return big_l * t, t


def _join(state: tuple, c: int, k: int, d: int) -> tuple:
    """The state after the term k joins at width d, every entry stepped as the module docstring says."""
    big_l, (a, b), multiple, (num_d, den_d, quotient, x, y) = state
    u, v = k * k + c, d * d + 4 * c
    big_l, t = _lcm_step(big_l, u)
    w, td = d * v, t * d
    return (big_l, (a * k - c * b, a + b * k), multiple * v,
            (*_times(num_d, den_d, u, w), None if quotient is None else quotient * t * w // u,
             td * (x * k + c * y) // u, td * (y * k - x) // u))


def _leave(state: tuple, c: int, k: int, d: int, e: int) -> tuple[tuple, int]:
    """The state after the term k leaves from width d and L shrinks by e, and the remainders' flag: `_join` undone.

    P is divided by k + sqrt(-c) as P * (k - sqrt(-c)) / (k^2 + c), and the multiple and L by d^2 + 4c
    and e, each with divmod; the flag is nonzero when one of them left a remainder.
    """
    big_l, (a, b), multiple, (num_d, den_d, quotient, x, y) = state
    u, v = k * k + c, d * d + 4 * c
    w, ed = d * v, e * d
    (a, ra), (b, rb) = divmod(a * k + c * b, u), divmod(b * k - a, u)
    (multiple, rm), (big_l, rl) = divmod(multiple, v), divmod(big_l, e)
    return (big_l, (a, b), multiple,
            (*_times(num_d, den_d, w, u), None if quotient is None else quotient * u // (e * w),
             (x * k - c * y) // ed, (x + y * k) // ed)), ra or rb or rm or rl


def _divisor_checks(c: int, m: int, n: int, state: tuple) -> tuple[tuple, int, int, list[str], tuple]:
    """The divisor values of (c, m, n), its unreduced numerator and denominator, its failed claims, and its state.

    The values are L, D_num, D_den, the quotient L/D (None when it is not
    an integer), the content gcd(A, B), the multiple and the star witness,
    read off the state's witness where it stands, and off the one `_witness`
    rebuilds where it does not; the state returned holds the witness read.
    numerator and denominator are norm(P) and (n-m)! * multiple.
    """
    big_l, (a, b), multiple, (num_d, den_d, quotient, x, y) = state
    fact = factorial(n - m)
    num, den, scaled = a * a + c * b * b, fact * multiple, big_l * fact
    bad, star = [], True
    # the witness stands when its identities hold; otherwise the rebuilt one's failed claims are reported
    if not (quotient is not None and quotient * num == big_l * den and den_d * num == num_d * den
            and x * a - c * y * b == scaled and x * b + y * a == 0):
        begun = state[:3]
        state = (*begun, _witness(c, *begun, fact))
        num_d, den_d, quotient, x, y = state[3]
        if quotient is None:
            bad.append("L/D is not an integer")
        elif quotient * num != big_l * den:
            bad.append("quotient_check * D != L")
        # (x + y*sqrt(-c)) * (A + B*sqrt(-c)) == L * (n-m)!
        star = x * a - c * y * b == scaled and x * b + y * a == 0
    hc = gcd(a, b)
    if multiple % hc:
        bad.append(_CONTENT_FAILURE)
    if not star:
        bad.append(_STAR_FAILURE)
    return (big_l, num_d, den_d, quotient, hc, multiple, x, y), num, den, bad, state


def _times(num_d: int, den_d: int, up: int, down: int) -> tuple[int, int]:
    """num_d * up / (den_d * down) in lowest terms, from num_d / den_d in lowest terms and positive up and down.

    g1 = gcd(num_d, down) leaves num_d / g1 prime to den_d * down / g1, and g2 =
    gcd(up, den_d * down / g1) leaves up / g2 prime to what remains of that
    denominator, so the result is in lowest terms.  Each gcd meets a small
    number, up or down, so each costs one pass over the big one.
    """
    g = gcd(num_d, down)
    num_d, down = num_d // g, down // g
    g = gcd(up, den_d % up * down)
    return num_d * (up // g), den_d * down // g
