"""The paper's divisor claims at one triple (c, m, n), and the witness a fold carries from triple to triple.

D = prod(k^2+c) / (c (n-m)! prod(l^2+4c)), k = m..n and l = 1..n-m, must
divide L = lcm(m^2+c, ..., n^2+c); the content gcd(A, B) of P = A +
B*sqrt(-c) = prod(k + sqrt(-c)) must divide the multiple c prod(l^2+4c);
and the star witness L*(n-m)!/P must lie in Z[sqrt(-c)].  The claims are
read off (A, B), whose numerator is norm(P) = A^2 + c*B^2 over the
denominator (n-m)! * multiple.

`_divisor_checks` is the direct route: D reduced by one gcd, D | L decided
on the reduced form and the quotient cross-checked on the unreduced one, and
the star witness floored from L*(n-m)!*conj(P)/norm(P), which must satisfy
the star identity.  It is the start of each fold or window and the fallback
of every triple.

Between triples the fold of `bounds.row_checks` and a sweep's
`window.Window` carry the witness instead: D = D_num/D_den in lowest terms,
the quotient q = L/D and the star witness beta = x + y*sqrt(-c).  From one triple
to the next each changes by a small factor.  With u = k^2+c for the term k
that joins at width d, w = d(d^2+4c) and t = u/gcd(u, L), D becomes D*u/w,
q becomes q*t*w/u and the star witness beta*t*d*(k - sqrt(-c))/u (`_grow`);
a window's pop of k is the inverse, with e = u/gcd(u, L') for the L' that
remains (`_shrink`).  D stays in lowest terms by construction: `_times`
cancels g1 = gcd(D_num, w), then g2 = gcd(u, D_den*w/g1), and what is left
of the numerator is prime to what is left of the denominator.  The
divisions of q and of the star witness are floored.  `_carried_checks`
then proves the carried values at each triple with exact products:
q * norm(P) == L * (n-m)! * multiple proves D | L and that q is L/D;
D_den * norm(P) == D_num * (n-m)! * multiple that D_num/D_den is D; x*A -
c*y*B == L*(n-m)! and x*B + y*A == 0 that (x, y) is the star witness.  The
content and the fold's (n-m)!, compared with factorial(n - m) taken afresh
from m and n, are checked as the direct route checks them.  Where no
witness is carried, or a carried value fails its identity, the triple takes
the direct route, whose values and messages stand, byte for byte, and whose
witness is carried on.  The two routes agree wherever the identities hold,
as each identity pins its value down; a carried step costs a few products
of a big integer by a small one instead of a big gcd and three big
divisions.  Nothing here raises on a failed claim: its message is returned.

This is a module apart from `bounds` to keep each source file below 2048
parser tokens: past that, Python 3.11 compiling a module from source
allocates its next 2048 token structs at once, which raised every bound
command's peak RSS by about 0.11 MiB.
"""

from __future__ import annotations

from math import factorial, gcd
from typing import Optional


_CONTENT_FAILURE = "hc_value does not divide hc_bound"
_STAR_FAILURE = "(star_x + star_y*sqrt(-c)) * product != L * (n-m)!"


def _divisor_checks(c: int, m: int, n: int, big_l: int, pair: tuple[int, int], fact: int,
                    multiple: int) -> tuple[tuple, int, int, list[str]]:
    """The divisor values of one triple, its unreduced numerator and denominator, and its failed claims.

    The values are L, D_num, D_den, the quotient L/D (None when it is not an
    integer), the content gcd(A, B), the multiple, and the star witness
    L*(n-m)! * conj(P) / norm(P) floored, so a false claim still gives every value.
    D | L is decided by dividing L * D_den by D_num, the reduced form, and the
    quotient is cross-checked against the unreduced form, quotient * norm(P)
    == L * (n-m)! * multiple.  The star identity reuses the fold's L * (n-m)!,
    and the fold's (n-m)! is itself compared with factorial(n - m).
    """
    a, b = pair
    num, den = a * a + c * b * b, fact * multiple
    g, hc = gcd(num, den), gcd(a, b)
    num_g, den_g = num // g, den // g
    quotient, rem = divmod(big_l * den_g, num_g)
    scaled = big_l * fact
    x, y = scaled * a // num, -scaled * b // num
    bad = []
    if rem:
        quotient = None
        bad.append("L/D is not an integer")
    elif quotient * num != big_l * den:
        bad.append("quotient_check * D != L")
    if multiple % hc:
        bad.append(_CONTENT_FAILURE)
    # (x + y*sqrt(-c)) * (A + B*sqrt(-c)) == L * (n-m)!
    if fact != factorial(n - m) or x * a - c * y * b != scaled or x * b + y * a:
        bad.append(_STAR_FAILURE)
    return (big_l, num_g, den_g, quotient, hc, multiple, x, y), num, den, bad


def _carried_checks(c: int, m: int, n: int, big_l: int, pair: tuple[int, int], fact: int, multiple: int,
                    witness: Optional[tuple]) -> tuple[tuple, int, int, list[str], Optional[tuple]]:
    """What `_divisor_checks` gives for one triple, read off a carried witness where it proves itself, and the witness.

    The witness is (D_num, D_den, quotient, star_x, star_y).  It stands when
    quotient * norm(P) == L * (n-m)! * multiple, D_den * norm(P) == D_num *
    (n-m)! * multiple and the star identity hold; the content and the
    factorial comparison are then checked as `_divisor_checks` checks them.
    A witness that is None or fails an identity gives way to
    `_divisor_checks`, whose values and messages stand, and whose witness is
    carried on unless it has no quotient.
    """
    if witness is not None:
        num_d, den_d, quotient, x, y = witness
        a, b = pair
        num, den, scaled = a * a + c * b * b, fact * multiple, big_l * fact
        if (quotient * num == scaled * multiple and den_d * num == num_d * den
                and x * a - c * y * b == scaled and x * b + y * a == 0):
            hc = gcd(a, b)
            bad = [] if multiple % hc == 0 else [_CONTENT_FAILURE]
            if fact != factorial(n - m):
                bad.append(_STAR_FAILURE)
            return (big_l, num_d, den_d, quotient, hc, multiple, x, y), num, den, bad, witness
    values, num, den, bad = _divisor_checks(c, m, n, big_l, pair, fact, multiple)
    return values, num, den, bad, None if values[3] is None else values[1:4] + values[6:]


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


def _grow(witness: tuple, c: int, k: int, d: int, t: int) -> tuple:
    """The witness after the term u = k^2+c joins at width d and L grows by t = u / gcd(u, L).

    With w = d(d^2+4c), D becomes D*u/w, the quotient q*t*w/u and the star witness beta*t*d*(k - sqrt(-c))/u,
    the last two floored: a division that leaves a remainder gives a value whose identity fails.
    """
    num_d, den_d, quotient, x, y = witness
    u, w, td = k * k + c, d * (d * d + 4 * c), t * d
    return (*_times(num_d, den_d, u, w), quotient * t * w // u, td * (x * k + c * y) // u, td * (y * k - x) // u)


def _shrink(witness: tuple, c: int, k: int, d: int, e: int) -> tuple:
    """The witness after the term u = k^2+c leaves from width d and L shrinks by e = u / gcd(u, L'), L' what remains.

    With w = d(d^2+4c), D becomes D*w/u, the quotient q*u/(e*w) and the star witness beta*(k + sqrt(-c))/(e*d),
    floored as `_grow` floors them.
    """
    num_d, den_d, quotient, x, y = witness
    u, w, ed = k * k + c, d * (d * d + 4 * c), e * d
    return (*_times(num_d, den_d, w, u), quotient * u // (e * w), (x * k - c * y) // ed, (x + y * k) // ed)
