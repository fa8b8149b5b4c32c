"""Fixed-point logs: one integer log engine, the floored sources built on it, and their printer.

Logs are fixed-point integers: v stands for v / 2^128, and each carries an
error bound e in units of 2^-128, meaning |v - 2^128 * x| <= e for the true
log x.  One integer engine computes every log at 2^-192, 64 guard bits
below that scale; its error budget, in units u = 2^-192:

* `_engine` sums ln 2 = 2 atanh(1/3), pi = 16 atan(1/5) - 4 atan(1/239)
  and the table log(1 + i/256), i < 256, at 2^-208, each term within 2
  units there, and floors them: ln 2 within 1.01 u, pi within 1.03 u and
  each table entry, a running sum of 255 series, within 2 u.
* `_ln(x, shift)` = log(x / 2^shift), k = x.bit_length() - 1: the floored
  mantissa (1 u), s floored (2.01 u), at most 11 series terms each within
  1.34 u (30.2 u doubled, with the tail) and the table entry (2 u) give
  36 u; the term (k - shift) ln 2 adds 1.01 |k - shift| u.
* A source is an engine value floored to 2^-128, so within 1 + (its engine
  error) / 2^64 units of 2^-128, which is within _E = 2 while that error is
  below 2^64 u: log x of each x of fewer than 2^63 bits (log j, and log L
  once per triple); log 2, log 0.32 = 3 log 2 - 2 log 5 and log 1.442 =
  log 721 - log 500, within 120 u; the prefactor logs of each c, within
  5.4c + log2(c) + 140 u (the pi^2 c term is within 5.4c + 1 u), so for
  c < C_LIMIT = 2^61, which `_log_consts` enforces.  Each is computed once
  per process.
* log k! is the prefix sum of the floored log j, within 2k.

`bounds` builds and checks every bound from these sources.  This is a module
of its own so that `bezout`, which prints no log, never compiles it, and so
that no module passes 2048 parser tokens, past which, with no cached
bytecode, a launch's peak memory rose.  C_LIMIT lives in the package's
`__init__`, where `bezout` reads it too.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from math import log

from . import C_LIMIT

PRECISION_BITS = 128  # fixed-point scale: the int v stands for the log v / 2^128
_GUARD = 64  # guard bits of the log engine over PRECISION_BITS
_W = PRECISION_BITS + _GUARD  # the log engine's scale: its int v stands for v / 2^192
_TABLE_GUARD = 16  # extra bits at which the engine's constants are summed before flooring
_E = 2  # error bound of one floored source, in units of 2^-128


# Floored sources of the log tables: _LOG_INT[j] = floor(2^128 log j) for
# j >= 1 and _LOG_FACT[k] = _LOG_INT[1] + ... + _LOG_INT[k].  Index 0 of
# _LOG_INT is a placeholder; log 0 is never read.  Entries are only ever
# appended, under _LOG_LOCK, so a reader indexing below a length it has
# seen needs no lock.
_LOG_INT: list[int] = [0, 0]
_LOG_FACT: list[int] = [0, 0]
_LOG_LOCK = threading.Lock()


def _arc_series(q: int, sign: int, bits: int) -> int:
    """atanh(1/q) (sign 1) or atan(1/q) (sign -1) for an integer q >= 3 at scale 2^bits, each term floored."""
    power, q2 = (1 << bits) // q, q * q
    total, j, term_sign = 0, 1, 1
    while power:
        total += term_sign * (power // j)
        power //= q2
        j += 2
        term_sign *= sign
    return total


@lru_cache(maxsize=None)
def _engine() -> tuple[int, int, tuple[int, ...]]:
    """ln 2, pi and log(1 + i/256) for i = 0..255 at scale 2^_W; built on the first log.

    The table is the running sum of log((a+1)/a) = 2 atanh(1/(2a+1)), a = 256..510.
    """
    bits = _W + _TABLE_GUARD
    table = [0]
    for a in range(256, 511):
        table.append(table[-1] + 2 * _arc_series(2 * a + 1, 1, bits))
    ln2 = 2 * _arc_series(3, 1, bits)
    pi = 16 * _arc_series(5, -1, bits) - 4 * _arc_series(239, -1, bits)
    return ln2 >> _TABLE_GUARD, pi >> _TABLE_GUARD, tuple(v >> _TABLE_GUARD for v in table)


def _ln(x: int, shift: int = 0) -> int:
    """log(x / 2^shift) for an integer x >= 1 at scale 2^_W, within 36 + 1.01 |k - shift| units.

    log x = k log 2 + log(a/256) + 2 atanh(s), with k = x.bit_length() - 1,
    a/256 <= y = x / 2^k < (a+1)/256 and s = (y - a/256) / (y + a/256) < 2^-9.
    """
    ln2, _, table = _engine()
    k = x.bit_length() - 1
    y = x << (_W - k) if k <= _W else x >> (k - _W)  # the mantissa at scale 2^_W, floored
    a = y >> (_W - 8)
    point = a << (_W - 8)  # a / 256 at scale 2^_W
    s = ((y - point) << _W) // (y + point)
    s2, power, total, j = s * s >> _W, s, s, 3
    while power:
        power = power * s2 >> _W
        total += power // j
        j += 2
    return (k - shift) * ln2 + table[a - 256] + 2 * total


def _log_fixed(x: int) -> int:
    """floor(2^128 * log x) for an integer x >= 1, within _E."""
    return _ln(x) >> _GUARD


def _extend_logs(k: int) -> None:
    """Grow _LOG_INT and _LOG_FACT through index k."""
    if len(_LOG_FACT) <= k:  # _LOG_FACT is appended last
        with _LOG_LOCK:
            while len(_LOG_INT) <= k:
                v = _log_fixed(len(_LOG_INT))
                _LOG_INT.append(v)
                _LOG_FACT.append(_LOG_FACT[-1] + v)


@lru_cache(maxsize=None)
def _fixed_consts() -> tuple[int, int, int]:
    """Fixed-point log 2, log 0.32 = 3 log 2 - 2 log 5 and log 1.442 = log 721 - log 500, each within _E."""
    ln2 = _ln(2)
    return tuple(v >> _GUARD for v in (ln2, 3 * ln2 - 2 * _ln(5), _ln(721) - _ln(500)))


@lru_cache(maxsize=None)
def _log_consts(c: int) -> tuple[int, int, int]:
    """Fixed-point logs of the factorial, exponential and frontier prefactors for one c, each within _E.

    They are e^(-2 pi^2 c/3) / c, e^(-2 pi^2 c/3 - 5/12) / ((2 pi)^(3/2) c) and
    e^(-2 pi^2 c/3 - 5/12) / (pi^(3/2) c), whose logs are sums.  Raises
    ValueError for c >= C_LIMIT, where the error budget no longer holds.
    """
    if c >= C_LIMIT:
        raise ValueError(f"need c < 2^61, where the prefactor logs are certified, got {c}")
    pi = _engine()[1]
    log_pi = _ln(pi, _W)
    base = -(2 * c * (pi * pi >> _W)) // 3 - _ln(c)
    tail = base - (5 << _W) // 12
    return tuple(v >> _GUARD for v in (base, tail - 3 * (_ln(2) + log_pi) // 2, tail - 3 * log_pi // 2))


_LOG2_10 = log(10, 2)  # a float on purpose: see _log_str


def _scale(bits: int) -> tuple:
    """`_log_str`'s scale for an |x| of `bits` bits, below PRECISION_BITS + 70.

    (a, 10^fixdps, b, ten, low, high): N = (x >> a) * 10^fixdps >> b is |x| floored to 69 bits, times
    10^fixdps / 2^fixprec, floored, in one shift when no bit is floored off.  That mantissa lies in
    [2^68, 2^69), so N has one of two digit counts, the larger one exactly when N >= ten; `low` and `high`
    are (10^(digits - 15), half of it, the decimal exponent) for each.
    """
    fixprec = PRECISION_BITS + 69 - bits
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    power = 10**fixdps
    digits = len(str((power << 68) >> fixprec))  # of the least N
    unit = 10 ** (digits - 15)
    return (max(bits - 69, 0), power, fixprec - max(69 - bits, 0), unit * 10**15,
            (unit, unit // 2, digits - fixdps - 1), (unit * 10, unit * 5, digits - fixdps))


_SCALES = [_scale(bits) for bits in range(PRECISION_BITS + 70)]


def _log_str(v: int) -> str:
    """The fixed-point log v / 2^128 as a decimal with 15 significant digits, as mpmath.nstr prints it.

    mpmath's `to_str(x, 15)` in integers only: |x| floored to 69 significant
    bits (mpmath's working precision for 18 digits; its decimal count uses
    log2(10) as a float, as mpmath's to_digits_exp does), then to a decimal
    integer N, rounded half-up at its 16th digit with the carry through a
    run of 9s; fixed notation for decimal exponents -4..14, `e` notation
    otherwise; trailing zeros stripped.  Equal to mpmath's string for every
    |x| below 2^3500, beyond which mpmath first divides by a power of ten.
    The scale depends only on the bit length of |x|: `_SCALES` holds it, in
    198 entries, with N's digit count decided by one comparison; from
    PRECISION_BITS + 69 = 197 bits on fixprec is 0, and N, the integer part
    of |x|, has as many digits as its string.
    """
    if v == 0:
        return "0.0"
    sign, x = ("-", -v) if v < 0 else ("", v)
    bits = x.bit_length()
    if bits < len(_SCALES):
        a, power, b, ten, low, high = _SCALES[bits]
        n = (x >> a) * power >> b
        unit, half, exponent = high if n >= ten else low
    else:
        n = x >> PRECISION_BITS
        exponent = len(str(n)) - 1
        unit = 10 ** (exponent - 14)
        half = unit // 2
    digits = str((n + half) // unit)
    if len(digits) > 15:  # 999...9 carried into a new leading digit
        digits = digits[:15]
        exponent += 1
    if -5 < exponent < 15:
        if exponent < 0:
            digits = "0." + "0" * (-exponent - 1) + digits
        else:
            digits = digits[:exponent + 1] + "." + digits[exponent + 1:]
        exponent = 0
    else:
        digits = digits[0] + "." + digits[1:]
    digits = digits.rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    return sign + digits if exponent == 0 else f"{sign}{digits}e{exponent:+d}"
