"""Command-line front end: verify, sweep, bezout, table.

Exit codes: 0 all checks pass, 1 usage or configuration error (or an input
past a limit, a sweep worker that raised or died, a failed sweep window, or
an output that cannot be written), 2 a mathematical invariant failed, in a
record or in a Bezout certificate, 130 interrupted (SIGINT).  `sweep` and
`table` work row by row, a row being one (c, n) with the m its command
wants: one writer turns a row into its lines and its VIOLATION lines, and
one loop writes them and exits 2 if there were any VIOLATION lines.  With
--parallelism p above 1, p forked workers (at most 64, at most one per row)
take rows w, w+p, w+2p, ... each and write each row's text to their own
pipe; the parent reads the pipes round-robin, and a full pipe blocks its
worker.  So the output is in (c, n, m) lexicographic order and
byte-identical for a given configuration at any parallelism level.
`verify`, `sweep` and `table` take c < 2^61, the range in which the log
bounds are certified, and n <= 10^6 (`verify --n`, `sweep --n-max`, `table
--n-max`), past which a run would first spend minutes growing its log
table; `verify` takes n - m <= 2*10^4, as its work grows about as
(n - m)^2.1; `bezout` takes c < 2^61, the same cap, and k <= 500.

`bezout` runs in this module and `verify`, `sweep` and `table` in
`quadlcm.rows`, loaded after argument parsing, so that a launch compiles
only its own command's code.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from itertools import zip_longest
from math import gcd
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, TextIO

from . import C_LIMIT

if TYPE_CHECKING:
    from .poly import BezoutCertificate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

_MAX_PARALLELISM = 64  # every worker forks before the first row; the output is the same at any parallelism
_MAX_BEZOUT_K = 500  # `bezout --k 500` takes 7-9 s end to end on a 2-vCPU host, and the time grows about as k^4

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


class UsageError(Exception):
    pass


class RunError(Exception):
    """An input past a limit, or a sweep worker that raised or died; reported in one line with exit 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad input; the contract reserves 2 for
    # mathematical violations, so route everything through UsageError.
    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def __getattr__(name: str):
    """`fmt_log`, the printer of a fixed-point log (v / 2^128) as 15 significant digits, loaded on first use.

    It is `fixedlog._log_str`, under the one name that every printed log goes through and that a caller may
    wrap or replace; `bezout` never loads the log engine.
    """
    if name != "fmt_log":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .fixedlog import _log_str
    globals()[name] = _log_str  # later lookups find it, or what was set in its place, without this hook
    return _log_str


def js_int(v: int):
    """Integers beyond 64-bit become strings so JSON consumers stay lossless."""
    return v if _INT64_MIN <= v <= _INT64_MAX else str(v)


def certificate_to_json(cert: BezoutCertificate) -> dict:
    # the zero polynomial serializes as [0], not []
    def ints(coeffs):
        return [js_int(v) for v in coeffs] if coeffs else [0]

    two_d = 2 * cert.d

    def part(v):  # v / 2d in lowest terms, sign on the numerator, as Fraction(v, 2d) has it
        g = gcd(v, two_d)
        return js_int(v // g), js_int(two_d // g)

    # alpha = (r + s*sqrt(-c)) / 2d, each coefficient [a_num, a_den, b_num, b_den]
    alpha = [[*part(a), *part(b)]
             for a, b in zip_longest(cert.r.coeffs, cert.s.coeffs, fillvalue=0)] or [[0, 1, 0, 1]]
    return {
        "c": cert.c,
        "k": cert.k,
        "d": js_int(cert.d),
        "alpha": alpha,
        "r": ints(cert.r.coeffs),
        "s": ints(cert.s.coeffs),
        "A": ints(cert.A.coeffs),
        "B": ints(cert.B.coeffs),
    }


def _json_text(value, margin: str = "\n") -> str:
    """`json.dumps(value, indent=2)` of a `certificate_to_json` document, so that `bezout` never loads `json`.

    Its values are ints, decimal strings, and non-empty dicts and lists of them; no string needs escaping.
    """
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, int):
        return str(value)
    inner = margin + "  "
    if isinstance(value, dict):
        return "{" + ",".join(f'{inner}"{key}": {_json_text(v, inner)}' for key, v in value.items()) + margin + "}"
    return "[" + ",".join(inner + _json_text(v, inner) for v in value) + margin + "]"


def cmd_bezout(args) -> int:
    _require(args.c >= 1, f"need c >= 1, got {args.c}")
    _require(args.c < C_LIMIT, f"need c < 2^61, got {args.c}", RunError)
    _require(args.k >= 0, f"need k >= 0, got {args.k}")
    _require(args.k <= _MAX_BEZOUT_K, f"need k <= {_MAX_BEZOUT_K}, got {args.k}", RunError)
    from .poly import CertificateError, bezout_certificate  # only bezout pays for loading poly
    try:
        cert = bezout_certificate(args.c, args.k)
    except CertificateError as exc:
        print(f"VIOLATION at (c,k)={(args.c, args.k)}: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    with _open_out(args.out) as out:  # only a certificate that passed opens --out
        out.write(_json_text(certificate_to_json(cert)) + "\n")
    return EXIT_OK


def _require(cond: bool, message: str, error: type[Exception] = UsageError) -> None:
    if not cond:
        raise error(message)


@contextmanager
def _open_out(target: Optional[str]) -> Iterator[TextIO]:
    """--out <path|stdout>; never closes stdout, but flushes it so a reader that left is reported here."""
    if target in (None, "stdout", "-"):
        try:
            yield sys.stdout
            sys.stdout.flush()
        except BrokenPipeError:
            # what is still buffered cannot reach the reader: spare the exit flush a second failure
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise
    else:
        with open(target, "w", newline="") as handle:
            yield handle


def build_parser() -> _Parser:
    parser = _Parser(prog="quadlcm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check one (c, m, n) triple and print JSON")
    p_verify.add_argument("--c", type=int, required=True)
    p_verify.add_argument("--m", type=int, required=True, help="at least n - 2*10^4")
    p_verify.add_argument("--n", type=int, required=True, help="at most 10^6")
    p_verify.add_argument("--out", default="stdout")

    p_sweep = sub.add_parser("sweep", help="verify a grid of triples, CSV or JSON lines")
    p_sweep.add_argument("--c-min", type=int, required=True)
    p_sweep.add_argument("--c-max", type=int, required=True)
    p_sweep.add_argument("--n-min", type=int, required=True)
    p_sweep.add_argument("--n-max", type=int, required=True, help="at most 10^6")
    p_sweep.add_argument("--m-policy", default="all",
                         help="all | half_ceil | fixed:<m> | frontier")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--parallelism", type=int, default=1,
                         help=f"worker processes, at most {_MAX_PARALLELISM}")
    p_sweep.add_argument("--out", default="stdout")

    p_bezout = sub.add_parser("bezout", help="emit the certificate for (c, k) as JSON")
    p_bezout.add_argument("--c", type=int, required=True, help="below 2^61")
    p_bezout.add_argument("--k", type=int, required=True, help=f"at most {_MAX_BEZOUT_K}")
    p_bezout.add_argument("--out", default="stdout")

    p_table = sub.add_parser("table", help="bound tightness ratios log(bound)/log(L), CSV")
    p_table.add_argument("--c", type=int, required=True)
    p_table.add_argument("--n-max", type=int, required=True, help="at most 10^6")
    p_table.add_argument("--out", default="stdout")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # exact integers are emitted in full; lifted after parsing, which it still guards
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)
        if args.command == "bezout":
            return cmd_bezout(args)
        from . import rows  # after parsing, so that a `bezout` launch never compiles the row commands
        return getattr(rows, f"cmd_{args.command}")(args)
    except UsageError as exc:
        msg = str(exc)
        if "usage:" not in msg:
            msg = f"{parser.prog}: error: {msg}\n{parser.format_usage()}"
        print(msg, file=sys.stderr)
        return EXIT_USAGE
    except (OSError, RunError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:  # a parallel sweep's workers are already killed and reaped
        print(f"{parser.prog}: error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
