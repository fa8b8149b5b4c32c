"""Command-line front end: verify, sweep, bezout, table.

Exit codes: 0 all checks pass, 1 usage or configuration error (or an input
past a limit, a sweep worker that raised or died, a failed sweep window, or
an output that cannot be written), 2 a mathematical invariant failed, in a
record or in a Bezout certificate, 130 interrupted (SIGINT).  `sweep` and
`table` work row by row: one formatter per command turns a row into one
record (text, violation text), and one loop writes the records and exits 2
if any violation text is non-empty.  A sweep row (c, n) is one fold over m
that computes every m the --m-policy wants in that row, from its process's
`window.Window`.  With --parallelism p above 1, p forked workers (at most
64, at most one per row) take rows w, w+p, w+2p, ... each, slide their own
copy of the window and write each row's record to their own pipe; the
parent reads the pipes round-robin, and a full pipe blocks its worker.  So
the output is in (c, n, m) lexicographic order and byte-identical for a
given configuration at any parallelism level.  `verify`, `sweep` and `table`
take c < 2^61, the range in which the log bounds are certified; `bezout`
takes k <= 500.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, TextIO

from .fixedlog import C_LIMIT, PRECISION_BITS
from .fixedlog import _log_str as fmt_log  # a fixed-point log (v / 2^128) as 15 significant digits

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

_TRIPLE_COLUMNS = ("c", "m", "n", "L", "D_num", "D_den", "quotient", "hc", "hc_bound", "star_x", "star_y", "logL")
_LOG_CELL = _TRIPLE_COLUMNS.index("logL")  # the integers come before it, the fixed-point logs from it on


class UsageError(Exception):
    pass


class RunError(Exception):
    """An input past a limit, or a sweep worker that raised or died; reported in one line with exit 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad input; the contract reserves 2 for
    # mathematical violations, so route everything through UsageError.
    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def js_int(v: int):
    """Integers beyond 64-bit become strings so JSON consumers stay lossless."""
    return v if _INT64_MIN <= v <= _INT64_MAX else str(v)


def sweep_columns() -> tuple[str, ...]:
    """The sweep's columns: a triple's own, then the bound names of `bounds`."""
    from .bounds import BOUND_NAMES
    return _TRIPLE_COLUMNS + BOUND_NAMES


def report_to_json(row: tuple) -> dict:
    """The `verify` document of one triple, a tuple of `bounds.row_checks`, read off its sweep cells."""
    values, numerator, denominator, holds, violations = row
    cells, columns = _cells(values), sweep_columns()
    divisor = dict(zip(columns[:4], cells), numerator=js_int(numerator), denominator=js_int(denominator),
                   **dict(zip(columns[4:_LOG_CELL], cells[4:_LOG_CELL])))
    holds = dict(zip(columns[_LOG_CELL + 1:], holds))
    doc = {
        "divisor": divisor,
        "bounds": {
            **dict(zip(columns[:3], cells)),
            "logL": cells[_LOG_CELL],
            "bounds": {name: {"applicable": v is not None, "log_value": v}
                       for name, v in zip(columns[_LOG_CELL + 1:], cells[_LOG_CELL + 1:])},
        },
        "checks": {"binom_ok": holds["binom"], "two_n_ok": holds["oon_2n"]},
        "ok": not violations,
    }
    if violations:
        doc["violations"] = list(violations)
    return doc


def certificate_to_json(cert: BezoutCertificate) -> dict:
    # the zero polynomial serializes as [0], not []
    def ints(coeffs):
        return [js_int(v) for v in coeffs] if coeffs else [0]

    alpha = [
        [js_int(co.a.numerator), js_int(co.a.denominator),
         js_int(co.b.numerator), js_int(co.b.denominator)]
        for co in cert.alpha.coeffs
    ] or [[0, 1, 0, 1]]
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


def _m_policy(policy: str) -> Callable[[int], range]:
    """The m range of each row n under an --m-policy, ascending; a bad policy raises here."""
    if policy == "all":
        return lambda n: range(1, n + 1)
    if policy == "half_ceil":
        return lambda n: _only((n + 1) // 2, n)
    if policy == "frontier":
        from .bounds import floor_half_frontier
        return lambda n: _only(max(1, n - floor_half_frontier(n)), n)
    if policy.startswith("fixed:"):
        digits = policy[len("fixed:"):]  # ASCII digits only: int() would also take " 7", "+7" and "1_0"
        _require(digits.isascii() and digits.isdigit(), f"bad m policy {policy!r}")
        m = int(digits)
        _require(m >= 1, f"fixed m must be >= 1, got {m}")
        return lambda n: _only(m, n)
    raise UsageError(f"unknown m policy {policy!r}")


def _only(m: int, n: int) -> range:
    """The row n's one m, or no m when m > n."""
    return range(m, min(m, n) + 1)


def _cells(values: tuple) -> tuple:
    """One triple's values, as `bounds.row_checks` gives them, as cells in `sweep_columns()` order; None stays."""
    return (tuple(None if v is None else js_int(v) for v in values[:_LOG_CELL])
            + tuple(None if v is None else fmt_log(v) for v in values[_LOG_CELL:]))


def _sweep_row(row: tuple[int, int, range, Callable]) -> list[tuple[tuple, tuple[str, ...]]]:
    """One sweep work item, a row (c, n, ms) with its process's `Window.move`: each m's cells and violations."""
    from .bounds import row_checks
    return [(_cells(values), violations) for values, _, _, _, violations in row_checks(*row)]


def _csv(cells: Iterable) -> str:
    """One CSV line, NA for None; no cell (an int, a digit string or a decimal log) needs quoting."""
    return ",".join(["NA" if v is None else str(v) for v in cells]) + "\n"


def _sweep_text(row: tuple[int, int, range, Callable], json_columns: Optional[tuple[str, ...]]) -> tuple[str, str]:
    """The record of one sweep row: its CSV lines, or JSON lines keyed by `json_columns`, and its VIOLATION lines."""
    lines, bad = [], []
    for cells, violations in _sweep_row(row):
        lines.append(_csv(cells) if json_columns is None else json.dumps(dict(zip(json_columns, cells))) + "\n")
        bad += [f"VIOLATION at (c,m,n)={cells[:3]}: {v}\n" for v in violations]
    return "".join(lines), "".join(bad)


def _table_text(c: int, n: int) -> tuple[str, str]:
    """The record of one table row (c, n): a line per m, and the VIOLATION lines of its triples."""
    from .bounds import row_checks
    lines, bad = [], []
    for values, _, _, _, violations in row_checks(c, n, range(1, n + 1), None):
        m, log_l = values[1], values[_LOG_CELL]
        bad += [f"VIOLATION at (c,m,n)={(c, m, n)}: {v}\n" for v in violations]
        # the ratio log(bound) / log(L), itself in fixed point
        ratios = [None if v is None else fmt_log((v << PRECISION_BITS) // log_l) for v in values[_LOG_CELL + 1:]]
        lines.append(_csv([c, n, m, fmt_log(log_l)] + ratios))
    return "".join(lines), "".join(bad)


def _write_rows(header: str, records: Iterable[tuple[str, str]], out: TextIO) -> int:
    """The header and each record's text to `out`, its VIOLATION lines to stderr; exit 2 if there were any."""
    code = EXIT_OK
    out.write(header)
    for text, violations in records:
        if violations:
            code = EXIT_VIOLATION
            sys.stderr.write(violations)
        out.write(text)
    return code


def _require_c_certified(c: int, name: str = "c") -> None:
    _require(c < C_LIMIT, f"need {name} < 2^61 for certified log bounds, got {c}", RunError)


def cmd_verify(args) -> int:
    _require(args.c >= 1, f"need c >= 1, got {args.c}")
    _require_c_certified(args.c)
    _require(1 <= args.m <= args.n, f"need 1 <= m <= n, got m={args.m}, n={args.n}")
    from .bounds import row_checks
    with _open_out(args.out) as out:
        row = row_checks(args.c, args.n, range(args.m, args.m + 1))[0]
        out.write(json.dumps(report_to_json(row), indent=2) + "\n")
    return EXIT_VIOLATION if row[-1] else EXIT_OK


def cmd_sweep(args) -> int:
    _require(1 <= args.c_min <= args.c_max, f"need 1 <= c_min <= c_max, got {args.c_min}..{args.c_max}")
    _require_c_certified(args.c_max, "c_max")
    _require(1 <= args.n_min <= args.n_max, f"need 1 <= n_min <= n_max, got {args.n_min}..{args.n_max}")
    _require(args.parallelism >= 1, f"need parallelism >= 1, got {args.parallelism}")
    _require(args.parallelism <= _MAX_PARALLELISM,
             f"need parallelism <= {_MAX_PARALLELISM}, got {args.parallelism}", RunError)
    _require(args.parallelism == 1 or hasattr(os, "fork"),
             f"need parallelism 1 where os.fork is missing, got {args.parallelism}", RunError)
    m_range = _m_policy(args.m_policy)  # before --out is opened
    from .window import Window, WindowError
    start = Window().move  # made before any fork: each worker slides its own copy over its rows
    # rows in canonical (c, n) order, each ascending in m
    rows = ((c, n, m_range(n), start) for c in range(args.c_min, args.c_max + 1)
            for n in range(args.n_min, args.n_max + 1))
    nrows = (args.c_max - args.c_min + 1) * (args.n_max - args.n_min + 1)
    workers = min(args.parallelism, nrows)
    columns = sweep_columns()
    header = _csv(columns) if args.format == "csv" else ""
    json_columns = columns if args.format == "json" else None
    row_text = lambda row: _sweep_text(row, json_columns)  # one formatter, serial or forked
    with _open_out(args.out) as out:
        if workers == 1:
            try:
                return _write_rows(header, map(row_text, rows), out)
            except WindowError as exc:  # in a worker, it is the worker's one-line reason
                raise RunError(f"sweep window failed: {exc}") from None
        from .workers import WorkerFailed, forked  # only a parallel sweep loads the workers
        try:
            # the workers format the rows, and this process only copies their text
            with forked(rows, nrows, workers, row_text) as records:
                return _write_rows(header, records, out)
        except WorkerFailed as exc:
            raise RunError(f"sweep worker failed: {exc}") from None


def cmd_bezout(args) -> int:
    _require(args.c >= 1, f"need c >= 1, got {args.c}")
    _require(args.k >= 0, f"need k >= 0, got {args.k}")
    _require(args.k <= _MAX_BEZOUT_K, f"need k <= {_MAX_BEZOUT_K}, got {args.k}", RunError)
    from .poly import CertificateError, bezout_certificate  # only bezout pays for loading poly
    try:
        cert = bezout_certificate(args.c, args.k)
    except CertificateError as exc:
        print(f"VIOLATION at (c,k)={(args.c, args.k)}: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    with _open_out(args.out) as out:  # only a certificate that passed opens --out
        out.write(json.dumps(certificate_to_json(cert), indent=2) + "\n")
    return EXIT_OK


def cmd_table(args) -> int:
    _require(args.c >= 1, f"need c >= 1, got {args.c}")
    _require_c_certified(args.c)
    _require(args.n_max >= 1, f"need n_max >= 1, got {args.n_max}")
    from .bounds import BOUND_NAMES
    with _open_out(args.out) as out:
        return _write_rows(_csv(("c", "n", "m", "logL") + BOUND_NAMES),
                           (_table_text(args.c, n) for n in range(1, args.n_max + 1)), out)


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
    p_verify.add_argument("--m", type=int, required=True)
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--out", default="stdout")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="verify a grid of triples, CSV or JSON lines")
    p_sweep.add_argument("--c-min", type=int, required=True)
    p_sweep.add_argument("--c-max", type=int, required=True)
    p_sweep.add_argument("--n-min", type=int, required=True)
    p_sweep.add_argument("--n-max", type=int, required=True)
    p_sweep.add_argument("--m-policy", default="all",
                         help="all | half_ceil | fixed:<m> | frontier")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--parallelism", type=int, default=1,
                         help=f"worker processes, at most {_MAX_PARALLELISM}")
    p_sweep.add_argument("--out", default="stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_bezout = sub.add_parser("bezout", help="emit the certificate for (c, k) as JSON")
    p_bezout.add_argument("--c", type=int, required=True)
    p_bezout.add_argument("--k", type=int, required=True, help=f"at most {_MAX_BEZOUT_K}")
    p_bezout.add_argument("--out", default="stdout")
    p_bezout.set_defaults(func=cmd_bezout)

    p_table = sub.add_parser("table", help="bound tightness ratios log(bound)/log(L), CSV")
    p_table.add_argument("--c", type=int, required=True)
    p_table.add_argument("--n-max", type=int, required=True)
    p_table.add_argument("--out", default="stdout")
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # exact integers are emitted in full; lifted after parsing, which it still guards
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)
        return args.func(args)
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
