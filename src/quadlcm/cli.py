"""Command-line front end: verify, sweep, bezout, table.

Exit codes: 0 all checks pass, 1 usage or configuration error (or a sweep
pool worker that raised or died), 2 a mathematical invariant failed.  Sweep
output is byte-identical for a given configuration at any parallelism
level: work items go to a pool, results are buffered and emitted in
(c, n, m) lexicographic order.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, Sequence, TextIO

from . import bounds as _bounds
from ._lazy import lazy_import
from .bounds import (
    BOUND_NAMES,
    BoundReport,
    DivisorReport,
    InvariantViolation,
    TripleReport,
    bound_report,
    floor_half_frontier,
    triple_report,
)
from .poly import BezoutCertificate, bezout_certificate

mpmath = lazy_import("mpmath")  # `bezout` never loads it

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

SWEEP_COLUMNS = (
    "c", "m", "n", "L", "D_num", "D_den", "quotient",
    "hc", "hc_bound", "star_x", "star_y", "logL",
) + BOUND_NAMES


class UsageError(Exception):
    pass


class WorkerError(Exception):
    """A sweep pool worker raised or died; reported in one line with exit 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad input; the contract reserves 2 for
    # mathematical violations, so route everything through UsageError.
    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def fmt_log(x) -> str:
    """Decimal with 15 significant digits; deterministic."""
    return mpmath.nstr(x, 15)


def js_int(v: int):
    """Integers beyond 64-bit become strings so JSON consumers stay lossless."""
    return v if _INT64_MIN <= v <= _INT64_MAX else str(v)


def divisor_to_json(r: DivisorReport) -> dict:
    return {
        "c": r.c,
        "m": r.m,
        "n": r.n,
        "L": js_int(r.L),
        "numerator": js_int(r.numerator),
        "denominator": js_int(r.denominator),
        "D_num": js_int(r.D.numerator),
        "D_den": js_int(r.D.denominator),
        "quotient": None if r.quotient_check is None else js_int(r.quotient_check),
        "hc": js_int(r.hc_value),
        "hc_bound": js_int(r.hc_bound),
        "star_x": js_int(r.star_x),
        "star_y": js_int(r.star_y),
    }


def bounds_to_json(r: BoundReport) -> dict:
    return {
        "c": r.c,
        "m": r.m,
        "n": r.n,
        "logL": fmt_log(r.logL),
        "bounds": {
            name: {
                "applicable": bv.applicable,
                "log_value": fmt_log(bv.log_value) if bv.applicable else None,
            }
            for name, bv in r.bounds.items()
        },
    }


def report_to_json(r: TripleReport) -> dict:
    """The `verify` document; a sweep row is its projection onto SWEEP_COLUMNS."""
    doc = {
        "divisor": divisor_to_json(r.divisor),
        "bounds": bounds_to_json(r.bounds),
        "checks": {"binom_ok": r.bounds.holds["binom"], "two_n_ok": r.bounds.holds["oon_2n"]},
        "ok": not r.violations,
    }
    if r.violations:
        doc["violations"] = list(r.violations)
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


def _m_values(policy: str, n: int) -> list[int]:
    """The m grid for one n under an --m-policy, ascending."""
    if policy == "all":
        return list(range(1, n + 1))
    if policy == "half_ceil":
        return [(n + 1) // 2]
    if policy == "frontier":
        return [max(1, n - floor_half_frontier(n))]
    if policy.startswith("fixed:"):
        try:
            m = int(policy.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad m policy {policy!r}") from None
        if m < 1:
            raise UsageError(f"fixed m must be >= 1, got {m}")
        return [m] if m <= n else []
    raise UsageError(f"unknown m policy {policy!r}")


def _sweep_row(triple: tuple[int, int, int]) -> tuple[dict, tuple[str, ...]]:
    """One sweep work item: the `verify` document projected onto SWEEP_COLUMNS; top-level to pickle."""
    report = triple_report(*triple)
    doc = report_to_json(report)
    cells = {**doc["bounds"], **doc["divisor"]}
    cells.update((name, bv["log_value"]) for name, bv in doc["bounds"]["bounds"].items())
    return {col: cells.get(col) for col in SWEEP_COLUMNS}, report.violations


def _pool_results(results: Iterator) -> Iterator:
    """The pool's results in order; a worker's exception, or a dead worker, becomes WorkerError."""
    try:
        yield from results
    except Exception as exc:
        reason = " ".join(f"{type(exc).__name__}: {exc}".split())
        raise WorkerError(f"sweep worker failed: {reason}") from exc


def _emit_sweep(rows: Iterable[tuple[dict, tuple[str, ...]]], output_format: str, out: TextIO) -> int:
    code = EXIT_OK
    writer = None
    if output_format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
    for row, violations in rows:
        if violations:
            code = EXIT_VIOLATION
            triple = (row["c"], row["m"], row["n"])
            for v in violations:
                print(f"VIOLATION at (c,m,n)={triple}: {v}", file=sys.stderr)
        if output_format == "csv":
            writer.writerow(["NA" if v is None else str(v) for v in row.values()])
        else:
            out.write(json.dumps(row) + "\n")
    return code


def cmd_verify(args) -> int:
    _require(args.c >= 1, f"need c >= 1, got {args.c}")
    _require(1 <= args.m <= args.n, f"need 1 <= m <= n, got m={args.m}, n={args.n}")
    with _open_out(args.out) as out:
        report = triple_report(args.c, args.m, args.n)
        out.write(json.dumps(report_to_json(report), indent=2) + "\n")
    return EXIT_VIOLATION if report.violations else EXIT_OK


def cmd_sweep(args) -> int:
    _require(1 <= args.c_min <= args.c_max, f"need 1 <= c_min <= c_max, got {args.c_min}..{args.c_max}")
    _require(1 <= args.n_min <= args.n_max, f"need 1 <= n_min <= n_max, got {args.n_min}..{args.n_max}")
    _require(args.parallelism >= 1, f"need parallelism >= 1, got {args.parallelism}")
    # canonical (c, n, m) order; both ranges are non-empty, so a bad policy raises here
    triples = [
        (c, m, n)
        for c in range(args.c_min, args.c_max + 1)
        for n in range(args.n_min, args.n_max + 1)
        for m in _m_values(args.m_policy, n)
    ]
    with _open_out(args.out) as out:
        if args.parallelism > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=args.parallelism) as pool:
                # map preserves input order, so emission stays canonical
                results = pool.map(_sweep_row, triples, chunksize=8)
                return _emit_sweep(_pool_results(results), args.format, out)
        return _emit_sweep(map(_sweep_row, triples), args.format, out)


def cmd_bezout(args) -> int:
    _require(args.c >= 1, f"need c >= 1, got {args.c}")
    _require(args.k >= 0, f"need k >= 0, got {args.k}")
    with _open_out(args.out) as out:
        cert = bezout_certificate(args.c, args.k)
        out.write(json.dumps(certificate_to_json(cert), indent=2) + "\n")
    return EXIT_OK


def cmd_table(args) -> int:
    _require(args.c >= 1, f"need c >= 1, got {args.c}")
    _require(args.n_max >= 1, f"need n_max >= 1, got {args.n_max}")
    code = EXIT_OK
    with _open_out(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("c", "n", "m", "logL") + BOUND_NAMES)
        for n in range(1, args.n_max + 1):
            for m in range(1, n + 1):
                try:
                    br = bound_report(args.c, m, n)
                except InvariantViolation as exc:
                    br = exc.report
                    code = EXIT_VIOLATION
                    print(f"VIOLATION at (c,m,n)={(args.c, m, n)}: {exc}", file=sys.stderr)
                cells = [args.c, n, m, fmt_log(br.logL)]
                with mpmath.workprec(_bounds.PRECISION_BITS):
                    for name in BOUND_NAMES:
                        bv = br.bounds[name]
                        cells.append(fmt_log(bv.log_value / br.logL) if bv.applicable else "NA")
                writer.writerow(cells)
    return code


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


@contextmanager
def _open_out(target: Optional[str]) -> Iterator[TextIO]:
    """--out <path|stdout>; never closes stdout."""
    if target in (None, "stdout", "-"):
        yield sys.stdout
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
    p_sweep.add_argument("--parallelism", type=int, default=1)
    p_sweep.add_argument("--out", default="stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_bezout = sub.add_parser("bezout", help="emit the certificate for (c, k) as JSON")
    p_bezout.add_argument("--c", type=int, required=True)
    p_bezout.add_argument("--k", type=int, required=True)
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
    except (OSError, WorkerError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
