"""The row commands `verify`, `sweep` and `table`, whose contract `quadlcm.cli` states.

Each checks triples by `bounds.row_checks`.  `sweep` and `table` share one
writer, which turns a row into its lines and its VIOLATION lines, and one
loop, which writes them and exits 2 if there were any VIOLATION lines; a
parallel sweep's workers each run the writer over their own rows, and this
process copies their text in row order (`quadlcm.workers`).  `verify` writes
the JSON document of one triple.  Every log is printed by `cli.fmt_log`, the
one name a caller wraps to see them.  `cli` loads this module after argument
parsing, for these three commands only: a `bezout` launch compiles none of it
and never loads the log engine, and `cli` stays below 2048 parser tokens,
past which, with no cached bytecode, Python 3.11's parser takes a second
batch of token structs and a launch's peak memory rose.
"""

from __future__ import annotations

import os
import sys
from operator import getitem
from typing import Callable, Iterable, Optional, Sequence, TextIO

from . import C_LIMIT, bounds, cli
from .cli import (_INT64_MAX, _INT64_MIN, _MAX_PARALLELISM, EXIT_OK, EXIT_VIOLATION, RunError, UsageError, _open_out,
                  _require, js_int)
from .fixedlog import PRECISION_BITS

_MAX_N = 10**6  # `verify --c 1 --m 995000 --n 1000000` takes 5-7 s on a 2-vCPU host, most of it in the log table
_MAX_VERIFY_WIDTH = 2 * 10**4  # `verify --c 1 --m 1 --n 20001` takes 5-7 s on a 2-vCPU host

_TRIPLE_COLUMNS = ("c", "m", "n", "L", "D_num", "D_den", "quotient", "hc", "hc_bound", "star_x", "star_y", "logL")
_LOG_CELL = _TRIPLE_COLUMNS.index("logL")  # the integers come before it, the fixed-point logs from it on
_C_FREE = ("oon_2n", "binom", "farhi")  # the bound columns whose log values depend on (m, n) only


def sweep_columns() -> tuple[str, ...]:
    """The sweep's columns: a triple's own, then the bound names of `bounds`."""
    return _TRIPLE_COLUMNS + bounds.BOUND_NAMES


class _Logs(dict):
    """Printed logs, {fixed-point log: cli.fmt_log of it, put in `form`}, each printed on its first lookup."""

    form = "%s"  # a JSON sweep's memos quote their logs

    def __missing__(self, v: int) -> str:
        self[v] = text = self.form % cli.fmt_log(v)
        return text


def report_to_json(row: tuple) -> dict:
    """The `verify` document of one triple, a tuple of `bounds.row_checks`, read off its sweep cells."""
    values, numerator, denominator, holds, violations = row
    cells, columns = _cells(values, _Logs({None: None})), sweep_columns()
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


def _m_policy(policy: str) -> Callable[[int], range]:
    """The m range of each row n under an --m-policy, ascending; a bad policy raises here."""
    if policy == "all":
        return lambda n: range(1, n + 1)
    if policy == "half_ceil":
        return lambda n: _only((n + 1) // 2, n)
    if policy == "frontier":
        return lambda n: _only(max(1, n - bounds.floor_half_frontier(n)), n)
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


def _cells(values: tuple, logs: _Logs) -> tuple:
    """One triple's values from `bounds.row_checks` as JSON cells in `sweep_columns()` order, logs from `logs`.

    Only `verify` reads them; `_row_writer` writes the same text from the integers.
    """
    return (tuple(None if v is None else js_int(v) for v in values[:_LOG_CELL])
            + tuple(logs[v] for v in values[_LOG_CELL:]))


def _json_line(columns: Sequence[str]) -> str:
    """The `%` template of a JSON sweep line: each key as `json.dumps` writes it, then a cell's JSON text."""
    import json  # only the commands that write JSON load it
    return "{" + ", ".join(f"{json.dumps(col)}: %s" for col in columns) + "}\n"


def _row_writer(start: Optional[Callable], json_line: Optional[str] = None,
                many_c: bool = False) -> Callable[[tuple], tuple[str, str]]:
    """One command's writer: a row (c, n, ms) as its lines and its VIOLATION lines, from one `bounds.row_checks`.

    `start` is the row's start.  A sweep's is its process's `Window().move`, and its lines are CSV, or JSON
    filled into `json_line`, a cell being null, a decimal within int64, or a quoted decimal or log, as
    `json.dumps` of `_cells` writes it.  `table`'s is None, and its line per m is c, n, m, log L and each
    bound's ratio log(bound) / log(L), itself in fixed point.  Each distinct log is printed once per memo:
    each row empties the one of its logs and ratios, and a sweep over `many_c` keeps its c-free columns' for
    the process, made with the writer before any fork so that each worker fills its own copy.
    """
    csv = json_line is None
    none = "NA" if csv else "null"
    shared, logs = _Logs({None: none}), _Logs({None: none})
    shared.form = logs.form = "%s" if csv else '"%s"'
    # over one c no (m, n) comes back, so a shared memo would only grow
    memos = [shared if many_c and col in _C_FREE else logs for col in sweep_columns()[_LOG_CELL:]]

    def row_text(row: tuple[int, int, range]) -> tuple[str, str]:
        lines, bad = [], []
        logs.clear()
        logs[None] = none
        for values, _, _, _, violations in bounds.row_checks(*row, start):
            if start is None:  # a table line
                log_l = values[_LOG_CELL]
                ratios = ["NA" if v is None else logs[(v << PRECISION_BITS) // log_l] for v in values[_LOG_CELL + 1:]]
                lines.append(",".join([f"{values[0]},{values[2]},{values[1]}", logs[log_l], *ratios]) + "\n")
            else:  # a sweep line; JSON quotes the integers beyond int64
                cells = [none if v is None else str(v) if csv or _INT64_MIN <= v <= _INT64_MAX else f'"{v}"'
                         for v in values[:_LOG_CELL]] + [*map(getitem, memos, values[_LOG_CELL:])]
                lines.append(",".join(cells) + "\n" if csv else json_line % tuple(cells))
            if violations:
                bad += [f"VIOLATION at (c,m,n)={values[:3]}: {v}\n" for v in violations]
        return "".join(lines), "".join(bad)

    return row_text


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


def _require_n_capped(n: int, name: str = "n") -> None:
    _require(n <= _MAX_N, f"need {name} <= 10^6, got {n}", RunError)


def cmd_verify(args) -> int:
    _require(args.c >= 1, f"need c >= 1, got {args.c}")
    _require_c_certified(args.c)
    _require(1 <= args.m <= args.n, f"need 1 <= m <= n, got m={args.m}, n={args.n}")
    _require_n_capped(args.n)
    _require(args.n - args.m <= _MAX_VERIFY_WIDTH, f"need n - m <= 2*10^4, got {args.n - args.m}", RunError)
    import json
    from .window import _start
    with _open_out(args.out) as out:
        row = bounds.row_checks(args.c, args.n, range(args.m, args.m + 1), _start)[0]
        out.write(json.dumps(report_to_json(row), indent=2) + "\n")
    return EXIT_VIOLATION if row[-1] else EXIT_OK


def cmd_sweep(args) -> int:
    _require(1 <= args.c_min <= args.c_max, f"need 1 <= c_min <= c_max, got {args.c_min}..{args.c_max}")
    _require_c_certified(args.c_max, "c_max")
    _require(1 <= args.n_min <= args.n_max, f"need 1 <= n_min <= n_max, got {args.n_min}..{args.n_max}")
    _require_n_capped(args.n_max, "n_max")
    _require(args.parallelism >= 1, f"need parallelism >= 1, got {args.parallelism}")
    _require(args.parallelism <= _MAX_PARALLELISM,
             f"need parallelism <= {_MAX_PARALLELISM}, got {args.parallelism}", RunError)
    _require(args.parallelism == 1 or hasattr(os, "fork"),
             f"need parallelism 1 where os.fork is missing, got {args.parallelism}", RunError)
    m_range = _m_policy(args.m_policy)  # before --out is opened
    from .window import Window, WindowError
    # rows in canonical (c, n) order, each ascending in m
    rows = ((c, n, m_range(n)) for c in range(args.c_min, args.c_max + 1) for n in range(args.n_min, args.n_max + 1))
    nrows = (args.c_max - args.c_min + 1) * (args.n_max - args.n_min + 1)
    workers = min(args.parallelism, nrows)
    columns = sweep_columns()
    header = ",".join(columns) + "\n" if args.format == "csv" else ""
    json_line = _json_line(columns) if args.format == "json" else None
    # made before any fork, with its window: each worker slides its own copy over its rows
    row_text = _row_writer(Window().move, json_line, args.c_min < args.c_max)
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


def cmd_table(args) -> int:
    _require(args.c >= 1, f"need c >= 1, got {args.c}")
    _require_c_certified(args.c)
    _require(args.n_max >= 1, f"need n_max >= 1, got {args.n_max}")
    _require_n_capped(args.n_max, "n_max")
    rows = ((args.c, n, range(1, n + 1)) for n in range(1, args.n_max + 1))
    with _open_out(args.out) as out:
        return _write_rows(",".join(("c", "n", "m", *sweep_columns()[_LOG_CELL:])) + "\n",
                           map(_row_writer(None), rows), out)
