"""Independent checker for quadlcm CLI output, standard library only.

Every claim is recomputed here from its definition, without importing
quadlcm, so a bug shared by the program and its own tests still shows.
`check(argv, path)` takes the CLI arguments of one command and the file
that holds its standard output, and returns `(items, failures)`: the number
of items the command should have produced (a sweep triple, a table row or
a certificate) and one `(item, reason)` per item that is wrong or missing.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

BOUND_NAMES = ("oon_2n", "binom", "t7", "t9", "c5", "final", "farhi")
SWEEP_COLUMNS = (
    "c", "m", "n", "L", "D_num", "D_den", "quotient",
    "hc", "hc_bound", "star_x", "star_y", "logL",
) + BOUND_NAMES
TABLE_COLUMNS = ("c", "n", "m", "logL") + BOUND_NAMES
INT_COLUMNS = SWEEP_COLUMNS[:11]

# logL is printed with 15 significant digits; math.log of an int is within
# an ulp, so this is loose enough for rounding and tight enough for any slip.
LOG_REL_TOL = 1e-12
# the program accepts a bound when log(bound) <= logL * (1 + 1e-9)
BOUND_REL_TOL = 1e-9


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("sweep")
    for flag in ("--c-min", "--c-max", "--n-min", "--n-max", "--parallelism"):
        p.add_argument(flag, type=int)
    p.add_argument("--m-policy", default="all")
    p.add_argument("--format", default="csv")
    p = sub.add_parser("bezout")
    p.add_argument("--c", type=int)
    p.add_argument("--k", type=int)
    p = sub.add_parser("table")
    p.add_argument("--c", type=int)
    p.add_argument("--n-max", type=int)
    return parser


def check(argv: list[str], path: str) -> tuple[int, list[tuple[object, str]]]:
    sys.set_int_max_str_digits(0)  # exact cells can exceed Python's 4300-digit default
    args = _parser().parse_args(argv)
    if args.command == "sweep":
        return _check_sweep(args, path)
    if args.command == "bezout":
        return _check_bezout(args.c, args.k, path)
    return _check_table(args.c, args.n_max, path)


# --- exact reference values ----------------------------------------------------


def _m_values(policy: str, n: int) -> list[int]:
    if policy == "all":
        return list(range(1, n + 1))
    if policy == "half_ceil":
        return [(n + 1) // 2]
    raise ValueError(f"checker does not know m policy {policy!r}")


def _gates(c: int, m: int, n: int) -> dict[str, bool]:
    """Which bounds apply at (c, m, n), by exact integer comparisons."""
    d = n - m
    return {
        "oon_2n": m <= (n + 1) // 2,
        "binom": True,
        "t7": True,
        "t9": m < n,
        "c5": 8 * d**3 >= n * n,
        "final": 8 * d**3 <= n * n,
        "farhi": c == 1 and m == 1,
    }


class _PerC:
    """Tables over d = n - m for one c: d!, c*prod(l^2+4c), and their product."""

    def __init__(self, c: int, d_max: int):
        self.fact = [1]
        self.hc_bound = [c]
        for d in range(1, d_max + 1):
            self.fact.append(self.fact[-1] * d)
            self.hc_bound.append(self.hc_bound[-1] * (d * d + 4 * c))
        self.den = [f * h for f, h in zip(self.fact, self.hc_bound)]


def _fold(c: int, n: int, wanted: set[int]):
    """Yield (m, L, prod(k^2+c), (a, b)) for each wanted m, descending from n.

    L and the products over k = m..n are folded one factor at a time, so a
    full grid over m costs one lcm per cell.  (a, b) is the shifted product
    prod(k + sqrt(-c)) = a + b*sqrt(-c).
    """
    big_l, num, a, b = 1, 1, 1, 0
    for m in range(n, min(wanted) - 1, -1):
        q = m * m + c
        big_l = math.lcm(big_l, q)
        num *= q
        a, b = a * m - c * b, a + b * m
        if m in wanted:
            yield m, big_l, num, (a, b)


def _log_ok(text: str, big_l: int) -> bool:
    ref = math.log(big_l)
    return abs(float(text) - ref) <= LOG_REL_TOL * max(1.0, ref)


def _bound_cells(c: int, m: int, n: int, log_l: float, cells: dict) -> str | None:
    """Reason the bound cells are wrong, or None.  Cells are str or None (NA)."""
    for name, applies in _gates(c, m, n).items():
        cell = cells[name]
        if (cell is None) == applies:
            return f"{name} is {'NA' if cell is None else 'set'} against its gate"
        if cell is not None and float(cell) > log_l + BOUND_REL_TOL * abs(log_l):
            return f"{name} = {cell} exceeds logL"
    if not math.isclose(float(cells["binom"]), math.log(m * math.comb(n, m)), rel_tol=LOG_REL_TOL, abs_tol=LOG_REL_TOL):
        return "binom != log(m*C(n,m))"
    if cells["oon_2n"] is not None and not math.isclose(float(cells["oon_2n"]), n * math.log(2), rel_tol=LOG_REL_TOL):
        return "oon_2n != n*log(2)"
    return None


# --- sweep -----------------------------------------------------------------------


def _sweep_rows(path: str, fmt: str):
    """Rows as dicts column -> int | str | None (None is NA), or a reason string."""
    with open(path, newline="") as fh:
        if fmt == "json":
            for line in fh:
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    yield "not a JSON line"
                    continue
                yield obj if tuple(obj) == SWEEP_COLUMNS else f"bad keys {sorted(obj)}"
            return
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != SWEEP_COLUMNS:
            yield f"bad CSV header {header}"
            return
        for cells in reader:
            if len(cells) != len(SWEEP_COLUMNS):
                yield "wrong cell count"
            else:
                yield {col: (None if v == "NA" else v) for col, v in zip(SWEEP_COLUMNS, cells)}


def _sweep_row_failure(row: dict, c: int, m: int, n: int, ref, per_c: _PerC) -> str | None:
    _, big_l, num, (pa, pb) = ref
    try:
        v = {col: int(row[col]) for col in INT_COLUMNS}
    except (TypeError, ValueError):
        return "a non-integer exact cell"
    if (v["c"], v["m"], v["n"]) != (c, m, n):
        return f"got (c,m,n)=({v['c']},{v['m']},{v['n']}), out of canonical order"
    d = n - m
    if v["L"] != big_l:
        return "L != lcm(m^2+c..n^2+c)"
    if v["D_den"] <= 0 or math.gcd(v["D_num"], v["D_den"]) != 1:
        return "D not in lowest terms"
    if v["D_num"] * per_c.den[d] != v["D_den"] * num:
        return "D != prod(k^2+c) / (c (n-m)! prod(l^2+4c))"
    if v["quotient"] * v["D_num"] != big_l * v["D_den"]:
        return "quotient * D != L"
    if v["hc"] != math.gcd(pa, pb):
        return "hc != content of prod(k + sqrt(-c))"
    if v["hc_bound"] != per_c.hc_bound[d] or v["hc_bound"] % v["hc"]:
        return "hc_bound wrong or not a multiple of hc"
    x, y = v["star_x"], v["star_y"]
    if x * pa - c * y * pb != big_l * per_c.fact[d] or x * pb + y * pa != 0:
        return "star * prod != L (n-m)!"
    if row["logL"] is None or not _log_ok(row["logL"], big_l):
        return "logL != log(L)"
    return _bound_cells(c, m, n, float(row["logL"]), row)


def _check_sweep(args, path: str):
    expected = []
    for c in range(args.c_min, args.c_max + 1):
        for n in range(args.n_min, args.n_max + 1):
            expected.extend((c, m, n) for m in _m_values(args.m_policy, n))
    failures: list[tuple[object, str]] = []
    rows = _sweep_rows(path, args.format)
    per_c: dict[int, _PerC] = {}
    ref_key, refs = None, {}
    seen = 0
    for row, (c, m, n) in zip(rows, expected):
        seen += 1
        if isinstance(row, str):
            failures.append(((c, m, n), row))
            continue
        if c not in per_c:
            per_c[c] = _PerC(c, args.n_max)
        if ref_key != (c, n):
            ref_key = (c, n)
            refs = {r[0]: r for r in _fold(c, n, set(_m_values(args.m_policy, n)))}
        try:
            reason = _sweep_row_failure(row, c, m, n, refs[m], per_c[c])
        except (TypeError, ValueError) as exc:
            reason = f"unreadable cell: {exc}"
        if reason:
            failures.append(((c, m, n), reason))
    failures.extend((t, "missing") for t in expected[seen:])
    if next(rows, None) is not None:
        failures.append(("extra", "more rows than triples"))
    return len(expected), failures


# --- table -----------------------------------------------------------------------


def _check_table(c: int, n_max: int, path: str):
    expected = [(n, m) for n in range(1, n_max + 1) for m in range(1, n + 1)]
    failures: list[tuple[object, str]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, None) or ())
        if header != TABLE_COLUMNS:
            return len(expected), [(t, f"bad header {header}") for t in expected]
        seen = 0
        lcms: dict[int, int] = {}
        for cells, (n, m) in zip(reader, expected):
            seen += 1
            if m == 1:
                lcms = {r[0]: r[1] for r in _fold(c, n, set(range(1, n + 1)))}
            try:
                reason = _table_row_failure(cells, c, m, n, lcms[m])
            except ValueError as exc:
                reason = f"unreadable cell: {exc}"
            if reason:
                failures.append(((c, m, n), reason))
        failures.extend(((c, m, n), "missing") for n, m in expected[seen:])
        if next(reader, None) is not None:
            failures.append(("extra", "more rows than n_max(n_max+1)/2"))
    return len(expected), failures


def _table_row_failure(cells: list[str], c: int, m: int, n: int, big_l: int) -> str | None:
    if len(cells) != len(TABLE_COLUMNS):
        return "wrong cell count"
    if cells[:3] != [str(c), str(n), str(m)]:
        return f"got (c,n,m)=({','.join(cells[:3])}), out of canonical order"
    if not _log_ok(cells[3], big_l):
        return "logL != log(L)"
    gates = _gates(c, m, n)
    for name, cell in zip(BOUND_NAMES, cells[4:]):
        applies = gates[name]
        if (cell == "NA") == applies:
            return f"{name} is {cell} against its gate"
        if cell != "NA" and float(cell) > 1.0:
            return f"ratio {name} = {cell} exceeds 1"
    return None


# --- bezout ----------------------------------------------------------------------


def _ints(values) -> list[int]:
    return [int(v) for v in values]


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _shift_product(c: int, k: int) -> tuple[list[int], list[int]]:
    """(A, B) with prod_{j=0..k} (X - j + sqrt(-c)) = A + B*sqrt(-c)."""
    re, im = [1], [0]
    for j in range(k + 1):
        # multiply by X + (-j + s), s^2 = -c
        new_re = [0] + re
        new_im = [0] + im
        for i, (a, b) in enumerate(zip(re, im)):
            new_re[i] += -j * a - c * b
            new_im[i] += a - j * b
        re, im = new_re, new_im
    return _trim(re), _trim(im)


def _check_bezout(c: int, k: int, path: str):
    with open(path) as fh:
        try:
            cert = json.load(fh)
        except json.JSONDecodeError as exc:
            return 1, [((c, k), f"not JSON: {exc}")]
    try:
        reason = _certificate_failure(cert, c, k)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        reason = f"unreadable certificate: {exc!r}"
    return 1, [((c, k), reason)] if reason else []


def _certificate_failure(cert: dict, c: int, k: int) -> str | None:
    if (cert.get("c"), cert.get("k")) != (c, k):
        return "wrong (c, k)"
    d = c
    for ell in range(1, k + 1):
        d *= ell * ell + 4 * c
    if int(cert["d"]) != d:
        return "d != c * prod(l^2 + 4c)"
    a_part, b_part = _shift_product(c, k)
    if _trim(_ints(cert["A"])) != a_part or _trim(_ints(cert["B"])) != b_part:
        return "A + B sqrt(-c) != prod(X - j + sqrt(-c))"
    r, s = _trim(_ints(cert["r"])), _trim(_ints(cert["s"]))
    lhs = _poly_mul(r, a_part)
    rhs = [c * v for v in _poly_mul(s, b_part)]
    size = max(len(lhs), len(rhs))
    diff = _trim([(lhs[i] if i < len(lhs) else 0) - (rhs[i] if i < len(rhs) else 0) for i in range(size)])
    if diff != [d]:
        return "r*A - c*s*B != d"
    alpha = cert["alpha"]
    if len(alpha) > k + 1:
        return "deg alpha > k"
    for i, co in enumerate(alpha):
        a_num, a_den, b_num, b_den = _ints(co)
        ri = r[i] if i < len(r) else 0
        si = s[i] if i < len(s) else 0
        if 2 * d * a_num != ri * a_den or 2 * d * b_num != si * b_den:
            return f"2d*alpha != r + s sqrt(-c) at X^{i}"
    if len(r) > len(alpha) or len(s) > len(alpha):
        return "r or s longer than alpha"
    return None
