"""Command-line front end.

Subcommands:

  table {1,2,3,4}     exact table regenerated from first principles, with a
                      numeric column (tables 2-4) using norms computed at --prec
  coeffs FORM         exact integer coefficient listings (delta, g20, rankin)
  verify              exact-vs-numeric verification report with exit status

Exit codes: 0 success, 1 verification failure, 2 usage error (an unwritable
--out included).  Data goes to stdout (or --out), diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache
from typing import List

from .critical_values import (
    PeterssonFactors,
    main_identity,
    projection_coeffs,
    rankin_g20_value,
    two_delta_product,
)
from .exact_arith import factor_integer
from .numeric_lfun import context, render_exact, round_to, verify_tables
from .numeric_lfun.bigfloat import GUARD, MIN_DPS
from .numeric_lfun.verify import _norms
from .qexp import delta_qexp, g20_qexp, rankin_coeffs

__all__ = ["main", "factor_integer", "factored_form"]


def _factor_str(n: int) -> str:
    if n < 2:
        return str(n)
    return "*".join(
        f"{p}^{e}" if e > 1 else str(p) for p, e in factor_integer(n)
    )


def factored_form(q: Fraction) -> str:
    """Prime-power rendering of a rational, e.g. -2^15/(3^2*5^2); 0 is "0"."""
    sign = "-" if q < 0 else ""
    num = _factor_str(abs(q.numerator))
    if q.denominator == 1:
        return sign + num
    den = _factor_str(q.denominator)
    if "*" in den:
        den = f"({den})"
    return f"{sign}{num}/{den}"


_TABLE_FIELDS = ["s", "part", "numerator", "denominator", "factored", "pi_exponent", "numeric"]


def _table_rows(which: int, prec: int):
    """The rows of a table as dicts, and <Delta, Delta> and <g20, g20> at
    prec digits in positional notation; every value is rendered in the
    run's one context."""
    ctx = context(prec + GUARD)
    rows: List[dict] = []
    norms = _norms(ctx, prec)

    def add(s, value, norm=1, part=None) -> None:
        # value: a PiValue or a CriticalValueResult, read as (rational, pi_exponent)
        q, e = value.rational, value.pi_exponent
        row = {
            "s": s,
            "numerator": str(q.numerator),
            "denominator": str(q.denominator),
            "factored": factored_form(q),
            "pi_exponent": e,
            "numeric": ctx.nstr(render_exact(ctx, q, e) * norm, prec, strip_zeros=False,
                                min_fixed=-math.inf, max_fixed=math.inf),
        }
        if part:  # table 1 carries two values per s
            row["part"] = part
        rows.append(row)

    if which == 1:
        for s in range(3, 11):
            pc = projection_coeffs(s)
            for part, pv in (("A1", pc.a1), ("A2", pc.a2)):
                add(s, pv, part=part)
    else:
        producer = {2: two_delta_product, 3: rankin_g20_value, 4: main_identity}[which]
        for s in range(12, 20):
            res = producer(s)
            add(s, res, norms[res.petersson_factors])
    petersson = {
        f.value: ctx.nstr(round_to(prec, norms[f]), prec, min_fixed=-math.inf, max_fixed=math.inf)
        for f in (PeterssonFactors.DELTA_DELTA, PeterssonFactors.G20_G20)
    }
    return rows, petersson


def _write(args, payload: dict, fields: List[str], rows: List[dict], lines: List[str]) -> None:
    """The one output step: payload as JSON, rows under fields as CSV, or
    the text lines, as --format asks, to --out or stdout."""
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_table(args) -> int:
    which = args.table
    rows, petersson = _table_rows(which, args.prec)
    payload = {
        "table": which,
        "rows": rows,
        "petersson": petersson,
        "precision_digits": args.prec,
    }
    lines = [f"table {which}"]
    for r in rows:
        tag = f" {r['part']}" if "part" in r else ""
        lines.append(
            f"s={r['s']}{tag}  {r['numerator']}/{r['denominator']} = {r['factored']}"
            f"  * pi^{r['pi_exponent']}   numeric: {r['numeric']}"
        )
    fields = [f for f in _TABLE_FIELDS if f != "part" or which == 1]
    _write(args, payload, fields, rows, lines)
    return 0


def _cmd_coeffs(args) -> int:
    n, form = args.nmax, args.form
    if form == "rankin":
        values = rankin_coeffs(n).values[1:]
    else:
        values = {"delta": delta_qexp, "g20": g20_qexp}[form](n).integer_coeffs()[1:]
    values = [str(v) for v in values]
    rows = [{"n": i, form: v} for i, v in enumerate(values, start=1)]
    lines = [f"{i:4d}  {v}" for i, v in enumerate(values, start=1)]
    _write(args, {"form": form, "n_max": n, "values": values}, ["n", form], rows, lines)
    return 0


def _cmd_verify(args) -> int:
    if not 0 <= args.tol < math.inf:  # a nan gate passes every row
        print("--tol must be a finite number >= 0", file=sys.stderr)
        return 2
    report = verify_tables(args.prec, args.coeffs)
    bad = report.failures(args.tol)  # an mpf compares with a float exactly
    payload = report.as_dict()
    payload["tolerance"] = str(args.tol)
    payload["failures"] = len(bad)
    rows = payload["rows"]
    lines = [f"verification at {args.prec} digits, {args.coeffs} coefficients, fresh norms"]
    for r in rows:
        lines.append(
            f"s={r['s']} {r['branch']:10s} exact*norms={r['exact_value']}"
            f"  direct={r['direct_value']}  rel_diff={r['rel_diff']}"
        )
    lines.append(f"max relative difference: {report.max_rel_diff}")
    _write(args, payload, list(rows[0]), rows, lines)
    if bad:
        for r in bad:
            print(
                f"FAIL s={r.s} {r.branch}: rel diff {r.rel_diff} > {args.tol}",
                file=sys.stderr,
            )
        return 1
    return 0


def _add_common(parser, top: bool) -> None:
    # shared flags live on the top parser with real defaults and on each
    # subparser with SUPPRESS, so they are accepted on either side of the
    # subcommand without the subparser default clobbering an explicit value
    d = (lambda v: v) if top else (lambda v: argparse.SUPPRESS)
    parser.add_argument("--prec", type=int, default=d(30), help="decimal digits (default 30)")
    parser.add_argument(
        "--coeffs", type=int, default=d(150), help="Dirichlet coefficients (default 150)"
    )
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default=d("text"), help="output format"
    )
    parser.add_argument("--tol", type=float, default=d(1e-9), help="verification tolerance")
    parser.add_argument("--out", default=d(None), help="write output to a file instead of stdout")
    kw = {"action": "store_true"} if top else {"action": "store_true", "default": argparse.SUPPRESS}
    parser.add_argument(
        "--fresh-norms",
        help="accepted; norms are always computed at --prec",
        **kw,
    )


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use (not at import);
    parse_args keeps no state in it, so every call may share it."""
    parser = argparse.ArgumentParser(
        prog="spinl",
        description=(
            "Exact critical values of the degree-3 weight-12 spinor L-function"
            " via its elliptic factorization, with numerical verification."
        ),
    )
    _add_common(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)
    p_table = sub.add_parser("table", help="emit one of the four exact tables")
    p_table.add_argument("table", type=int, choices=(1, 2, 3, 4))
    _add_common(p_table, top=False)
    p_coeffs = sub.add_parser("coeffs", help="exact coefficient listings")
    p_coeffs.add_argument("form", choices=("delta", "g20", "rankin"))
    p_coeffs.add_argument("--nmax", type=int, default=15, help="largest index (default 15)")
    _add_common(p_coeffs, top=False)
    p_verify = sub.add_parser("verify", help="run the exact-vs-numeric verification")
    _add_common(p_verify, top=False)
    return parser


def _check_out(path: str) -> None:
    """The OSError open(path, "w") would raise for a directory given as the
    file or a missing (or non-directory) parent, raised before any work."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), path)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.prec < MIN_DPS:
        print(f"--prec must be >= {MIN_DPS} digits", file=sys.stderr)
        return 2
    try:
        if args.out:
            _check_out(args.out)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "coeffs":
            if args.nmax < 1:
                print("--nmax must be >= 1", file=sys.stderr)
                return 2
            return _cmd_coeffs(args)
        return _cmd_verify(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
