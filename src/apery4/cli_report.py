"""Command-line verification reports for the zeta(4) form family.

Four subcommands, all exact underneath:

* ``verify-identity``    — recompute both form families on the grid
  0 <= m <= n <= n_max and confirm, cell by cell, componentwise equality,
  weight-4 purity, and (wherever the next two cells of the row exist) the
  three-term recurrence in m.  Optionally in parallel; text on stdout,
  plus a canonical JSON report and/or a lossy CSV view on request.
* ``verify-recurrences`` — run the recurrence/closed-form suites from
  :mod:`apery4.recurrence_lab`.
* ``eval``               — print one exact form and a certified decimal.
* ``summand-audit``      — compare the independent summand evaluation
  routes on sampled points; output is byte-deterministic for a given seed.

JSON reports carry the cell records (rationals as ``p/q`` strings), a
``summary`` tally, the tool version, and an echo of the effective
configuration; cells are sorted by (n, m) regardless of worker scheduling.

Exit status: 0 when every requested check passes, 1 when any verification
fails, 2 on usage errors.  argparse rejects malformed arguments itself;
out-of-range settings, unwritable report paths, two reports sent to one
file or stream and out-of-domain parameters are reported as one ``error:``
line on stderr before any work starts, and leave existing reports intact (a
report that fails to write after the work, to a file or to stdout, is a
usage error, too).  A check that raises while it runs (a certificate that
does not hold, say) is a failed verification: one ``error:`` line naming
where, and status 1.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from collections.abc import Callable
from functools import cache

from . import __version__
from .apery_forms import FormParameters, audit_summands, left_form, right_form, verify_cell
from .errors import Apery4Error, RangeError
from .recurrence_lab import (alternating_binomial_check, closed_form_m0,
                             closed_form_m1, left_boundary_check,
                             recurrence_holds, right_column_check,
                             trailing_coefficient_nonzero)
from .zeta_forms import ZetaLinearForm, evaluate_decimal

__all__ = ["main"]

_SUITES = ("main", "boundary-m0", "boundary-zr", "closed-forms",
           "binom-identity", "all")


class _UsageError(Apery4Error):
    """A command-line argument or setting the command cannot run with."""


def _at_least(value: int, low: int, name: str) -> int:
    if value < low:
        raise _UsageError(f"{name} must be at least {low}, got {value}")
    return value


def _check_writable(path: str | None) -> None:
    """Open a report path for appending before any work, so a bad path is a
    usage error; an existing report keeps its bytes until it is rewritten,
    and a file the check creates is removed again."""
    if path is None or path == "-":
        return
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def _write(path: str, text: str) -> None:
    """Write a finished report to ``path``, or to stdout (flushed) for ``-``;
    a report that cannot be written (a full disk, say) is a usage error."""
    try:
        if path == "-":
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {'stdout' if path == '-' else path}: "
                          f"{exc.strerror}") from None


def _print_lines(lines: list[str]) -> None:
    """Write a text report to stdout, one line each, as :func:`_write` does."""
    _write("-", "".join(f"{line}\n" for line in lines))


def _write_json(path: str, command: str, config: dict, summary: dict, body: dict) -> None:
    """Write the canonical JSON report (``body`` plus the ``summary`` tally,
    tool version and configuration echo) to ``path``, or stdout for ``-``;
    a form is written as its :meth:`~ZetaLinearForm.to_mapping`."""
    text = json.dumps({**body, "summary": summary, "toolVersion": __version__,
                       "configEcho": {"command": command, **config}},
                      sort_keys=True, separators=(",", ":"),
                      default=ZetaLinearForm.to_mapping)
    _write(path, text + "\n")


def _grid_records(n_max: int, jobs: int) -> list[dict]:
    cells = [(n, m) for n in range(n_max + 1) for m in range(n + 1)]
    # fork starts every worker at the first submit: no more than cells or cores
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    if workers == 1:
        records = [verify_cell(n, m) for n, m in cells]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loaded only by a run that forks
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(verify_cell, [c[0] for c in cells],
                                    [c[1] for c in cells]))   # in the order of cells
    # The recurrence in m needs the two neighbouring cells of the same row,
    # so it is checked here on the collected grid rather than per worker,
    # on the forms of both constructions.
    sides = [{(r["n"], r["m"]): r[side] for r in records} for side in ("left", "right")]
    for r in records:
        n, m = r["n"], r["m"]
        r["recurrencePass"] = (all(recurrence_holds(forms, n, m) for forms in sides)
                               if m <= n - 2 else None)
    return records


def _cell_passed(record: dict) -> bool:
    return (record["identityPass"] and record["pureWeight4"]
            and record["recurrencePass"] is not False)


def _write_grid_csv(records: list[dict], path: str) -> None:
    """Lossy convenience view: coordinates, the two surviving coefficients,
    and the pass flags (recurrence blank where not applicable)."""
    import csv                                  # only this report loads it
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["n", "m", "constant", "zeta4",
                     "identityPass", "recurrencePass"])
    for r in records:
        rec = r["recurrencePass"]
        writer.writerow([
            r["n"], r["m"],
            r["left"].constant, r["left"].coefficient(4),
            str(r["identityPass"]).lower(),
            "" if rec is None else str(rec).lower(),
        ])
    _write(path, buffer.getvalue())


def _cmd_verify_identity(args: argparse.Namespace) -> int:
    if args.json == "-" and args.csv == "-":
        raise _UsageError("--json and --csv cannot both write to stdout")
    if args.json and args.csv and os.path.realpath(args.json) == os.path.realpath(args.csv):
        raise _UsageError(f"--json and --csv cannot both write to {args.json}")
    _at_least(args.n_max, 0, "--n-max")
    jobs = _at_least(args.jobs, 1, "--jobs")
    _check_writable(args.json)
    _check_writable(args.csv)
    started = time.perf_counter()
    records = _grid_records(args.n_max, jobs)
    total_ms = round((time.perf_counter() - started) * 1000.0, 3)
    failed = sum(1 for r in records if not _cell_passed(r))
    if args.json:
        _write_json(args.json, "verify-identity",
                    {"csv": args.csv, "jobs": jobs, "json": args.json, "nMax": args.n_max},
                    {"total": len(records), "passed": len(records) - failed, "failed": failed},
                    {"cells": records})
    if args.csv:
        _write_grid_csv(records, args.csv)
    if args.json != "-" and args.csv != "-":
        lines = []
        for r in records:
            rec = r["recurrencePass"]
            flag = "ok" if _cell_passed(r) else "FAIL"
            lines.append(f"cell n={r['n']:>2} m={r['m']:>2}  {flag:>4}  "
                         f"identity={r['identityPass']} pure={r['pureWeight4']} "
                         f"recurrence={'n/a' if rec is None else rec}  "
                         f"{r['elapsedMs']:.1f}ms")
        verdict = "all verified" if failed == 0 else "FAILURES FOUND"
        slowest = max(records, key=lambda r: r["elapsedMs"])
        total = f"{total_ms:.1f}ms" if total_ms < 1000.0 else f"{total_ms / 1000.0:.1f}s"
        lines.append(f"{len(records)} cells up to n = {args.n_max}: {verdict} "
                     f"({total}; slowest cell ({slowest['n']}, {slowest['m']}) "
                     f"{slowest['elapsedMs']:.1f}ms)")
        _print_lines(lines)
    return 0 if failed == 0 else 1


def _run_suite(name: str, n_max: int, left: Callable[[int, int], ZetaLinearForm],
               right: Callable[[int, int], ZetaLinearForm]) -> list[bool]:
    """The outcome of every check of one named suite, on the cell readers' values."""
    if name == "main":
        values = {(n, m): left(n, m) for n in range(n_max + 1) for m in range(n + 1)}
        return ([recurrence_holds(values, n, m)
                 for n in range(n_max + 1) for m in range(max(0, n - 1))]
                + [trailing_coefficient_nonzero(n, m) for n in range(201) for m in range(n)])
    if name == "boundary-m0":
        column = {(n, 0): left(n, 0) for n in range(n_max + 2)}
        return [left_boundary_check(column, n) for n in range(n_max + 1)]
    if name == "boundary-zr":
        column = {(n, 0): right(n, 0) for n in range(n_max + 3)}
        return [right_column_check(column, n) for n in range(n_max + 1)]
    if name == "closed-forms":
        return ([closed_form_m0(n) == left(n, 0) for n in range(n_max + 1)]
                + [closed_form_m1(n) == left(n, 1) for n in range(1, n_max + 1)])
    if name == "binom-identity":
        return [alternating_binomial_check(n, m)
                for n in range(3, max(4, n_max + 1)) for m in range(n - 1)]
    raise ValueError(f"unknown suite {name!r}")  # pragma: no cover - argparse restricts choices


def _cmd_verify_recurrences(args: argparse.Namespace) -> int:
    _at_least(args.n_max, 0, "--n-max")
    _check_writable(args.json)
    names = ([s for s in _SUITES if s != "all"]
             if args.suite == "all" else [args.suite])
    left = cache(lambda n, m: left_form(FormParameters(n, m)))  # suites share cells
    right = cache(lambda n, m: right_form(FormParameters(n, m)))
    results = []
    for name in names:
        checks = _run_suite(name, args.n_max, left, right)
        results.append({"suite": name, "checks": len(checks),
                        "passed": sum(checks), "failed": len(checks) - sum(checks)})
    total_failed = sum(r["failed"] for r in results)
    if args.json:
        _write_json(args.json, "verify-recurrences",
                    {"json": args.json, "nMax": args.n_max, "suite": args.suite},
                    {"total": sum(r["checks"] for r in results),
                     "passed": sum(r["passed"] for r in results), "failed": total_failed},
                    {"suites": results})
    if args.json != "-":
        _print_lines([f"suite {r['suite']:<15} checks={r['checks']:>5} "
                      f"pass={r['passed']:>5} fail={r['failed']}" for r in results]
                     + ["all suites pass" if total_failed == 0 else "FAILURES FOUND"])
    return 1 if total_failed else 0


def _cmd_eval(args: argparse.Namespace) -> int:
    _at_least(args.digits, 1, "--digits")
    try:
        p = FormParameters(args.n, args.m)
    except RangeError as exc:
        raise _UsageError(str(exc)) from None
    form = left_form(p)
    _print_lines([f"Z({args.n}, {args.m}) = {form}",
                  f"  constant    = {form.constant}",
                  f"  zeta(4)     = {form.coefficient(4)}",
                  f"  decimal({args.digits}) = {evaluate_decimal(form, args.digits)}"])
    return 0


def _cmd_summand_audit(args: argparse.Namespace) -> int:
    _at_least(args.n_max, 0, "--n-max")
    _at_least(args.samples, 1, "--samples")
    checks = audit_summands(args.n_max, args.samples, args.seed)
    by_family: dict[str, list] = {}
    for check in checks:
        by_family.setdefault(check.family, []).append(check)
    disagreements, lines = 0, []
    for family in sorted(by_family):
        fam = by_family[family]
        bad = [c for c in fam if not c.agree]
        disagreements += len(bad)
        routes = "/".join(fam[0].routes)
        status = "all agree" if not bad else f"{len(bad)} DISAGREE"
        lines.append(f"family {family:<10} checks={len(fam):>4} routes={routes:<26} {status}")
        lines.extend(f"  n={c.n} m={c.m} j={c.j} nu={c.nu}: "
                     + ", ".join(f"{r}={v}" for r, v in zip(c.routes, c.values)) for c in bad)
    lines.append(f"total {len(checks)} checks, {disagreements} disagreements "
                 f"(n_max={args.n_max}, samples={args.samples}, seed={args.seed})")
    _print_lines(lines)
    return 0 if disagreements == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apery4",
        description="Exact verification of a two-parameter family of "
                    "linear forms in 1 and zeta(4).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-identity",
        help="recompute both constructions on the grid and compare them")
    p.add_argument("--n-max", type=int, default=10,
                   help="largest n of the triangular grid (default 10)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1)")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write the canonical JSON report to PATH "
                        "('-' for stdout, replacing the text report)")
    p.add_argument("--csv", metavar="PATH", default=None,
                   help="write a lossy CSV view (coordinates, surviving "
                        "coefficients, pass flags) to PATH "
                        "('-' for stdout, replacing the text report)")
    p.set_defaults(handler=_cmd_verify_identity)

    p = sub.add_parser(
        "verify-recurrences",
        help="check recurrences, closed forms, and companion identities")
    p.add_argument("--suite", choices=_SUITES, default="all",
                   help="which suite to run (default all)")
    p.add_argument("--n-max", type=int, default=10,
                   help="largest n exercised by the suite (default 10)")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write the canonical JSON report to PATH "
                        "('-' for stdout, replacing the text report)")
    p.set_defaults(handler=_cmd_verify_recurrences)

    p = sub.add_parser(
        "eval", help="print one exact form value and a certified decimal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--digits", type=int, default=30,
                   help="decimal digits after the point (default 30)")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser(
        "summand-audit",
        help="compare independent summand evaluation routes on sampled points")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--samples", type=int, default=2,
                   help="points sampled per cell and family (default 2)")
    p.add_argument("--seed", type=int, default=0,
                   help="sampling seed; output is reproducible per seed")
    p.set_defaults(handler=_cmd_summand_audit)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except Apery4Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
