"""One benchmark iteration in a fresh interpreter, so every cache starts cold.

    python3 bench/child.py ROOT WORKLOAD SEED TRACE

Imports apery4 from ROOT/src, runs the workload once inside the timed
region, reads the peak RSS, then checks the outputs against routes the
workload did not use.  With TRACE = 1 the layers are traced during the
timed region (see ``layers.py``) and the tracer is removed before the
checks.  The last line of standard output is one JSON object for
``run.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

GRID_N_MAX = 12
GRID_CELLS = (GRID_N_MAX + 1) * (GRID_N_MAX + 2) // 2
C9_CELLS = ((0, 0), (1, 1), (2, 0), (3, 2), (4, 1))   # criterion 9's cells
C9_DIGITS = 30
REFERENCE_DIGITS = 70
AUDIT_N_MAX = 10
AUDIT_SAMPLES = 2
AUDIT_CHECKS = 648        # audit_summands(10, 2, seed) for every seed


def _fixed(number) -> list:
    return [number.mantissa, number.scale, str(number.error_bound)]


# -- workloads: the timed region ---------------------------------------------

def grid_exact(seed: int):
    from apery4 import cli_report
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_report.main(["verify-identity", "--n-max", str(GRID_N_MAX),
                                "--jobs", "1", "--json", "-"])
    return code, stdout.getvalue()


def numeric_c9(seed: int):
    from apery4 import apery_forms, zeta_forms
    rows = []
    for n, m in C9_CELLS:
        p = apery_forms.FormParameters(n, m)
        exact = apery_forms.left_form(p)
        rows.append((n, m, exact,
                     zeta_forms.evaluate_decimal(exact, C9_DIGITS),
                     apery_forms.left_form_numeric(p, C9_DIGITS),
                     apery_forms.right_form_numeric(p, C9_DIGITS)))
    return rows


def summand_audit(seed: int):
    from apery4 import apery_forms
    return apery_forms.audit_summands(n_max=AUDIT_N_MAX, samples=AUDIT_SAMPLES,
                                      seed=seed)


# -- checks: after the timed region --------------------------------------------

class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def significant_digits(value: Fraction, reference) -> int:
    """Largest d with |value - true| <= |true| / 10^d, certified by reference."""
    error = abs(value - reference.value()) + reference.error_bound
    size = abs(reference.value()) - reference.error_bound
    if error == 0:
        return REFERENCE_DIGITS
    digits = 0
    while error * 10 ** (digits + 1) <= size:
        digits += 1
    return digits


def check_grid(outputs, checks: Checks) -> dict:
    from apery4.recurrence_lab import recurrence_table
    code, text = outputs
    checks.expect(code == 0, f"verify-identity exit code {code}")
    try:
        report = json.loads(text)
        cells = {(c["n"], c["m"]): c for c in report["cells"]}
        count = len(report["cells"])
    except (ValueError, KeyError, TypeError) as exc:
        checks.expect(False, f"unreadable JSON report: {exc}")
        report, cells, count = text, {}, 0
    checks.expect(count == GRID_CELLS == len(cells),
                  f"{count} cells, expected {GRID_CELLS}")
    for (n, m), form in sorted(recurrence_table(GRID_N_MAX).items()):
        expected = form.to_mapping()
        cell = cells.get((n, m), {})
        for side in ("left", "right"):
            checks.expect(cell.get(side) == expected,
                          f"cell ({n},{m}) {side} differs from recurrence_table")
    if isinstance(report, dict):
        for cell in report.get("cells", []):
            cell.pop("elapsedMs", None)
    return {"canonical": report, "json_bytes": len(text.encode())}


def check_numeric(rows, checks: Checks) -> dict:
    from apery4.recurrence_lab import recurrence_table
    from apery4.zeta_forms import evaluate_decimal
    table = recurrence_table(max(n for n, _ in C9_CELLS))
    digits = []
    canonical = []
    for n, m, exact, decimal, left, right in rows:
        truth = table[(n, m)]
        checks.expect(exact == truth, f"left_form({n},{m}) differs from recurrence_table")
        reference = evaluate_decimal(truth, REFERENCE_DIGITS)
        for side, result in (("exact", decimal), ("left", left), ("right", right)):
            miss = abs(result.value() - reference.value()) + reference.error_bound
            checks.expect(miss <= result.error_bound,
                          f"({n},{m}) {side}: reference outside the error bound")
            digits.append(significant_digits(result.value(), reference))
        canonical.append([n, m, exact.to_mapping(), _fixed(decimal),
                          _fixed(left), _fixed(right)])
    return {"canonical": canonical, "sig_digits_min": min(digits)}


def check_audit(results, checks: Checks) -> dict:
    checks.expect(len(results) == AUDIT_CHECKS,
                  f"{len(results)} audit checks, expected {AUDIT_CHECKS}")
    for c in results:
        checks.expect(c.agree, f"{c.family} n={c.n} m={c.m} j={c.j} nu={c.nu} disagrees")
    canonical = [[c.family, c.n, c.m, c.j, c.nu, list(c.routes), list(c.values)]
                 for c in results]
    return {"canonical": canonical}


WORKLOADS = {
    "grid-exact": (grid_exact, check_grid),
    "numeric-c9": (numeric_c9, check_numeric),
    "summand-audit": (summand_audit, check_audit),
}


def main(argv: list[str]) -> int:
    root, workload, seed, trace = Path(argv[0]), argv[1], int(argv[2]), argv[3] == "1"
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import apery4.cli_report
    import apery4.recurrence_lab
    if Path(apery4.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"apery4 imported from {apery4.__file__}, not {src}")
    run, check = WORKLOADS[workload]

    tracer = counters = None
    if trace:
        import layers
        from spans import Tracer
        tracer = Tracer()
        counters = layers.install(tracer)

    start = time.perf_counter()
    outputs = run(seed)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
    checks = Checks()
    found = check(outputs, checks)
    canonical = json.dumps(found.pop("canonical"), sort_keys=True)
    record = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": hashlib.sha256(canonical.encode()).hexdigest(),
        "attempted": checks.attempted,
        "failures": checks.failures,
        **found,
    }
    if tracer is not None:
        record["layers"] = layers.layer_metrics(tracer.spans, counters,
                                                found.get("json_bytes", 0))
        # Only numeric-c9 produces decimals; elsewhere no digits are achieved.
        record["layers"]["apery_forms.numeric.sig_digits_min"] = found.get(
            "sig_digits_min", 0)
        record["spans"] = len(tracer.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
