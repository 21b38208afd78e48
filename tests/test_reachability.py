"""Every line of every function defined in ``src/apery4`` runs on a
production path (ROADMAP aim 2: no API, and no branch, without a production
caller).

A fresh interpreter runs, under ``sys.settrace``, the four CLI commands at
tiny sizes (``verify-identity`` once more with two workers, on a machine
pinned to two cores so the pool runs anywhere, ``verify-recurrences`` with
a JSON report, and ``summand-audit`` at two samples a family) and both
numeric sides at (4, 1) at 30 and at 150 decimals (the former reaches the
closure search's halving, the latter its doubling past an A that no depth
closes and its walk up), and reports every line of the package that ran.
Apart from ``main``, the driver calls only the numeric sides by hand
(criterion 9 has no command yet), and a test pins that list.  It must be a
fresh interpreter: the memoized helpers (``_depth_factor``,
``_recursion_weights``, ``_order_multipliers``, ``_bernoulli``) run their
bodies only on a cold cache.

A function's lines are those its compiled code (lambdas and comprehensions
included, nested functions apart) places below its signature, less the lines
of ``raise`` statements, ``except`` handlers and ``return NotImplemented``
(an operator's refusal, by Python's protocol): those run only on an input
that the package refuses.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "apery4"

_DENSE = ("the dense types, kept while the benchmark's layer tracer wraps "
          "LinearFactorProduct.expand and expand_parts by name (ROADMAP item 5)")
_MISUSE = "the value types' hashing and messages: no command needs them"

# functions with lines that no production path runs, each with the reason they stay
ALLOWED = {
    "polyrat.py": {
        **dict.fromkeys(("Polynomial.__init__", "Polynomial.coefficients",
                         "Polynomial.degree", "Polynomial.is_zero",
                         "LinearFactorProduct.__init__", "LinearFactorProduct.of",
                         "LinearFactorProduct.expand_parts", "LinearFactorProduct.expand",
                         "RationalFunction.__init__"), _DENSE),
        **dict.fromkeys(("_Value.__hash__", "_Value.__repr__"), _MISUSE),
        "_Value.__reduce__": "pickling, which verify-identity's workers need for the "
                             "records' forms; this guard does not trace worker processes",
    },
    "recurrence_lab.py": {
        "recurrence_holds": "its False verdict, which only values that break the "
                            "recurrence reach",
        "recurrence_table": "the independent grid route that the tests check the forms against",
    },
    "zeta_forms.py": {
        "_decimal_digits": "values past 603 digits: eval reaches them from --digits 600 "
                           "on, in 0.7 s, too long for this guard",
        "FixedPointNumber.agrees_with":
            "criterion 9's comparison, which no command makes yet (ROADMAP item 4)",
    },
}

DRIVER = r"""
import contextlib, io, json, os, sys, tempfile

package, reached = sys.argv[1] + os.sep, set()

def lines(frame, event, arg):
    if event == "line":
        reached.add((os.path.basename(frame.f_code.co_filename), frame.f_lineno))
    return lines

def calls(frame, event, arg):
    return lines if frame.f_code.co_filename.startswith(package) else None

sys.settrace(calls)
from apery4 import FormParameters, left_form_numeric, right_form_numeric
from apery4.cli_report import main

os.cpu_count = lambda: 2
with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
    report = os.path.join(scratch, "grid")
    for argv in (["verify-identity", "--n-max", "2", "--jobs", "1",
                  "--json", report + ".json", "--csv", report + ".csv"],
                 ["verify-identity", "--n-max", "2", "--jobs", "2"],
                 ["verify-recurrences", "--suite", "all", "--n-max", "3"],
                 ["verify-recurrences", "--suite", "binom-identity", "--n-max", "4",
                  "--json", report + ".json"],
                 ["eval", "--n", "2", "--m", "1", "--digits", "10"],
                 ["eval", "--n", "0", "--m", "0", "--digits", "10"],
                 ["summand-audit", "--n-max", "2", "--samples", "2"]):
        assert main(argv) == 0, argv
p = FormParameters(4, 1)
for digits in (30, 150):
    left_form_numeric(p, digits)
    right_form_numeric(p, digits)
sys.settrace(None)
print(json.dumps(sorted(reached)))
"""


def _body_lines(path: Path) -> dict[str, set[int]]:
    """{qualified name: lines of its body} of every function defined in
    ``path``: the lines of its code object and of the lambdas and
    comprehensions nested in it, from its first body statement on, less
    the lines of ``raise`` statements, ``except`` handlers and
    ``return NotImplemented``."""
    source = path.read_text()
    refused, body_start = set(), {}
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Raise, ast.ExceptHandler))
                or isinstance(node, ast.Return) and isinstance(node.value, ast.Name)
                and node.value.id == "NotImplemented"):
            refused.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            body_start[first] = node.body[0].lineno

    def own_lines(code) -> set[int]:
        found = {line for _, _, line in code.co_lines() if line is not None}
        for const in code.co_consts:
            if inspect.iscode(const) and const.co_name.startswith("<"):
                found |= own_lines(const)
        return found

    found, stack = {}, [("", compile(source, str(path), "exec"))]
    while stack:
        prefix, code = stack.pop()
        for const in code.co_consts:
            if inspect.iscode(const) and not const.co_name.startswith("<"):
                name = prefix + const.co_name
                function = const.co_flags & inspect.CO_OPTIMIZED
                if function:
                    start = body_start[const.co_firstlineno]
                    found[name] = {line for line in own_lines(const)
                                   if line >= start and line not in refused}
                stack.append((name + (".<locals>." if function else "."), const))
    return found


def test_every_line_of_the_package_runs_on_a_production_path():
    run = subprocess.run([sys.executable, "-c", DRIVER, str(PACKAGE)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    reached = {tuple(key) for key in json.loads(run.stdout)}
    unreached = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, lines in _body_lines(path).items():
            if missed := sorted(line for line in lines if (path.name, line) not in reached):
                unreached.setdefault(path.name, {})[name] = missed
    assert ({module: set(names) for module, names in unreached.items()}
            == {module: set(names) for module, names in ALLOWED.items()}), unreached


def test_the_driver_calls_only_main_and_the_numeric_sides():
    # a hand-driven call reaches lines that no command runs, so each name the
    # driver takes from the package is pinned here: the numeric sides stay
    # until criterion 9 has a command
    tree = ast.parse(DRIVER)
    assert not [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names if alias.name.split(".")[0] == "apery4"]
    assert sorted(alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "apery4"
                  for alias in node.names) == [
        "FormParameters", "left_form_numeric", "main", "right_form_numeric"]
