"""Every function and method defined in ``src/apery4`` serves a production
path (ROADMAP aim 2: no API without a production caller).

A fresh interpreter runs, under ``sys.setprofile``, the four CLI commands at
tiny sizes, both numeric sides at (4, 1) and both split checks, and reports
every function of the package that was called.  It must be a fresh
interpreter: the memoized helpers (``_depth_factor``, ``_recursion_weights``,
``bernoulli_even``) run their bodies only on a cold cache.  The package's
functions are read off its compiled sources, nested ones included; lambdas
and comprehensions are left out.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "apery4"

# unreached on purpose, each with the reason it stays
ALLOWED = {
    # the dense types, kept while the benchmark's layer tracer wraps
    # LinearFactorProduct.expand and expand_parts by name (ROADMAP item 5)
    "polyrat.py": {"Polynomial.__init__", "Polynomial.coefficients", "Polynomial.degree",
                   "Polynomial.is_zero", "LinearFactorProduct.of",
                   "LinearFactorProduct.expand_parts", "LinearFactorProduct.expand",
                   "LinearFactorProduct.__init__", "RationalFunction.__init__",
                   # the value types' immutability, run only on misuse
                   "_Value.__setattr__",
                   # pickle and copy, hashing and messages: no command needs them
                   "_Value.__reduce__", "_Value.__hash__", "_Value.__repr__"},
    # criterion 9's comparison, which no command makes yet (ROADMAP item 4)
    "zeta_forms.py": {"FixedPointNumber.agrees_with"},
    # the independent grid route that the tests check the forms against
    "recurrence_lab.py": {"recurrence_table"},
}

DRIVER = r"""
import contextlib, io, json, os, sys, tempfile

package, reached = sys.argv[1], set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and os.path.dirname(code.co_filename) == package:
        reached.add((os.path.basename(code.co_filename), code.co_firstlineno))

sys.setprofile(profile)
from apery4 import (FormParameters, left_form_numeric, left_split_check,
                    right_form_numeric, right_split_check)
from apery4.cli_report import main

with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
    report = os.path.join(scratch, "grid")
    for argv in (["verify-identity", "--n-max", "2", "--jobs", "1",
                  "--json", report + ".json", "--csv", report + ".csv"],
                 ["verify-recurrences", "--suite", "all", "--n-max", "3"],
                 ["eval", "--n", "2", "--m", "1", "--digits", "10"],
                 ["summand-audit", "--n-max", "2", "--samples", "1"]):
        assert main(argv) == 0, argv
p = FormParameters(4, 1)
left_form_numeric(p)
right_form_numeric(p)
assert left_split_check(p) and right_split_check(p)
sys.setprofile(None)
print(json.dumps(sorted(reached)))
"""


def _defined(path: Path) -> dict[int, str]:
    """{first line: qualified name} of every function defined in ``path``:
    each code object nested in the compiled module, named after the classes
    and functions that hold it."""
    found, stack = {}, [("", compile(path.read_text(), str(path), "exec"))]
    while stack:
        prefix, code = stack.pop()
        for const in code.co_consts:
            if inspect.iscode(const) and not const.co_name.startswith("<"):
                name = prefix + const.co_name
                function = const.co_flags & inspect.CO_OPTIMIZED
                if function:
                    found[const.co_firstlineno] = name
                stack.append((name + (".<locals>." if function else "."), const))
    return found


def test_every_function_of_the_package_runs_on_a_production_path():
    run = subprocess.run([sys.executable, "-c", DRIVER, str(PACKAGE)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    reached = {tuple(key) for key in json.loads(run.stdout)}
    unreached = {path.name: {name for line, name in _defined(path).items()
                             if (path.name, line) not in reached}
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in unreached.items() if names} == ALLOWED
