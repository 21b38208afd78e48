"""Smoke test: every script in ``demos/`` runs to completion, and README's
library session runs as a doctest.

The demos assert their own claims and import private names of
:mod:`apery4.apery_forms`, so a refactor that breaks one shows up here.
"""

import doctest
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_session_runs():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted == 6 and result.failed == 0, result
