"""Unit tests for the command-line interface (driven in-process)."""

import concurrent.futures
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import apery4
from apery4 import (FormParameters, ZetaLinearForm, apery_forms, cli_report, left_form,
                    right_form, verify_cell)
from apery4.cli_report import main


def test_verify_identity_text_report(capsys):
    assert main(["verify-identity", "--n-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "cell n= 2 m= 1" in out
    assert "identity=True pure=True recurrence=n/a" in out
    assert "identity=True pure=True recurrence=True" in out  # (2, 0)
    assert "6 cells up to n = 2: all verified" in out


def test_verify_identity_names_the_slowest_cell(capsys, monkeypatch):
    # the closing line reads the slowest cell off the per-cell elapsedMs
    def timed(n, m):
        return {**verify_cell(n, m), "elapsedMs": 40.3 if (n, m) == (2, 1) else 1.0}

    monkeypatch.setattr(cli_report, "verify_cell", timed)
    assert main(["verify-identity", "--n-max", "2"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("6 cells up to n = 2: all verified (")
    assert last.endswith("s; slowest cell (2, 1) 40.3ms)")


# sha256 of ``verify-identity --n-max 12 --jobs 1 --json -`` with every
# "elapsedMs" entry cut out: the byte-exact report of the exact route
PINNED_REPORT_SHA256 = "c524d143ddaaf71eb335ad3b4b4da37d9a7d1038027ae5c324392ffd7f88eff5"


def test_verify_identity_report_is_pinned_to_n_12(capsys):
    assert main(["verify-identity", "--n-max", "12", "--jobs", "1", "--json", "-"]) == 0
    raw = capsys.readouterr().out.encode()
    assert raw.count(b'"elapsedMs":') == 91
    stripped = re.sub(rb'"elapsedMs":[^,}]*,?', b"", raw)
    assert hashlib.sha256(stripped).hexdigest() == PINNED_REPORT_SHA256


def test_verify_identity_json_report_is_canonical(capsys):
    assert main(["verify-identity", "--n-max", "1", "--json", "-"]) == 0
    raw = capsys.readouterr().out.strip()
    payload = json.loads(raw)
    assert raw == json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert sorted(payload) == ["cells", "configEcho", "summary", "toolVersion"]
    assert payload["summary"] == {"total": 3, "passed": 3, "failed": 0}
    assert payload["configEcho"]["nMax"] == 1
    assert payload["configEcho"]["command"] == "verify-identity"
    cells = payload["cells"]
    assert [(c["n"], c["m"]) for c in cells] == [(0, 0), (1, 0), (1, 1)]
    assert cells[0]["left"] == cells[0]["right"] == {"z4": "1"}
    assert cells[1]["left"] == {"c0": "277/16", "z4": "-16"}
    assert all(c["identityPass"] and c["pureWeight4"] for c in cells)
    assert all(c["recurrencePass"] is None for c in cells)  # rows too short
    assert all(c["elapsedMs"] >= 0 for c in cells)


def test_verify_identity_smallest_grid(capsys):
    assert main(["verify-identity", "--n-max", "0", "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"] == {"total": 1, "passed": 1, "failed": 0}


def test_verify_identity_json_and_csv_files(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    assert main(["verify-identity", "--n-max", "2",
                 "--json", str(json_path), "--csv", str(csv_path)]) == 0
    assert "6 cells up to n = 2" in capsys.readouterr().out  # text still shown
    payload = json.loads(json_path.read_text())
    assert payload["summary"]["total"] == 6
    recurrence = {(c["n"], c["m"]): c["recurrencePass"]
                  for c in payload["cells"]}
    assert recurrence[(2, 0)] is True
    assert recurrence[(2, 1)] is None
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,m,constant,zeta4,identityPass,recurrencePass"
    assert lines[1] == "0,0,0,1,true,"
    assert lines[4] == "2,0,-9695399/6912,1296,true,true"
    assert len(lines) == 7


def test_verify_identity_parallel_jobs(capsys):
    assert main(["verify-identity", "--n-max", "1", "--jobs", "2"]) == 0
    assert "all verified" in capsys.readouterr().out


def test_pooled_report_equals_the_serial_one(capsys, monkeypatch):
    # the workers' forms come back pickled: the same report bytes as one
    # process, once elapsedMs and the echoed --jobs are cut out
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(cli_report.os, "cpu_count", lambda: 2)   # a pool on any machine
    reports = []
    for jobs in ("1", "2"):
        assert main(["verify-identity", "--n-max", "4", "--jobs", jobs, "--json", "-"]) == 0
        raw = capsys.readouterr().out
        assert raw.count(f'"jobs":{jobs},') == 1
        reports.append(re.sub(r'"elapsedMs":[^,}]*,?|"jobs":\d+,', "", raw))
    assert pools == [2]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("jobs, n_max, cpus, workers", [
    (64, 3, 4, 4),          # bounded by the cores
    (64, 1, 8, 3),          # bounded by the cells
    (3, 5, 8, 3),           # as asked
    (64, 3, None, None),    # cores unknown: one, so no pool
    (2, 0, 8, None),        # one cell: no pool
])
def test_pool_is_bounded_by_cells_and_cores(jobs, n_max, cpus, workers, monkeypatch):
    sizes = []

    class RecordingPool:
        """Records its size and maps in this process: it forks nothing."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli_report.os, "cpu_count", lambda: cpus)
    records = cli_report._grid_records(n_max, jobs)
    assert sizes == ([workers] if workers else [])
    assert [(r["n"], r["m"]) for r in records] == [
        (n, m) for n in range(n_max + 1) for m in range(n + 1)]


def test_jobs_default_to_one_whatever_the_environment(capsys, monkeypatch):
    # --jobs is the one worker-count setting: no environment variable is read
    monkeypatch.setenv("APERY4_JOBS", "abc")
    assert main(["verify-identity", "--n-max", "1", "--json", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["configEcho"]["jobs"] == 1


@pytest.mark.parametrize("suite,n_max", [
    ("main", 4), ("boundary-m0", 2), ("boundary-zr", 1),
    ("closed-forms", 3), ("binom-identity", 6),
])
def test_verify_recurrences_suites(capsys, suite, n_max):
    assert main(["verify-recurrences", "--suite", suite, "--n-max", str(n_max)]) == 0
    out = capsys.readouterr().out
    assert f"suite {suite}" in out
    assert "fail=0" in out and "all suites pass" in out


def test_verify_recurrences_all(capsys):
    assert main(["verify-recurrences", "--suite", "all", "--n-max", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("suite ") == 5


def test_verify_recurrences_all_computes_each_left_cell_once(capsys, monkeypatch):
    # "main", "closed-forms" and "boundary-m0" all read cells (n, 0), which
    # "boundary-m0" needs up to n_max + 1; "boundary-zr" reads the right
    # side's (n, 0) up to n_max + 2
    calls = {"left": [], "right": []}

    def counted(side, form):
        def spy(p):
            calls[side].append((p.n, p.m))
            return form(p)
        return spy

    monkeypatch.setattr(cli_report, "left_form", counted("left", left_form))
    monkeypatch.setattr(cli_report, "right_form", counted("right", right_form))
    assert main(["verify-recurrences", "--suite", "all", "--n-max", "4"]) == 0
    assert "all suites pass" in capsys.readouterr().out
    assert sorted(calls["left"]) == [(n, m) for n in range(5) for m in range(n + 1)] + [(5, 0)]
    assert sorted(calls["right"]) == [(n, 0) for n in range(7)]


def test_verify_recurrences_json_report(capsys):
    assert main(["verify-recurrences", "--suite", "closed-forms",
                 "--n-max", "3", "--json", "-"]) == 0
    raw = capsys.readouterr().out.strip()
    payload = json.loads(raw)
    assert raw == json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert payload["suites"] == [
        {"suite": "closed-forms", "checks": 7, "passed": 7, "failed": 0}]
    assert payload["summary"] == {"total": 7, "passed": 7, "failed": 0}
    assert payload["configEcho"]["suite"] == "closed-forms"
    assert payload["toolVersion"]


def test_eval_prints_exact_and_decimal(capsys):
    assert main(["eval", "--n", "1", "--m", "0", "--digits", "10"]) == 0
    out = capsys.readouterr().out
    assert "Z(1, 0) = 277/16 - 16*zeta(4)" in out
    assert "constant    = 277/16" in out
    assert "zeta(4)     = -16" in out
    assert "-0.0046717394" in out


def test_eval_rejects_out_of_domain(capsys):
    assert main(["eval", "--n", "1", "--m", "3"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "0 <= m <= n" in err


def test_summand_audit_deterministic_across_runs(capsys):
    assert main(["summand-audit", "--n-max", "3", "--samples", "1",
                 "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["summand-audit", "--n-max", "3", "--samples", "1",
                 "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "0 disagreements" in first


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify-identity", "--bogus"])
    assert excinfo.value.code == 2


def test_recurrence_checks_the_right_values(capsys, monkeypatch):
    def corrupted(n, m):
        record = verify_cell(n, m)
        if (n, m) == (2, 1):
            record["right"] = ZetaLinearForm(Fraction(0), record["right"].zeta_coefficients)
        return record

    monkeypatch.setattr(cli_report, "verify_cell", corrupted)
    assert main(["verify-identity", "--n-max", "2"]) == 1
    out = capsys.readouterr().out
    assert ("cell n= 2 m= 0  FAIL  identity=True pure=True recurrence=False"
            in out)
    assert "FAILURES FOUND" in out


def test_a_failed_certificate_exits_1_naming_cell_and_side(capsys, monkeypatch):
    # a certificate that does not hold is a failed verification, not a usage error
    honest = apery_forms._LocalExpansion.part
    tampered = apery_forms.right_kernel(FormParameters(2, 1))

    def off_by_one(self, shift, order):
        numerators, den = honest(self, shift, order)
        return (([numerators[0] + 1] + numerators[1:], den) if self.kernel == tampered
                else (numerators, den))

    monkeypatch.setattr(apery_forms._LocalExpansion, "part", off_by_one)
    assert main(["verify-identity", "--n-max", "2"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: right side of cell (n, m) = (2, 1): ")


@pytest.mark.parametrize("argv", [
    ["verify-identity", "--n-max", "-1"],
    ["verify-recurrences", "--suite", "binom-identity", "--n-max", "-5"],
    ["summand-audit", "--n-max", "-3"],
    ["eval", "--n", "1", "--m", "0", "--digits", "0"],
    ["summand-audit", "--samples", "-1"],
    ["verify-identity", "--n-max", "1", "--jobs", "-4"],
    ["verify-identity", "--n-max", "1", "--json", "{missing}/report.json"],
    ["verify-identity", "--n-max", "1", "--csv", "{missing}/report.csv"],
], ids=["verify-identity-n-max", "verify-recurrences-n-max", "summand-audit-n-max",
        "eval-digits", "summand-audit-samples", "jobs", "json-path", "csv-path"])
def test_usage_errors_exit_2_with_one_error_line(argv, tmp_path, capsys):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert captured.out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["verify-identity", "--n-max", "2", "--json", "/dev/full"],
    ["verify-identity", "--n-max", "2", "--csv", "/dev/full"],
    ["verify-recurrences", "--suite", "closed-forms", "--n-max", "2", "--json", "/dev/full"],
], ids=["verify-identity-json", "verify-identity-csv", "verify-recurrences-json"])
def test_a_report_that_cannot_be_written_exits_2(argv, capsys):
    # /dev/full opens but refuses every write: the work is done and the
    # report is lost, one error line and no traceback
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: cannot write /dev/full: ")
    assert captured.out == ""


class _FullStdout(io.StringIO):
    """A stdout on a full device: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", [
    ["verify-identity", "--n-max", "2", "--json", "-"],
    ["verify-identity", "--n-max", "2", "--csv", "-"],
    ["verify-identity", "--n-max", "2"],
    ["verify-recurrences", "--suite", "closed-forms", "--n-max", "2"],
    ["verify-recurrences", "--suite", "closed-forms", "--n-max", "2", "--json", "-"],
    ["eval", "--n", "2", "--m", "1"],
    ["summand-audit", "--n-max", "1"],
], ids=["verify-identity-json", "verify-identity-csv", "verify-identity-text",
        "verify-recurrences-text", "verify-recurrences-json", "eval", "summand-audit"])
def test_a_report_that_cannot_reach_stdout_exits_2(argv, capsys, monkeypatch):
    # the work is done and the report is lost: one error line, no traceback
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("report", [["--json", "-"], ["--csv", "-"], []],
                         ids=["json", "csv", "text"])
def test_stdout_on_a_full_device_exits_2(report):
    # end to end, through the interpreter's own flush at exit
    source = str(Path(apery4.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (source, os.environ.get("PYTHONPATH")))))
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "apery4", "verify-identity",
                               "--n-max", "1", *report],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert done.stderr == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


def test_import_loads_no_process_pool():
    # only a run that forks imports the pool, and multiprocessing with it
    source = str(Path(apery4.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import apery4.cli_report; "
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing') "
            "or m == 'concurrent.futures.process'))")
    done = subprocess.run([sys.executable, "-c", code, source],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_import_loads_no_code_generator_or_csv():
    # the value types are plain slotted classes and only --csv loads csv;
    # modules a site hook loaded before the import are not counted
    source = str(Path(apery4.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import apery4.cli_report; added = set(sys.modules) - before; "
            "print(sorted(added & {'dataclasses', 'inspect', 'csv'}))")
    done = subprocess.run([sys.executable, "-c", code, source],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_json_and_csv_cannot_share_stdout(monkeypatch, capsys):
    # both reports on one stream would parse as neither format
    calls = []
    monkeypatch.setattr(cli_report, "verify_cell", lambda n, m: calls.append((n, m)))
    assert main(["verify-identity", "--n-max", "1", "--json", "-", "--csv", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --json and --csv cannot both write to stdout\n"
    assert captured.out == "" and calls == []


def test_a_usage_error_keeps_an_existing_report(tmp_path, capsys):
    # the paths are checked before any work, without truncating an old report
    old = tmp_path / "old.json"
    old.write_text('{"old": "report"}')
    argv = ["verify-identity", "--n-max", "1", "--json", str(old),
            "--csv", str(tmp_path / "missing" / "x.csv")]
    assert main(argv) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert old.read_text() == '{"old": "report"}'


def test_a_usage_error_leaves_no_new_report(tmp_path, capsys):
    # a good --json path checked before a bad --csv path is not created
    new = tmp_path / "new.json"
    argv = ["verify-identity", "--n-max", "1", "--json", str(new),
            "--csv", str(tmp_path / "missing" / "x.csv")]
    assert main(argv) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not new.exists()


def test_json_and_csv_cannot_share_a_file(tmp_path, monkeypatch, capsys):
    # the CSV would silently overwrite the JSON report
    calls = []
    monkeypatch.setattr(cli_report, "verify_cell", lambda n, m: calls.append((n, m)))
    path = str(tmp_path / "report")
    assert main(["verify-identity", "--n-max", "1", "--json", path, "--csv", path]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert captured.out == "" and calls == []


@pytest.mark.parametrize("n_max, code", [("1", 0), ("-1", 2)])
def test_module_entry_point_runs_from_a_checkout(n_max, code):
    # python -m apery4 needs no installed script, only the package on the path
    source = str(Path(apery4.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (source, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "apery4", "summand-audit", "--n-max", n_max],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == code, done.stderr
    if code:
        assert done.stdout == "" and len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("error: ")
    else:
        assert done.stdout and done.stderr == ""
