"""apery4 benchmark: cold-start workloads run by one client in a closed loop.

    python3 bench/run.py --workload grid-exact --seed 1 --seconds 30 --trace 0

Workloads, and why each is here:

* ``grid-exact``: ``apery4 verify-identity --n-max 12 --jobs 1 --json -``,
  91 cells, both sides.  The headline user path; ``partial_fractions``
  does most of the work and the right side's n+1 kernels per cell share
  denominators, so work that exploits shared structure shows here only.
  The grid is fixed, so the seed is unused.
* ``numeric-c9``: certified decimals of criterion 9's five cells, plus
  ``left_form_numeric`` and ``right_form_numeric`` at 30 digits.  The
  numeric streamer runs here and nowhere else.  The seed is unused.
* ``summand-audit``: ``audit_summands(n_max=10, samples=2, seed)``, 648
  pointwise comparisons.  Uses ``polyrat`` through pointwise derivative
  evaluation and no decomposition, unlike the grid.

Each iteration runs ``bench/child.py`` in a fresh interpreter, so every
cache starts cold, and the next starts only when the previous has ended
(one client, ``--jobs 1``).  Iterations repeat for ``--seconds``.  Every
iteration's outputs are checked against routes the workload did not use,
and all iterations of a run must produce identical outputs.

The speed of a core on a shared host changes by up to half within
seconds, so raw wall times of identical iterations scatter widely.  The
run therefore pins itself and its children to one core, and while an
iteration runs it times ``probe()``, a fixed bit of exact arithmetic, on
that core every ``PROBE_PERIOD_S``.  ``ref_wall_s`` is the iteration's wall
time scaled by ``REF_PROBE_S`` over the mean probe time: the wall time at a
fixed reference speed.  Raw wall times are kept in the full record.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``setup_s`` is the median of fresh ``import apery4.cli_report`` timings,
``ref_wall_s`` and ``peak_rss_mb`` are medians over iterations.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics, as medians over traced iterations;
``trace.overhead_ratio`` is the traced median ``ref_wall_s`` over the
untraced one.

A full record (raw samples, Python version, CPU count, commit, seed,
sample counts) goes to ``bench/out/BENCH_<workload>_seed<seed>_trace<t>.json``;
the last line of standard output is the summary JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("grid-exact", "numeric-c9", "summand-audit")
SETUP_RUNS = 15
RUN_BUDGET_S = 170.0      # every run must end within 180 s
PROBE_PERIOD_S = 0.05
REF_PROBE_S = 0.0003      # probe() on an unloaded core of a 2-core x86 VM
SETUP_SNIPPET = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import apery4.cli_report; "
                 "print(time.perf_counter() - t)")


class Run:
    """Samples and check tallies of one benchmark run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("PYTHONPATH", None)
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: set[str] = set()

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failures.append(what)

    def python(self, *args: str) -> tuple[str, list[float]] | None:
        """Stdout of a fresh interpreter and the probe times taken while it
        ran, or None after recording a failure."""
        with tempfile.TemporaryFile("w+", dir=OUT) as out, \
                tempfile.TemporaryFile("w+", dir=OUT) as err:
            child = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                     env=self.env, stdout=out, stderr=err)
            probes: list[float] = []
            try:
                while True:
                    probes.append(probe())
                    if child.poll() is not None or self.remaining() <= 0:
                        break
                    try:
                        child.wait(timeout=PROBE_PERIOD_S)
                    except subprocess.TimeoutExpired:
                        pass
            finally:
                timed_out = child.poll() is None
                if timed_out:
                    child.kill()
                    child.wait()
            if timed_out:
                self.fail(f"timed out: {args[:3]}")
                return None
            out.seek(0)
            err.seek(0)
            if child.returncode != 0:
                self.fail(f"exit {child.returncode}: {err.read().strip()[-400:]}")
                return None
            return out.read(), probes

    def setup_time(self) -> float | None:
        done = self.python("-c", SETUP_SNIPPET, str(SRC))
        return None if done is None else float(done[0].split()[-1])

    def iteration(self, traced: bool) -> dict | None:
        done = self.python(str(BENCH / "child.py"), str(ROOT), self.workload,
                           str(self.seed), "1" if traced else "0")
        if done is None:
            return None
        out, probes = done
        try:
            record = json.loads(out.splitlines()[-1])
        except (IndexError, ValueError):
            self.fail(f"unreadable iteration output: {out[-200:]!r}")
            return None
        # Wall time adds up the core's slowness over the iteration, so the
        # probes are averaged; the top and bottom tenth are dropped because
        # a probe can be preempted or interrupted.
        cut = len(probes) // 10
        record["probe_s"] = statistics.fmean(sorted(probes)[cut:len(probes) - cut])
        record["ref_wall_s"] = record["wall_s"] * REF_PROBE_S / record["probe_s"]
        self.attempted += record["attempted"]
        self.failures += record["failures"]
        # Traced or not, every iteration of a run must give the same outputs.
        if self.digests:
            self.attempted += 1
            if record["digest"] not in self.digests:
                self.failures.append("outputs differ between iterations")
        self.digests.add(record["digest"])
        return record


def probe() -> float:
    """Seconds a fixed bit of exact arithmetic takes: the core's speed now."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 60):
        total += Fraction(1, k * k)
    squares = 0
    for i in range(3000):
        squares += i * i
    return time.perf_counter() - start


def pin_to_current_core() -> int | None:
    """Keep this process and every child it starts on the core it runs on.

    Where that is not allowed, the probes still see the shared speed of the
    cores, only less closely.
    """
    try:
        with open("/proc/self/stat") as stat:
            core = int(stat.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {core})
    except OSError:
        return None
    return core


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "apery4" / "__init__.py").is_file():
        print(f"error: no apery4 sources under {SRC}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    OUT.mkdir(exist_ok=True)
    usable_cores = len(os.sched_getaffinity(0))
    core = pin_to_current_core()
    run = Run(args.workload, args.seed)
    setup: list[float] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    if not args.trace:
        run.setup_time()                       # writes bytecode; not counted
        for _ in range(SETUP_RUNS):
            sample = run.setup_time()
            if sample is not None:
                setup.append(sample)
    # Start another iteration only while it should end within --seconds,
    # so a run takes about --seconds whatever the iteration length.
    started = time.perf_counter()
    durations: list[float] = []
    while run.remaining() > 0:
        missing = not untraced or (args.trace and not traced)
        elapsed = time.perf_counter() - started
        projected = elapsed + (statistics.median(durations) if durations else 0.0)
        if projected > args.seconds and (not missing or run.failures):
            break
        want_trace = bool(args.trace) and len(traced) < len(untraced)
        began = time.perf_counter()
        record = run.iteration(want_trace)
        durations.append(time.perf_counter() - began)
        if record is not None:
            (traced if want_trace else untraced).append(record)
    if not untraced or (args.trace and not traced) or (not args.trace and not setup):
        print("error: no successful iteration; failures: "
              + "; ".join(run.failures[:5]), file=sys.stderr)
        return 1

    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_ratio"] = (median_of(traced, "ref_wall_s")
                                          / median_of(untraced, "ref_wall_s"))
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "ref_wall_s": median_of(untraced, "ref_wall_s"),
            "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    summary = {"correct": not run.failures, "attempted": run.attempted,
               "failed": len(run.failures), "metrics": metrics}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_usable": usable_cores,
        "pinned_core": core,
        "commit": commit(),
        "source_sha256": source_digest(),
        "sample_counts": {"setup": len(setup), "untraced": len(untraced),
                          "traced": len(traced)},
        "samples": {"setup_s": setup, "untraced": untraced, "traced": traced},
        "failures": run.failures,
        "summary": summary,
    }
    out_file = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
