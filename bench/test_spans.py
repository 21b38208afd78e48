"""Tests of the benchmark's tracing: self-time arithmetic and wrapper cover.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import sys
import types
import unittest
from fractions import Fraction
from pathlib import Path

from spans import Span, Tracer, self_times, summarize

ROOT = Path(__file__).resolve().parent.parent


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent_only(self):
        spans = [Span("root", 0.0, 10.0, None),
                 Span("a", 1.0, 3.0, 0),
                 Span("a.inner", 1.5, 2.0, 1),
                 Span("b", 5.0, 6.0, 0)]
        self.assertEqual(self_times(spans), [7.0, 1.5, 0.5, 1.0])

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [Span("root", 0.0, 10.0, None),
                 Span("a", 1.0, 4.0, 0),
                 Span("b", 3.0, 6.0, 0),
                 Span("c", 9.0, 12.0, 0)]
        self.assertEqual(self_times(spans)[0], 10.0 - 5.0 - 1.0)

    def test_summarize_adds_calls_and_self_time_per_name(self):
        spans = [Span("f", 0.0, 4.0, None),
                 Span("g", 1.0, 2.0, 0),
                 Span("g", 2.0, 3.5, 0)]
        self.assertEqual(summarize(spans), {"f": (1, 1.5), "g": (2, 2.5)})

    def test_tracer_records_nesting_with_its_clock(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap(lambda x: x + 1, "inner")
        outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
        self.assertEqual(outer(1), 4)
        self.assertEqual(tracer.spans, [Span("outer", 0.0, 3.0, None),
                                        Span("inner", 1.0, 2.0, 0)])
        self.assertEqual(self_times(tracer.spans), [2.0, 1.0])

    def test_span_is_closed_when_the_call_raises(self):
        tracer = Tracer()
        boom = tracer.wrap(lambda: 1 / 0, "boom")
        with self.assertRaises(ZeroDivisionError):
            boom()
        self.assertGreaterEqual(tracer.spans[0].end, tracer.spans[0].start)
        self.assertEqual(tracer._stack, [])


def _fake_package() -> dict[str, types.ModuleType]:
    """pkg.a defines f and C; pkg.b and pkg copy f as `from .a import f` does."""
    a = types.ModuleType("pkg.a")
    exec("def f(x):\n    return x + 1\n"
         "class C:\n    def m(self):\n        return f(1)\n", a.__dict__)
    b = types.ModuleType("pkg.b")
    b.f = a.f
    exec("def g():\n    return f(2)\n", b.__dict__)
    pkg = types.ModuleType("pkg")
    pkg.f, pkg.C = a.f, a.C
    return {"pkg": pkg, "pkg.a": a, "pkg.b": b}


class WrapperCoverTest(unittest.TestCase):
    def setUp(self):
        self.modules = _fake_package()
        sys.modules.update(self.modules)
        self.addCleanup(lambda: [sys.modules.pop(name) for name in self.modules])
        self.original = self.modules["pkg.a"].f

    def test_every_copy_of_a_binding_is_wrapped(self):
        tracer = Tracer()
        tracer.install("pkg", "pkg.a", "f", "a.f")
        tracer.install("pkg", "pkg.a", "C.m", "a.m")
        self.assertEqual(tracer.unwrapped_bindings("pkg"), [])
        tracer.require_complete("pkg")
        self.assertEqual(self.modules["pkg.b"].g(), 3)
        self.assertEqual(self.modules["pkg"].C().m(), 2)
        self.assertEqual([s.name for s in tracer.spans], ["a.f", "a.m", "a.f"])
        self.assertEqual(tracer.spans[2].parent, 1)

    def test_a_missed_binding_is_reported(self):
        tracer = Tracer()
        tracer.install("pkg", "pkg.a", "f", "a.f")
        self.modules["pkg.b"].f = self.original
        self.assertEqual(tracer.unwrapped_bindings("pkg"), ["pkg.b.f"])
        with self.assertRaisesRegex(RuntimeError, "pkg.b.f"):
            tracer.require_complete("pkg")

    def test_a_missed_method_is_reported(self):
        tracer = Tracer()
        tracer.install("pkg", "pkg.a", "C.m", "a.m")
        method = self.modules["pkg.a"].C.m
        self.modules["pkg.a"].C.m = method.__wrapped__
        self.assertEqual(tracer.unwrapped_bindings("pkg"), ["pkg.a.C.m"])

    def test_uninstall_restores_every_original(self):
        tracer = Tracer()
        tracer.install("pkg", "pkg.a", "f", "a.f")
        tracer.uninstall()
        for module in self.modules.values():
            self.assertIs(module.f, self.original)
        self.assertEqual(self.modules["pkg.b"].g(), 3)
        self.assertEqual(tracer.spans, [])


class Apery4LayersTest(unittest.TestCase):
    def setUp(self):
        sys.path.insert(0, str(ROOT / "src"))
        self.addCleanup(sys.path.remove, str(ROOT / "src"))
        import layers
        self.layers = layers
        self.tracer = Tracer()
        self.counters = layers.install(self.tracer)
        self.addCleanup(self.tracer.uninstall)

    def test_calls_through_copied_bindings_are_traced(self):
        from apery4 import apery_forms, cli_report
        self.assertIsNot(cli_report.verify_cell, apery_forms.verify_cell.__wrapped__)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_report.main(["verify-identity", "--n-max", "1",
                                    "--jobs", "1", "--json", "-"])
        self.assertEqual(code, 0)
        totals = summarize(self.tracer.spans)
        self.assertEqual(totals["cli_report.main"][0], 1)
        self.assertEqual(totals["apery_forms.verify_cell"][0], 3)
        metrics = self.layers.layer_metrics(self.tracer.spans, self.counters, 0)
        self.assertEqual(metrics["apery_forms.verify_cell.calls"], 3)
        self.assertEqual(metrics["polyrat.partial_fractions.calls"], 8)
        self.assertEqual(metrics["polyrat.pf.candidate_hit_ratio"], 1.0)

    def test_streamed_terms_split_kernels_where_the_cutoff_restarts(self):
        counters = self.layers.LayerCounters()
        counters.numeric_starts = {4: 3}
        counters.closure_calls = [(4, 8192), (4, 16384), (4, 8192)]
        self.assertEqual(counters.streamed(), (16384, (16384 - 3) + (8192 - 3)))


class SignificantDigitsTest(unittest.TestCase):
    def test_digits_are_certified_against_the_reference(self):
        from child import significant_digits
        reference = types.SimpleNamespace(value=lambda: Fraction(1, 8),
                                          error_bound=Fraction(0))
        self.assertEqual(significant_digits(Fraction(1, 8) + Fraction(1, 10**5), reference), 4)
        exact = types.SimpleNamespace(value=lambda: Fraction(1, 8),
                                      error_bound=Fraction(1, 10**9))
        self.assertEqual(significant_digits(Fraction(1, 8), exact), 8)


if __name__ == "__main__":
    unittest.main()
