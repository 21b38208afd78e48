"""The apery4 layers as the traced benchmark run sees them.

Each of the six modules is a layer.  Every plain function in a module's
``__all__`` is traced, plus the two ``LinearFactorProduct`` methods that
expand kernels, so self times add up along the whole call tree.  Observers
read counters off arguments and results at the same boundaries; nothing
inside ``src/`` is touched.
"""

from __future__ import annotations

import inspect
import sys
from fractions import Fraction
from typing import Sequence

from spans import Span, Tracer, summarize

PACKAGE = "apery4"
MODULES = ("cli_report", "apery_forms", "polyrat", "zeta_forms",
           "exact_arith", "recurrence_lab")
METHODS = {"polyrat": ("LinearFactorProduct.expand",
                       "LinearFactorProduct.expand_parts")}
PRINTED = ("left_tail_summand", "left_mid_summand", "right_mid_summand",
           "right_low_summand")

# _series_tail_numeric evaluates derivatives up to order + 7 >= 8 at its
# cutoff and nowhere else, so those calls mark the streamer's cutoffs.
CLOSURE_MIN_ORDER = 8


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _argument(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class LayerCounters:
    """Counts read at the traced boundaries, in the units of the metrics."""

    def __init__(self) -> None:
        self.pf_poles = 0
        self.pf_candidates = 0
        self.pf_pole_order_max = 0
        self.pf_coeff_bits_max = 0
        self.expand_degree_max = 0
        self.zeta_keys: set[tuple[int, int]] = set()
        self.zeta_hits = 0
        self.harmonic_upper_max = 0
        self.closure_calls: list[tuple[int, int]] = []     # (parent span, x)
        self.numeric_starts: dict[int, int] = {}            # span -> first v

    def observers(self, tracer: Tracer) -> dict[str, object]:
        spans = tracer.spans

        def partial_fractions(span_id, args, kwargs, result) -> None:
            shifts = _argument(args, kwargs, 1, "candidate_shifts")
            if not isinstance(shifts, Sequence):
                raise TypeError("candidate shifts must be a sequence to be counted")
            self.pf_candidates += len({Fraction(s) for s in shifts})
            self.pf_poles += len(result.terms)
            for term in result.terms:
                self.pf_pole_order_max = max(self.pf_pole_order_max, term.order)
                for c in term.coefficients:
                    self.pf_coeff_bits_max = max(self.pf_coeff_bits_max,
                                                 c.numerator.bit_length(),
                                                 c.denominator.bit_length())

        def expand(span_id, args, kwargs, result) -> None:
            self.expand_degree_max = max(self.expand_degree_max,
                                         result.numerator.degree,
                                         result.denominator.degree)

        def zeta_value(span_id, args, kwargs, result) -> None:
            # zeta_value memoizes per (s, digits) for the life of the process
            # and the traced run starts cold, so a repeated key is a hit.
            key = (_argument(args, kwargs, 0, "s"),
                   _argument(args, kwargs, 1, "digits"))
            self.zeta_hits += key in self.zeta_keys
            self.zeta_keys.add(key)

        def harmonic(span_id, args, kwargs, result) -> None:
            self.harmonic_upper_max = max(self.harmonic_upper_max,
                                          _argument(args, kwargs, 1, "upper"))

        def derivative_values(span_id, args, kwargs, result) -> None:
            if _argument(args, kwargs, 3, "order") >= CLOSURE_MIN_ORDER:
                self.closure_calls.append((spans[span_id].parent,
                                           _argument(args, kwargs, 2, "x")))

        def numeric(first_offset):
            def observe(span_id, args, kwargs, result) -> None:
                p = _argument(args, kwargs, 0, "p")
                self.numeric_starts[span_id] = first_offset(p.n, p.m)
            return observe

        return {
            "polyrat.partial_fractions": partial_fractions,
            "polyrat.expand": expand,
            "zeta_forms.zeta_value": zeta_value,
            "exact_arith.harmonic": harmonic,
            "polyrat.factored_derivative_values": derivative_values,
            # first v of the streamed tail of each defining series
            "apery_forms.left_form_numeric": numeric(lambda n, m: 2 * n - m + 1),
            "apery_forms.right_form_numeric": numeric(lambda n, m: n + 1),
        }

    def streamed(self) -> tuple[int, int]:
        """(largest cutoff, terms streamed) over all numeric tail sums.

        Within one kernel the cutoff only doubles, so a cutoff that does not
        exceed the previous one under the same parent starts a new kernel;
        each kernel streams from its series' first v up to its last cutoff.
        """
        cutoff_max = terms = 0
        previous: dict[int, int] = {}
        last: dict[tuple[int, int], int] = {}
        kernels: dict[int, int] = {}
        for parent, x in self.closure_calls:
            cutoff_max = max(cutoff_max, x)
            if parent not in previous or x <= previous[parent]:
                kernels[parent] = kernels.get(parent, -1) + 1
            previous[parent] = x
            last[(parent, kernels[parent])] = x
        for (parent, _), cutoff in last.items():
            terms += cutoff - self.numeric_starts[parent]
        return cutoff_max, terms


def install(tracer: Tracer) -> LayerCounters:
    """Import every layer, trace its public functions, prove the cover."""
    counters = LayerCounters()
    observers = counters.observers(tracer)
    # Import every layer first: install() patches the copies of a binding
    # that exist in the modules imported so far.
    for short in MODULES:
        __import__(f"{PACKAGE}.{short}")
    for short in MODULES:
        module_name = f"{PACKAGE}.{short}"
        module = sys.modules[module_name]
        attrs = [a for a in module.__all__
                 if inspect.isfunction(getattr(module, a))]
        for attr in attrs + list(METHODS.get(short, ())):
            name = span_name(short, attr)
            tracer.install(PACKAGE, module_name, attr, name, observers.get(name))
    tracer.require_complete(PACKAGE)
    return counters


def layer_metrics(spans: Sequence[Span], counters: LayerCounters,
                  json_bytes: int) -> dict[str, float]:
    """Per-layer metric values of one traced iteration, by metric name."""
    totals = summarize(spans)

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    def self_s(*names: str) -> float:
        return sum(totals.get(name, (0, 0.0))[1] for name in names)

    cutoff_max, streamed_terms = counters.streamed()
    zeta_calls = calls("zeta_forms.zeta_value")
    out = {
        "cli_report.main.self_s": self_s("cli_report.main"),
        "cli_report.json_bytes": json_bytes,
        "apery_forms.numeric.cutoff_max": cutoff_max,
        "apery_forms.numeric.streamed_terms": streamed_terms,
        "apery_forms.printed.self_s": self_s(*(f"apery_forms.{f}" for f in PRINTED)),
        "apery_forms.verify_cell.calls": calls("apery_forms.verify_cell"),
        "polyrat.pf.poles": counters.pf_poles,
        "polyrat.pf.candidates": counters.pf_candidates,
        "polyrat.pf.pole_order_max": counters.pf_pole_order_max,
        "polyrat.pf.coeff_bits_max": counters.pf_coeff_bits_max,
        "polyrat.pf.candidate_hit_ratio": (counters.pf_poles / counters.pf_candidates
                                           if counters.pf_candidates else 0.0),
        "polyrat.expand.degree_max": counters.expand_degree_max,
        "zeta_forms.zeta_value.calls": zeta_calls,
        "zeta_forms.zeta_value.hit_ratio": (counters.zeta_hits / zeta_calls
                                            if zeta_calls else 0.0),
        "exact_arith.harmonic.upper_max": counters.harmonic_upper_max,
    }
    for name in ("apery_forms.left_form", "apery_forms.right_form",
                 "apery_forms.left_form_numeric", "apery_forms.right_form_numeric",
                 "apery_forms.audit_summands", "zeta_forms.evaluate_decimal",
                 "zeta_forms.zeta_value", "exact_arith.harmonic"):
        out[f"{name}.self_s"] = self_s(name)
    for name in ("polyrat.expand", "polyrat.expand_parts",
                 "polyrat.partial_fractions", "polyrat.factored_derivative_values",
                 "zeta_forms.derivative_tail_sum", "zeta_forms.tail_power_sum",
                 "recurrence_lab.recurrence_holds"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in ("exact_arith.harmonic", "exact_arith.pochhammer",
                 "exact_arith.factorial"):
        out[f"{name}.calls"] = calls(name)
    return out
