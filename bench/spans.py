"""In-memory span tracing by wrapping a package's functions at every binding.

A :class:`Tracer` replaces each target function with a wrapper that records
one span per call: ``(name, start, end, parent)``, where ``parent`` is the
index of the enclosing traced span (``None`` at top level).  Spans stay in
memory; :func:`self_times` turns them into per-span self time, which is the
span's duration minus the part of its interval covered by child spans.

``from .x import f`` copies the binding of ``f`` into the importing module,
so patching ``x.f`` alone would miss calls made through the copy.
:meth:`Tracer.install` therefore replaces the function in every module of
the package that binds it, and :meth:`Tracer.unwrapped_bindings` scans the
package again to prove that no module or class still holds an original.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, NamedTuple, Sequence


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None


Observer = Callable[[int, tuple, dict, object], None]


def package_modules(package: str) -> list:
    """Every imported module of ``package``, the package itself included."""
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == package or name.startswith(package + "."))]


class Tracer:
    """Records spans for the functions it wraps; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: dict[int, tuple[Callable, str]] = {}
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str,
             observe: Observer | None = None) -> Callable:
        """A wrapper of ``fn`` that records a span named ``name`` per call.

        ``observe(span_id, args, kwargs, result)`` runs after a call that
        returned, so counters can be read off arguments and results.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(Span(name, 0.0, 0.0, parent))
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = Span(name, start, end, parent)
            if observe is not None:
                observe(span_id, args, kwargs, result)
            return result

        return traced

    def install(self, package: str, module_name: str, attr: str, name: str,
                observe: Observer | None = None) -> None:
        """Trace ``module_name.attr`` wherever the package binds it.

        ``attr`` is a module-level function, or ``Class.method`` for a plain
        method, which is patched on the class that defines it.
        """
        module = sys.modules[module_name]
        if "." in attr:
            class_name, method = attr.split(".")
            owner = getattr(module, class_name)
            original = vars(owner)[method]
            if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"{module_name}.{attr} is not a plain method")
            owners = [(owner, method)]
        else:
            original = getattr(module, attr)
            owners = [(mod, key) for mod in package_modules(package)
                      for key, value in list(vars(mod).items())
                      if value is original]
        if id(original) in self._originals:
            raise ValueError(f"{module_name}.{attr} is already traced")
        self._originals[id(original)] = (original, name)
        wrapper = self.wrap(original, name, observe)
        for owner, key in owners:
            self._patched.append((owner, key, original))
            setattr(owner, key, wrapper)

    def unwrapped_bindings(self, package: str) -> list[str]:
        """Module and class attributes of ``package`` still bound to an original."""
        missed: list[str] = []
        seen_classes: set[int] = set()
        for module in package_modules(package):
            for key, value in vars(module).items():
                if id(value) in self._originals and self._is_original(value):
                    missed.append(f"{module.__name__}.{key}")
                if isinstance(value, type) and id(value) not in seen_classes:
                    seen_classes.add(id(value))
                    for attr, member in vars(value).items():
                        if id(member) in self._originals and self._is_original(member):
                            missed.append(f"{value.__module__}.{value.__qualname__}.{attr}")
        return missed

    def _is_original(self, value: object) -> bool:
        return self._originals[id(value)][0] is value

    def require_complete(self, package: str) -> None:
        """Raise if any binding of a traced function escaped the wrappers."""
        missed = self.unwrapped_bindings(package)
        if missed:
            raise RuntimeError("untraced bindings: " + ", ".join(missed))

    def uninstall(self) -> None:
        """Put every original back where :meth:`install` found it."""
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()
        self._originals.clear()


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that child spans cover.

    Children of one span are merged as intervals and clipped to the parent,
    so overlapping or overhanging children are not counted twice.
    """
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out: list[float] = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[index], key=lambda c: spans[c].start):
            low = max(spans[child].start, reach)
            high = min(spans[child].end, span.end)
            if high > low:
                covered += high - low
                reach = high
        out.append((span.end - span.start) - covered)
    return out


def summarize(spans: Sequence[Span]) -> dict[str, tuple[int, float]]:
    """{name: (calls, total self time in seconds)} over all spans."""
    totals: dict[str, tuple[int, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        calls, seconds = totals.get(span.name, (0, 0.0))
        totals[span.name] = (calls + 1, seconds + own)
    return totals
