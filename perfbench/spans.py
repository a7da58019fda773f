"""In-memory spans around the calls the benchmark makes into each sarcs layer.

Nothing inside the package is instrumented. The benchmark times a layer
by calling it inside ``Tracer.span``, by handing ``cosamp`` a
``TracedOperator`` in place of the real operator, or by swapping a
module attribute (``sarcs.cli.load_config``, ``sarcs.storage.read_echo``,
...) for a timed wrapper while a traced command runs.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Span and counter store for one benchmark process.

    A span is (name, start, end, parent, op): ``parent`` is the index of
    the enclosing span or -1, and ``op`` numbers the timed operation
    (one trial or one CLI command) that caused it.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[self.op][name] += value

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` timed as span ``name``; ``on_call(args, result)`` may count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[i]
        return dict(totals)

    def op_counts(self, name: str) -> list[float]:
        """Per-operation values of counter ``name``, in operation order."""
        return [self.counts[op].get(name, 0.0) for op in sorted(self.counts)]

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]


@contextlib.contextmanager
def patched(replacements):
    """Set ``(module, attribute, value)`` triples, restoring them on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class TracedOperator:
    """Timing proxy passed to ``cosamp`` as its duck-typed ``op``.

    The restricted row cache is built here, explicitly, through
    ``columns`` on an empty index array, so its cost shows as its own
    span instead of inside the first ``column_norms`` or ``forward``.
    """

    def __init__(self, op, tracer: Tracer) -> None:
        self.grid = op.grid
        self.n_rows = op.n_rows
        self.n_cols = op.n_cols
        self.forward = tracer.wrap("operator.forward", op.forward)
        self.adjoint = tracer.wrap(
            "operator.adjoint", op.adjoint, lambda args, result: tracer.count("adjoint_calls")
        )
        self.columns = tracer.wrap("operator.columns", op.columns)
        self.column_norms = tracer.wrap("operator.column_norms", op.column_norms)
        if op.cache_policy == "full-row-cache":
            with tracer.span("operator.cache_build"):
                op.columns(np.empty(0, dtype=np.int64))
            tracer.count("kernel_samples", op.n_rows * op.n_cols)
            tracer.count("cache_bytes", 16 * op.n_rows * op.n_cols)


def count_cosamp(tracer: Tracer, diag) -> None:
    """Record what one ``cosamp`` run did, from its diagnostics."""
    tracer.count("cosamp_runs")
    tracer.count("iterations", diag.iterations)
    tracer.count("dropped_columns", len(diag.dropped_columns))
    tracer.count("halt." + diag.halt_reason)
