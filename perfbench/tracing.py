"""Spans around the public functions of each gqdkit module, from outside src/.

`Tracer.install` wraps each traced function and rebinds the name in every
gqdkit module that holds it (so `estimator.joint_distribution` and
`estimator.standard_layouts` are traced too, not only the defining module's
name). Spans are recorded only while an op is open, kept in memory, and
reduced to per-op calls and self time at the end. Self time is a span's
duration minus its child spans' durations; the tracer is single-threaded and
each span closes before its parent does, so children nest inside their parent
and never overlap one another.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

TRACED = {
    "statekit": ("decompose", "make_family"),
    "pairing": ("standard_layouts", "settings"),
    "contraction": ("expect_layout", "joint_distribution", "expect_layout_dense_oracle"),
    "gqd_core": ("gqd_exact", "gqd_by_minimization"),
    "estimator": (
        "outcomes_exact",
        "moments_from_outcomes",
        "eigenvalues_from_moments",
        "estimate_gqd",
    ),
    "qst_baseline": ("qst_estimate",),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# start, end, parent index (-1 for a root span)
Span = tuple[int, int, int]


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    child_ns = [0] * len(spans)
    for start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [end - start - child_ns[k] for k, (start, end, _) in enumerate(spans)]


def unattributed_ns(window: tuple[int, int], spans: list[Span]) -> int:
    """Time of an op window covered by none of its root spans."""
    return window[1] - window[0] - sum(end - start for start, end, parent in spans if parent < 0)


def check_self_time_arithmetic() -> list[str]:
    """Self and unattributed time on a synthetic nested span set."""
    spans = [
        (0, 100, -1),  # 0: children 1 and 2
        (10, 30, 0),  # 1: child 3
        (40, 70, 0),  # 2
        (12, 18, 1),  # 3
        (200, 260, -1),  # 4: child 5
        (210, 250, 4),  # 5
    ]
    problems = []
    got = self_times(spans)
    if got != [50, 14, 30, 6, 20, 40]:
        problems.append(f"self times {got} != [50, 14, 30, 6, 20, 40]")
    unattributed = unattributed_ns((0, 400), spans)
    if unattributed != 240:
        problems.append(f"unattributed {unattributed} != 240")
    return problems


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ops: list[int] = []
        self.spans: list[list[int]] = []  # [start, end, parent]
        self.windows: dict[int, tuple[int, int]] = {}
        self._stack: list[int] = []
        self._op: int | None = None

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
            self.names.append(name)
            self.ops.append(self._op)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[1] = time.perf_counter_ns()
                self._stack.pop()

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"gqdkit.{mod}") for mod in TRACED]
        holders = [m for name, m in sys.modules.items() if name == "gqdkit" or name.startswith("gqdkit.")]
        for mod, fns in zip(modules, TRACED.values()):
            short = mod.__name__.rsplit(".", 1)[1]
            for fn_name in fns:
                original = getattr(mod, fn_name)
                wrapped = self._wrap(f"{short}.{fn_name}", original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapped)

    def traced_op(self, op):
        """`op` with an op window open around it: spans are recorded inside it."""

        def run(panel, i):
            self._op = i
            start = time.perf_counter_ns()
            try:
                return op(panel, i)
            finally:
                self.windows[i] = (start, time.perf_counter_ns())
                self._op = None
                self._stack.clear()

        return run

    def summary(self) -> dict:
        """Per-op calls and self time of each traced function, and the rest."""
        n_ops = len(self.windows)
        selfs = self_times([tuple(s) for s in self.spans])
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        per_op: dict[int, dict[str, int]] = {op: defaultdict(int) for op in self.windows}
        spans_of: dict[int, list[Span]] = defaultdict(list)
        for name, op, span, own in zip(self.names, self.ops, self.spans, selfs):
            calls[name] += 1
            self_ns[name] += own
            per_op[op][name] += 1
            spans_of[op].append(tuple(span))
        unattributed = sum(unattributed_ns(window, spans_of[op]) for op, window in self.windows.items())
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = calls[name] / n_ops
            metrics[f"{name}.self_ms"] = self_ns[name] / n_ops / 1e6
        metrics["trace.unattributed_ms"] = unattributed / n_ops / 1e6
        return {"metrics": metrics, "per_op_calls": {op: dict(c) for op, c in per_op.items()}}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, op, (start, end, parent) in zip(self.names, self.ops, self.spans):
                fh.write(json.dumps({"name": name, "op": op, "start_ns": start, "end_ns": end, "parent": parent}) + "\n")
