"""Span tracing of muxnet from outside the package.

The tracer wraps public functions at the name their caller looks up
(``muxnet.frontend.classify_segment`` is what ``run_closed_loop`` calls,
``muxnet.engine.pe_forward`` is what ``MpuEngine`` calls), so the program
itself is not edited.  A call given a ``counters=`` cost counter records, as
its span's value, the (cycles, mux_selects, memory_bits_read) it added.
Spans stay in memory until the benchmark writes them out at the end of a
run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
from time import perf_counter_ns, thread_time_ns

from muxnet import compiler, engine, frontend, reference


def _batch_of(logits) -> int:
    return int(logits.shape[0]) if logits.ndim == 2 else 1


# (owner, attribute, span name, count recorded from the return value)
PATCHES = (
    (frontend, "run_closed_loop", "frontend.run_closed_loop", None),
    (frontend, "cic_decimate", "frontend.cic_decimate", None),
    (frontend, "epoch_stage", "pipeline.epoch_stage", None),
    (frontend, "classify_segment", "pipeline.classify_segment", None),
    (engine.MpuEngine, "__init__", "engine.init", None),
    (engine.MpuEngine, "forward", "engine.forward", _batch_of),
    (engine, "pe_forward", "mpu.pe_forward", None),
    (engine, "build_static_table", "static_table.build", lambda t: t.total_entries),
    (engine, "decompose_table", "static_table.build", lambda t: t.total_entries),
    (compiler, "choose_prescale", "quantizer.choose_prescale", None),
    (compiler, "compile_model", "compiler.compile_model", None),
    (compiler, "serialize_model", "compiler.serialize_model", len),
    (compiler, "deserialize_model", "compiler.deserialize_model", None),
    (reference, "reference_logits", "reference.reference_logits", None),
)


class Span:
    __slots__ = ("idx", "name", "phase", "parent", "order", "t0", "t1", "child_ns", "value", "_seen")

    def __init__(self, idx: int, name: str, phase: str, parent: int, order: int):
        self.idx = idx
        self.name = name
        self.phase = phase
        self.parent = parent
        self.order = order  # calls of the same name made earlier by the same parent
        self.t0 = self.t1 = 0
        self.child_ns = 0
        self.value = None
        self._seen: dict[str, int] = {}

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) / 1e6

    @property
    def self_ms(self) -> float:
        return (self.t1 - self.t0 - self.child_ns) / 1e6


class Tracer:
    """In-memory span recorder; ``phase`` tags every span opened after it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn, measure=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            order = 0
            if parent >= 0:
                seen = spans[parent]._seen
                order = seen.get(name, 0)
                seen[name] = order + 1
            span = Span(len(spans), name, self.phase, parent, order)
            counters = kwargs.get("counters")
            before = counters.as_tuple() if counters is not None else None
            stack.append(span.idx)
            spans.append(span)
            span.t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter_ns()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_ns += span.t1 - span.t0
            if measure is not None:
                span.value = measure(result)
            elif before is not None:
                span.value = tuple(a - b for a, b in zip(counters.as_tuple(), before))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every name in PATCHES for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, measure in PATCHES:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, measure))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def select(self, name: str, phase: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.phase == phase]

    def children(self, parents: list[Span], name: str) -> list[Span]:
        ids = {p.idx for p in parents}
        return [s for s in self.spans if s.name == name and s.parent in ids]

    def write(self, path) -> None:
        rows = [[s.name, s.phase, s.parent, s.order, s.t0, s.t1, s.child_ns, s.value]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "phase", "parent", "order", "t0_ns", "t1_ns",
                                   "child_ns", "value"], "spans": rows}, fh)


def median_ms(spans: list[Span]) -> float:
    return statistics.median(s.ms for s in spans)


def median_self_ms(spans: list[Span]) -> float:
    return statistics.median(s.self_ms for s in spans)


@contextlib.contextmanager
def call_timer(owner, attr: str, sink: list[float]):
    """Client-side latency probe: append each call's CPU seconds to ``sink``."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def timed(*args, **kwargs):
        t0 = thread_time_ns()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append((thread_time_ns() - t0) / 1e9)

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)
