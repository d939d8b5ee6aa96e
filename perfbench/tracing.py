"""Span tracing of spatecon from the outside.

The benchmark does not instrument the package. It replaces public
functions with timing wrappers under the names their callers look up
(``models.fit`` as ``selection`` and ``cli`` call it, ``joint_precision``
as ``models`` imported it, and so on), records one span per call and
restores the originals afterwards. Spans live in memory; each holds its
name, start, end, parent span and a few attributes.

A span's self time is its duration minus the durations of its direct
children. Nested calls of one layer are therefore never counted twice.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder with a parent stack (single-threaded)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.enabled = False

    def wrap(self, owner, attr: str, name: str, attrs_of=None, on_result=None) -> None:
        """Replace owner.attr by a wrapper that records a span per call.

        attrs_of(args, kwargs) -> dict adds attributes before the call;
        on_result(span, result) may add attributes after it.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), parent)
            if attrs_of is not None:
                span.attrs.update(attrs_of(args, kwargs))
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(span, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds a traced call adds over a plain one, measured on a no-op.

        The spans it records are removed again, so the trace is unchanged.
        """

        class Probe:
            @staticmethod
            def noop():
                return None

        plain = Probe.noop
        begin, enabled = self.mark(), self.enabled
        self.wrap(Probe, "noop", "trace.probe")
        self.enabled = True
        t = time.perf_counter()
        for _ in range(calls):
            Probe.noop()
        traced = time.perf_counter() - t
        t = time.perf_counter()
        for _ in range(calls):
            plain()
        untraced = time.perf_counter() - t
        owner, attr, original = self._patches.pop()
        setattr(owner, attr, original)
        del self.spans[begin:]
        self.enabled = enabled
        return max(traced - untraced, 0.0) / calls

    def mark(self) -> int:
        """Index of the next span, to slice out one phase of a run."""
        return len(self.spans)

    def summary(self, begin: int = 0, end: int | None = None) -> dict[str, dict]:
        """Per span name: call count, inclusive seconds, self seconds."""
        spans = self.spans[begin:end]
        child_time = defaultdict(float)
        for s in spans:
            if s.parent >= begin:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i, s in enumerate(spans, start=begin):
            dur = s.end - s.start
            agg = out[s.name]
            agg["calls"] += 1
            agg["incl_s"] += dur
            agg["self_s"] += dur - child_time[i]
        return out


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from spatecon import cli, dataio, engine, gmrf, impacts, marginals, models, selection
    from spatecon import weights

    def evidence_attrs(args, kwargs):
        want_state = kwargs.get("want_state", args[2] if len(args) > 2 else True)
        return {"want_state": bool(want_state)}

    def inverse_attrs(args, kwargs):
        return {"bytes": 8 * args[0].shape[0] * args[0].shape[1]}

    def fit_result(span, result):
        span.attrs["grid_points"] = int(result.grid.points.shape[0])

    tracer.wrap(weights, "knn_adjacency", "weights.knn")
    tracer.wrap(selection, "knn_adjacency", "weights.knn")
    tracer.wrap(weights.WeightsMatrix, "rho_range", "weights.rho_range")
    tracer.wrap(models, "build", "models.build")
    tracer.wrap(models, "fit", "models.fit", on_result=fit_result)
    tracer.wrap(models, "joint_precision", "gmrf.joint_precision")
    tracer.wrap(gmrf.CholeskyHandle, "__init__", "gmrf.factor")
    tracer.wrap(gmrf.CholeskyHandle, "inverse_dense", "gmrf.inverse_dense", attrs_of=inverse_attrs)
    tracer.wrap(engine, "log_conditional_evidence", "engine.evidence", attrs_of=evidence_attrs)
    tracer.wrap(marginals, "gaussian_mixture_marginal", "marginals.mixture")
    tracer.wrap(impacts, "average_impacts", "impacts.average")
    tracer.wrap(impacts, "trace_functions", "impacts.trace_functions")
    tracer.wrap(dataio, "read_data_csv", "dataio.read")
    tracer.wrap(dataio, "read_weights", "dataio.read")
    tracer.wrap(cli, "parse_config", "dataio.read")
    tracer.wrap(cli, "main", "cli.main")
