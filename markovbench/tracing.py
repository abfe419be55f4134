"""Span recording for the benchmark's traced runs.

Spans are recorded from the benchmark's own code: around the calls it makes
into the package, and around calls one package module makes into another,
by rebinding that name in the calling module for the duration of a traced
round. No file of the package is changed. A span's self time is its duration
minus the durations of the spans opened inside it.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class NullTracer:
    """Tracing switched off: spans and counts cost one attribute lookup."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, k: int = 1) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        self.index = len(tr.records)
        tr.records.append([self.name, time.perf_counter(), 0.0, parent])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.records[self.index][2] = time.perf_counter()
        tr._stack.pop()
        return False


class Tracer:
    """In-memory spans (name, start, end, parent index) and named counts."""

    enabled = True

    def __init__(self):
        self.records: List[list] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        # Deferred count work, resolved outside every span.
        self.pending: List[Callable[["Tracer"], None]] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    def resolve_pending(self) -> None:
        for fn in self.pending:
            fn(self)
        self.pending.clear()

    def durations(self, name: str) -> List[float]:
        return [end - start for (n, start, end, _) in self.records if n == name]

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Total and self time per span name."""
        child = [0.0] * len(self.records)
        for (_, start, end, parent) in self.records:
            if parent >= 0:
                child[parent] += end - start
        total: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.records):
            total[name] += end - start
            own[name] += end - start - child[i]
        return total, own

    def top_level_time(self) -> float:
        return sum(end - start for (_, start, end, parent) in self.records if parent < 0)

    def dump(self) -> List[Dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for (n, s, e, p) in self.records
        ]


def _wrap(tracer: Tracer, name: str, fn: Callable, after: Optional[Callable] = None):
    def traced(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            tracer.pending.append(lambda tr: after(tr, args, kwargs, out))
        return out

    return traced


def _after_sample(tr: Tracer, args, kwargs, batch) -> None:
    model, region = args[0], args[1]
    tr.count("sampler.batches")
    tr.count("sampler.samples", batch.n_samples)
    tr.count("sampler.mech_draws", batch.n_samples * len(model.region_mechanisms(region)))


def _after_patterns(tr: Tracer, args, kwargs, out) -> None:
    tr.count("sampler.pattern_calls")
    # markov._sampled_entropies histograms every pattern array it asks for.
    tr.count("markov.histograms")


@contextlib.contextmanager
def instrumented(tracer):
    """Rebind the cross-module calls of the package to traced wrappers.

    ``markov.averaged_cmi_ladder`` reaches the sampler and the tripartition
    builder, and ``decoder.logical_error_rate`` reaches ``decode``, through
    their module globals; those names are swapped for the duration.
    """
    if not tracer.enabled:
        yield
        return
    from stmarkov import decoder, markov

    targets = [
        (markov, "sample_batch", "sampler.sample", _after_sample),
        (markov, "subset_patterns", "sampler.patterns", _after_patterns),
        (markov, "build_tripartition", "markov.tripartition", None),
        (decoder, "decode", "decoder.decode", None),
    ]
    saved = []
    try:
        for module, attr, span_name, after in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, span_name, original, after))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
