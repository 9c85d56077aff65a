"""In-memory span tracing for the benchmark.

A span records a name, the layer it belongs to, start and end times, the
span that was open when it started (its parent) and the id of the op it ran
under.  Spans stay in memory and are written out when the run ends.  Spans
come from wrappers installed on public functions for the traced passes only;
untraced passes run the program's own function objects.
"""

import functools
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = math.nan
    parent: int = -1
    op: str | None = None
    info: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans from one thread; ``op`` tags every new span."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self.op = None
        self._open = []
        self._clock = clock

    @contextmanager
    def span(self, name, layer):
        span = Span(name, layer, self._clock(),
                    parent=self._open[-1] if self._open else -1, op=self.op)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        except BaseException as exc:
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.end = self._clock()
            self._open.pop()

    def wrap(self, fn, name, layer, info=None):
        """``fn`` inside a span; ``info(args, kwargs, result)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer) as span:
                result = fn(*args, **kwargs)
                if info is not None:
                    span.info.update(info(args, kwargs, result))
                return result

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


@contextmanager
def installed(tracer, targets):
    """Replace ``module.attr`` by a traced wrapper for each target, then restore.

    A target is ``(module, attr, span_name, layer, info)``.
    """
    saved = []
    try:
        for module, attr, name, layer, info in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, layer, info))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans):
    """Per span: its duration minus the part of it that child spans cover."""
    children = [[] for _ in spans]
    for k, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(k)
    out = []
    for span, kids in zip(spans, children):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end)) for c in kids
        )
        covered = 0.0
        cur_start = cur_end = None
        for start, end in intervals:
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(span.duration - covered)
    return out
