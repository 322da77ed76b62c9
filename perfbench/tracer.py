"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded by the benchmark around its calls into each layer's
public functions (the program itself is not instrumented).  A span has
a name (``layer.what``), start and end (``perf_counter_ns``), the span
that caused it (tracked with :mod:`contextvars`), and the request id
shared by every span of one operation.  Counter snapshots taken at the
same boundaries ride along as span attributes.

Off by default: a disabled tracer hands out one shared no-op context
manager, so the untraced path pays a method call and nothing else.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from collections import defaultdict

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class _Span:
    __slots__ = ("tracer", "index", "token")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self.tracer = tracer
        self.index = index
        self.token = None

    def __enter__(self) -> "_Span":
        self.token = _current.set(self.index)
        self.tracer.spans[self.index]["start"] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.spans[self.index]["end"] = time.perf_counter_ns()
        _current.reset(self.token)

    def annotate(self, **attrs) -> None:
        self.tracer.spans[self.index].setdefault("attrs", {}).update(attrs)


class _NoSpan:
    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def annotate(self, **attrs) -> None:
        return None


_NO_SPAN = _NoSpan()


class Tracer:
    """Collects spans while ``enabled``; a no-op otherwise."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []

    def span(self, name: str, request: str | None = None):
        if not self.enabled:
            return _NO_SPAN
        parent = _current.get()
        if request is None and parent is not None:
            request = self.spans[parent]["request"]
        self.spans.append(
            {
                "name": name,
                "start": 0,
                "end": 0,
                "parent": parent,
                "request": request,
            }
        )
        return _Span(self, len(self.spans) - 1)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (untraced comparison runs)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    # -- analysis -------------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the part its children cover.

        Children of one span run sequentially (the benchmark's
        replays are single-threaded), so their durations add up.
        """
        child_total = [0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_total[span["parent"]] += span["end"] - span["start"]
        return [
            span["end"] - span["start"] - child_total[i]
            for i, span in enumerate(self.spans)
        ]

    def by_request(self) -> dict[str, dict[str, float]]:
        """Per request id: summed duration (ms) per span name."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            out[span["request"]][span["name"]] += (span["end"] - span["start"]) / 1e6
        return out

    def layer_self_ms(self) -> dict[str, dict[str, float]]:
        """Per request id: summed self time (ms) per layer (the span
        name's prefix up to the first dot)."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, self_ns in zip(self.spans, self.self_times_ns()):
            layer = span["name"].split(".", 1)[0]
            out[span["request"]][layer] += self_ns / 1e6
        return out

    def dump(self) -> dict:
        """JSON-ready spans (times relative to the first span) plus the
        per-layer self-time totals."""
        origin = min((span["start"] for span in self.spans), default=0)
        totals: dict[str, float] = defaultdict(float)
        for span, self_ns in zip(self.spans, self.self_times_ns()):
            totals[span["name"].split(".", 1)[0]] += self_ns / 1e6
        return {
            "layer_self_ms": dict(sorted(totals.items())),
            "spans": [
                {
                    **span,
                    "start": (span["start"] - origin) / 1e3,
                    "end": (span["end"] - origin) / 1e3,
                }
                for span in self.spans
            ],
            "time_unit": "us",
        }
