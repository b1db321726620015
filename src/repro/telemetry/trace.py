"""Nested span tracing for the encode -> channel -> decode -> link pipeline.

A :class:`Tracer` records a tree of :class:`Span` objects: every
instrumented operation opens a span with ``with tracer.span(name):``,
and nested operations become children of the enclosing span.  One
capture decoded through the full pipeline therefore yields a single
hierarchical trace (``link.round`` > ``channel.capture`` >
``decode.extract`` > ``corners`` / ``locators`` / ``classify`` ...).

The tracer is deliberately minimal and low-overhead:

* opening a span costs two ``perf_counter`` calls plus one small object
  allocation — negligible against the numpy work it brackets (this
  subsumes the old ``repro.core.debug.StageTimer``, which had the same
  cost profile for a flat dict);
* :class:`NullTracer` is a zero-allocation no-op used when telemetry is
  disabled — its :meth:`~NullTracer.span` returns one shared context
  manager, so disabled instrumentation is effectively free;
* spans are exception-safe: a span whose body raises is closed with
  ``status="error"`` and the exception type recorded, and the exception
  propagates unchanged.

Durations are wall-clock and therefore non-deterministic; traces are
per-run diagnostics and are never merged into, or compared against,
deterministic artifacts (that is the metrics registry's job — see
:mod:`repro.telemetry.metrics`).
"""

from __future__ import annotations

import json
import time
from types import TracebackType
from typing import Any, Iterator

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]


class Span:
    """One timed node of a trace tree."""

    __slots__ = ("name", "attrs", "children", "start_s", "duration_s", "status", "error")

    def __init__(self, name: str, attrs: dict[str, Any] | None = None):
        self.name = name
        self.attrs = attrs or {}
        self.children: list[Span] = []
        #: Start offset in seconds relative to the tracer's epoch.
        self.start_s = 0.0
        self.duration_s = 0.0
        self.status = "ok"
        self.error = ""

    @property
    def duration_ms(self) -> float:
        return self.duration_s * 1000.0

    def iter_spans(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def as_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "name": self.name,
            "start_ms": round(self.start_s * 1000.0, 4),
            "duration_ms": round(self.duration_ms, 4),
            "status": self.status,
        }
        if self.error:
            doc["error"] = self.error
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        if self.children:
            doc["children"] = [c.as_dict() for c in self.children]
        return doc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, {self.duration_ms:.3f} ms, {len(self.children)} children)"


class _SpanContext:
    """Context manager that opens/closes one span on a tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        tracer = self._tracer
        span = self._span
        parent = tracer._stack[-1] if tracer._stack else None
        if parent is None:
            tracer.roots.append(span)
        else:
            parent.children.append(span)
        tracer._stack.append(span)
        span.start_s = time.perf_counter() - tracer.epoch
        return span

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        span = self._span
        span.duration_s = (time.perf_counter() - self._tracer.epoch) - span.start_s
        if exc_type is not None:
            span.status = "error"
            span.error = exc_type.__name__
        # The span we opened is by construction the top of the stack:
        # nested spans are closed by their own context managers first.
        self._tracer._stack.pop()
        return False


class Tracer:
    """Records a tree of spans; one instance per run (or per extract)."""

    __slots__ = ("name", "epoch", "roots", "_stack")

    def __init__(self, name: str = "trace"):
        self.name = name
        self.epoch = time.perf_counter()
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a span; use as ``with tracer.span("corners") as s: ...``."""
        return _SpanContext(self, Span(name, attrs or None))

    # -- queries -----------------------------------------------------------

    def iter_spans(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.iter_spans()

    def span_names(self) -> set[str]:
        """Every distinct span name recorded so far."""
        return {span.name for span in self.iter_spans()}

    def find(self, name: str) -> list[Span]:
        """All spans named *name*, in depth-first recording order."""
        return [span for span in self.iter_spans() if span.name == name]

    def stage_totals(self) -> dict[str, float]:
        """Total seconds per span name, aggregated over the whole tree."""
        totals: dict[str, float] = {}
        for span in self.iter_spans():
            totals[span.name] = totals.get(span.name, 0.0) + span.duration_s
        return totals

    # -- serialization -----------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        return {"trace": self.name, "spans": [root.as_dict() for root in self.roots]}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)


class _NullSpanContext:
    """Shared no-op context manager; safe to nest and re-enter."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


class NullTracer:
    """Zero-cost tracer used whenever telemetry is disabled.

    ``span()`` hands out one shared context manager and one shared,
    never-mutated span, so disabled instrumentation allocates nothing.
    """

    __slots__ = ()

    def span(self, name: str, **attrs: Any) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def iter_spans(self) -> Iterator[Span]:
        return iter(())

    def span_names(self) -> set[str]:
        return set()

    def find(self, name: str) -> list[Span]:
        return []

    def stage_totals(self) -> dict[str, float]:
        return {}

    def as_dict(self) -> dict[str, Any]:
        return {"trace": "null", "spans": []}


#: Module-level singletons shared by every disabled call site.
_NULL_SPAN = Span("null")
_NULL_SPAN_CONTEXT = _NullSpanContext()
NULL_TRACER = NullTracer()
