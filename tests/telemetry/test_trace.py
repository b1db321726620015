"""Span tracer: nesting, exception safety, and the zero-cost null path."""

import pytest

from repro.telemetry.trace import NULL_TRACER, NullTracer, Span, Tracer


class TestNesting:
    def test_children_attach_to_enclosing_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner_a"):
                pass
            with tracer.span("inner_b"):
                with tracer.span("leaf"):
                    pass
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert [c.name for c in outer.children] == ["inner_a", "inner_b"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]

    def test_sequential_roots_stay_separate(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots] == ["first", "second"]
        assert all(not r.children for r in tracer.roots)

    def test_reentrant_same_name_spans_nest(self):
        tracer = Tracer()
        with tracer.span("walk"):
            with tracer.span("walk"):
                pass
        assert len(tracer.roots) == 1
        assert tracer.roots[0].children[0].name == "walk"
        assert len(tracer.find("walk")) == 2

    def test_durations_nonnegative_and_child_within_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(1000))
        outer, inner = tracer.roots[0], tracer.roots[0].children[0]
        assert inner.duration_s >= 0.0
        assert outer.duration_s >= inner.duration_s
        assert inner.start_s >= outer.start_s

    def test_attrs_recorded(self):
        tracer = Tracer()
        with tracer.span("walk", column=2) as span:
            pass
        assert span.attrs == {"column": 2}


class TestExceptionSafety:
    def test_raising_body_marks_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        span = tracer.roots[0]
        assert span.status == "error"
        assert span.error == "ValueError"
        assert span.duration_s >= 0.0

    def test_stack_unwinds_through_nested_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError
        # Both spans closed: a new span lands at the root, not inside them.
        with tracer.span("after"):
            pass
        assert [r.name for r in tracer.roots] == ["outer", "after"]
        assert tracer.roots[0].status == "error"
        assert tracer.roots[0].children[0].status == "error"


class TestQueriesAndSerialization:
    def test_stage_totals_aggregate_by_name(self):
        tracer = Tracer()
        for __ in range(3):
            with tracer.span("stage"):
                pass
        totals = tracer.stage_totals()
        assert set(totals) == {"stage"}
        assert totals["stage"] >= 0.0

    def test_as_dict_round_trip_shape(self):
        tracer = Tracer("run")
        with tracer.span("outer", k="v"):
            with tracer.span("inner"):
                pass
        doc = tracer.as_dict()
        assert doc["trace"] == "run"
        (outer,) = doc["spans"]
        assert outer["name"] == "outer"
        assert outer["attrs"] == {"k": "v"}
        assert outer["children"][0]["name"] == "inner"
        assert "error" not in outer

    def test_span_iteration_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        assert [s.name for s in tracer.iter_spans()] == ["a", "b", "c"]


class TestNullTracer:
    def test_shared_noop_span(self):
        with NULL_TRACER.span("anything", x=1) as span:
            assert isinstance(span, Span)
        # Identity of the shared no-op span is the point, not its use as a context.
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")  # repro: noqa RB004
        assert NULL_TRACER.span_names() == set()
        assert NULL_TRACER.as_dict() == {"trace": "null", "spans": []}

    def test_null_tracer_swallows_nothing(self):
        with pytest.raises(KeyError):
            with NullTracer().span("x"):
                raise KeyError("propagates")
