"""Span primitives: nesting, ids, clocks, the disabled null path."""

import threading

from repro import obs
from repro.obs import NULL_SPAN, NullSpan, ObsConfig, Tracer
from repro.services.clock import SimClock


class TestTracer:
    def test_nesting_links_parent_and_trace(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert child.trace_id == root.trace_id == grandchild.trace_id
        # Finished innermost-first.
        assert [s.name for s in tracer.spans()] == [
            "grandchild", "child", "root",
        ]

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        first, second = tracer.spans()
        assert first.trace_id != second.trace_id
        assert first.trace_id.startswith("trace-")

    def test_virtual_clock_is_inherited_from_parent(self):
        tracer = Tracer()
        clock = SimClock()
        with tracer.span("root", clock=clock) as root:
            clock.advance(100.0)
            with tracer.span("child") as child:  # no clock passed
                clock.advance(50.0)
        assert root.start_ms == 0.0 and root.end_ms == 150.0
        assert child.start_ms == 100.0 and child.end_ms == 150.0
        assert child.duration_ms == 50.0

    def test_error_exit_marks_status(self):
        tracer = Tracer()
        try:
            with tracer.span("doomed"):
                raise ValueError("boom")
        except ValueError:
            pass
        (span,) = tracer.spans()
        assert span.status == "error"
        assert "ValueError" in span.attrs["error"]

    def test_threads_have_independent_stacks(self):
        tracer = Tracer()
        spans = {}

        def worker():
            with tracer.span("other-thread") as span:
                spans["worker"] = span

        with tracer.span("main") as main_span:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # A new thread starts with an empty stack: it roots its own trace.
        assert spans["worker"].parent_id is None
        assert spans["worker"].trace_id != main_span.trace_id

    def test_tracers_keep_separate_stacks(self):
        first, second = Tracer(), Tracer()
        with first.span("a-root") as a_root:
            with second.span("b-root") as b_root:
                with first.span("a-child") as a_child:
                    assert second.current() is b_root
                # exits out of order across tracers: b-root closes while
                # first's a-root is still open beneath it
            assert first.current() is a_root
            assert second.current() is None
        assert a_child.parent_id == a_root.span_id
        assert b_root.parent_id is None
        assert first.current() is None

    def test_unbalanced_exit_drops_only_that_span(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        outer.__exit__(None, None, None)  # closed while inner is open
        assert tracer.current() is inner
        inner.__exit__(None, None, None)
        assert tracer.current() is None
        assert [s.name for s in tracer.spans()] == ["outer", "inner"]

    def test_asyncio_tasks_nest_under_creator_without_leaking(self):
        import asyncio

        tracer = Tracer()

        async def child(name):
            with tracer.span(name) as span:
                await asyncio.sleep(0)
                assert tracer.current() is span
            return span

        async def main():
            with tracer.span("root") as root:
                spans = await asyncio.gather(child("x"), child("y"))
                assert tracer.current() is root
            return root, spans

        root, (x, y) = asyncio.run(main())
        assert x.parent_id == y.parent_id == root.span_id
        assert tracer.current() is None

    def test_max_spans_bounds_retention(self):
        tracer = Tracer(max_spans=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [s.name for s in tracer.spans()] == ["s3", "s4"]


class TestModuleRuntime:
    def test_disabled_by_default_returns_null_span(self):
        obs.disable()
        span = obs.span("anything")
        assert span is NULL_SPAN
        with span as inner:
            assert isinstance(inner, NullSpan)
        assert obs.current() is None

    def test_enable_records_and_disable_keeps_data_readable(self):
        obs.enable(ObsConfig())
        with obs.span("alpha", key="value"):
            pass
        obs.disable()
        assert not obs.enabled()
        (span,) = obs.spans()
        assert span.name == "alpha"
        assert span.attrs["key"] == "value"

    def test_enable_resets_previous_runtime(self):
        obs.enable()
        with obs.span("old"):
            pass
        obs.enable()
        assert obs.spans() == []
