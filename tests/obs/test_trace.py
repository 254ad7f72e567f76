"""Span trees: nesting and budgets."""

import pytest

from repro.obs import Trace


class FakeClock:
    """Deterministic perf_counter: each read advances by ``step``."""

    def __init__(self, step: float = 0.25):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestSpanNesting:
    def test_with_blocks_nest(self):
        trace = Trace(clock=FakeClock())
        with trace.span("execute") as root:
            with trace.span("plan", cache="miss") as plan:
                pass
            with trace.span("scan"):
                with trace.span("cluster", partition="IBM"):
                    pass
        assert trace.root is root
        assert [child.name for child in root.children] == ["plan", "scan"]
        assert root.children[1].children[0].attrs["partition"] == "IBM"
        assert plan.attrs["cache"] == "miss"
        assert trace.span_count == 4

    def test_durations_close_on_exit(self):
        trace = Trace(clock=FakeClock(step=1.0))
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        assert trace.root.duration_s is not None
        assert trace.root.children[0].duration_s is not None
        # The outer span was open across the inner one's lifetime.
        assert trace.root.duration_s > trace.root.children[0].duration_s

    def test_annotate_after_close(self):
        trace = Trace(clock=FakeClock())
        with trace.span("scan") as span:
            pass
        span.annotate(rows=10, matches=2)
        assert span.attrs == {"rows": 10, "matches": 2}

    def test_find_and_walk(self):
        trace = Trace(clock=FakeClock())
        with trace.span("execute"):
            with trace.span("cluster", partition="a"):
                pass
            with trace.span("cluster", partition="b"):
                pass
        assert trace.find("cluster").attrs["partition"] == "a"
        assert len(trace.find_all("cluster")) == 2
        assert trace.find("missing") is None


class TestSpanBudget:
    def test_over_budget_spans_are_dropped_not_raised(self):
        trace = Trace(max_spans=2, clock=FakeClock())
        with trace.span("root"):
            with trace.span("kept"):
                pass
            with trace.span("dropped") as orphan:
                orphan.annotate(note="still annotatable")
        assert trace.span_count == 2
        assert trace.dropped == 1
        assert trace.find("dropped") is None

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError, match="max_spans"):
            Trace(max_spans=0)

