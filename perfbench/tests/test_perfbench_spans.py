"""Self-time arithmetic and the outside-in span recorder."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench.spans import (  # noqa: E402
    Span,
    Tracer,
    covered_length,
    patched,
    self_time_by_name,
    self_times,
)


def test_span_without_children_is_all_self_time():
    assert self_times([Span("a", 1.0, 3.5)]) == [2.5]


def test_nested_spans_subtract_only_direct_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("mid", 2.0, 8.0, parent=0),
        Span("leaf", 3.0, 5.0, parent=1),
    ]
    assert self_times(spans) == [4.0, 4.0, 2.0]


def test_sibling_spans_add_up():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 2.0, parent=0),
        Span("b", 4.0, 7.0, parent=0),
        Span("a", 8.0, 9.0, parent=0),
    ]
    assert self_times(spans) == [5.0, 1.0, 3.0, 1.0]
    assert self_time_by_name(spans) == {"root": 5.0, "a": 2.0, "b": 3.0}


def test_overlapping_and_overhanging_children_are_counted_once():
    # Children of one parent never overlap on one thread; the union
    # keeps the arithmetic right if clocks or threads ever make them.
    assert covered_length([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0) == 5.0
    assert covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert covered_length([], 0.0, 10.0) == 0.0


def test_tracer_links_parents_and_inherits_the_job():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return "done"

    traced_leaf = tracer.wrap(leaf, "leaf")
    with tracer.span("round"):
        with tracer.span("job", job=7):
            assert traced_leaf() == "done"
        traced_leaf()
    spans, _ = tracer.take()
    assert [(s.name, s.parent, s.job) for s in spans] == [
        ("round", None, None),
        ("job", 0, 7),
        ("leaf", 1, 7),
        ("leaf", 0, None),
    ]
    assert all(s.end > s.start for s in spans)
    assert sum(self_times(spans)) == spans[0].end - spans[0].start
    assert tracer.take() == ([], {})


def test_wrap_counts_before_the_span_and_closes_on_error():
    tracer = Tracer()
    seen = []

    def boom(x):
        raise ValueError(x)

    traced = tracer.wrap(boom, "boom", job_of=lambda a: a[0],
                         before=lambda a: seen.append(a))
    try:
        traced(3)
    except ValueError:
        pass
    (span,) = tracer.spans
    assert (span.name, span.job, seen) == ("boom", 3, [(3,)])
    assert span.end >= span.start
    assert tracer._stack == []


def test_patched_restores_the_originals():
    class Owner:
        def method(self):
            return "original"

    with patched([(Owner, "method", lambda self: "wrapped")]):
        assert Owner().method() == "wrapped"
    assert Owner().method() == "original"
