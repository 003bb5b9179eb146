"""Self-check of the span arithmetic: python -m pytest bench"""

from spans import Span, Tracer, covered, self_times, totals


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0
    assert covered([(6.0, 7.0), (1.0, 2.0)], 0.0, 10.0) == 2.0
    assert covered([(1.0, 4.0), (2.0, 3.0)], 0.0, 10.0) == 3.0
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0


def test_self_time_subtracts_children_once():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: together they cover [1, 6]
        Span("leaf", 1.5, 2.0, 1),
    ]
    assert self_times(spans) == [5.0, 2.5, 3.0, 0.5]
    assert totals(spans, use_self=True) == {"root": 5.0, "a": 2.5, "b": 3.0, "leaf": 0.5}


def test_totals_sum_repeated_names():
    spans = [
        Span("grid", 0.0, 10.0, None),
        Span("cell", 0.0, 2.0, 0),
        Span("cell", 2.0, 7.0, 0),
    ]
    assert totals(spans) == {"grid": 10.0, "cell": 7.0}
    assert totals(spans, use_self=True) == {"grid": 3.0, "cell": 7.0}


def test_tracer_records_parents_and_wraps():
    tracer = Tracer()
    double = tracer.wrap("inner", lambda x: 2 * x)
    with tracer.span("outer"):
        assert double(3) == 6
    with tracer.span("next"):
        pass
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0), ("next", None)]
    outer, inner, _ = tracer.spans
    assert outer.start <= inner.start <= inner.end <= outer.end
    own = self_times(tracer.spans)
    assert abs(own[0] - (outer.duration - inner.duration)) < 1e-12
