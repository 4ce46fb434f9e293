"""Tests for the benchmark's own parts (run with the tier-1 suite)."""

import pytest

from perfbench import speed, trace
from perfbench.run import percentile
from perfbench.streams import adhoc_events, pigmix_events
from repro import PigSystem


@pytest.mark.parametrize("generate", [pigmix_events, adhoc_events])
def test_stream_generators_repeat_per_seed_and_differ_across_seeds(generate):
    first = generate(3)
    assert generate(3) == first
    assert generate(4) != first


def test_adhoc_queries_are_distinct_and_store_to_their_own_paths():
    queries = [text for kind, text in adhoc_events(5) if kind == "query"]
    assert len(set(queries)) == len(queries)
    outputs = [text.rsplit("'", 2)[1] for text in queries]
    assert len(set(outputs)) == len(outputs)


def test_pigmix_seed_changes_the_appended_data_not_the_queries():
    def split(seed):
        events = pigmix_events(seed)
        return ([name for kind, name in events if kind == "query"],
                [slice_seed for kind, slice_seed in events if kind == "append"])

    (queries_1, appends_1), (queries_2, appends_2) = split(1), split(2)
    assert queries_1 == queries_2
    assert len(appends_1) == len(appends_2) and appends_1 != appends_2


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(100)), 90) == 89
    assert percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)


def test_speed_meter_scales_each_stretch_by_the_slices_around_it(monkeypatch):
    ref = speed.REFERENCE_SLICE_S
    meter = speed.SpeedMeter()
    assert meter.sample() == 0 and meter.slices[0][1] > meter.slices[0][0]
    monkeypatch.setattr(speed, "NEIGHBOURS", 0)
    # the host runs the slice at half, full and twice the reference speed
    meter.slices = [(0.0, 2 * ref), (1.0, 1.0 + ref), (2.0, 2.0 + ref / 2)]
    reference, host = meter.span(0.5, 1.5)
    assert host == pytest.approx(0.5 + (0.5 - ref))
    assert reference == pytest.approx(0.5 * 1.0 + (0.5 - ref) * 2.0)
    meter.intervals = [(0.3, 0), (0.3, 2)]
    assert meter.reference_s(0) == pytest.approx(0.15)
    assert meter.reference_s(1) == pytest.approx(0.6)
    assert meter.host_s(1) == 0.3
    with pytest.raises(ValueError):
        meter.span(0.5, 2.5)  # no slice after the span's end
    monkeypatch.setattr(speed, "NEIGHBOURS", 1)
    meter.slices[1] = (1.0, 1.0 + 50 * ref)  # one slow slice is outvoted
    meter.slices.append((3.0, 3.0 + ref / 2))
    assert meter.scale(2) == pytest.approx(2.0)


def _span(span_id, parent, start, end, name="x", calls=1):
    return trace.Span(span_id, name, parent, None, start, end, calls)


def test_self_time_subtracts_the_children_of_a_synthetic_tree():
    spans = [
        _span(1, None, 0.0, 10.0, "submit"),
        _span(2, 1, 1.0, 4.0, "engine.job"),
        _span(3, 2, 2.0, 3.0, "dfs.read"),
        # aggregate of per-row calls: 0.5 s summed over 40 calls
        _span(4, 2, 1.5, 2.0, "codec.decode", calls=40),
        _span(5, 1, 5.0, 9.0, "engine.job"),
        _span(6, 5, 6.0, 8.5, "engine.job"),
    ]
    own = trace.self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 1.5, 3: 1.0, 4: 0.5, 5: 1.5,
                                 6: 2.5})
    busy = trace.busy_times(spans)
    # nested engine spans count once; the outer ones cover 3 s + 4 s
    assert busy["engine"] == pytest.approx(7.0)
    assert busy["submit"] == pytest.approx(10.0)


def _patched_attributes():
    points = [(owner, attribute) for owner, attribute, *_ in
              trace.ENTRY_POINTS + trace.PER_ROW_ENTRY_POINTS]
    return {(id(owner), attribute): vars(owner)[attribute]
            for owner, attribute in points}


def _tiny_query(system):
    system.dfs.write_lines("/data/t", ["a\t1", "b\t2", "a\t3"])
    restore = system.restore()
    workflow = system.compile("A = load '/data/t' as (k:chararray, v:int);\n"
                              "B = group A by k;\n"
                              "C = foreach B generate group, SUM(A.v);\n"
                              "store C into '/out/t';\n")
    restore.submit(workflow)
    return system.dfs.read_lines("/out/t")


def test_untraced_run_after_traced_sees_the_original_attributes():
    originals = _patched_attributes()
    tracer = trace.Tracer()
    with trace.traced(tracer):
        assert _patched_attributes() != originals
        traced_rows = _tiny_query(PigSystem())
    names = {span.name for span in tracer.spans}
    assert {"submit", "engine.job", "codec.decode", "codec.encode",
            "restore.register", "dfs.write"} <= names
    assert _patched_attributes() == originals
    recorded = len(tracer.spans)
    assert _tiny_query(PigSystem()) == traced_rows
    assert len(tracer.spans) == recorded


def test_traced_restores_the_attributes_when_the_run_raises():
    originals = _patched_attributes()
    with pytest.raises(ZeroDivisionError):
        with trace.traced(trace.Tracer()):
            raise ZeroDivisionError
    assert _patched_attributes() == originals
