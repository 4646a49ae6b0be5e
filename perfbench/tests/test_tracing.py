"""The traced run: wrappers come off again, and self times add up."""

import time

import pytest

import tracing
from repro.obs.tracer import Span, Tracer


def _current(recorder):
    return {
        (module, cls, attr): vars(recorder._owner(module, cls))[attr]
        for module, cls, attr, _, _ in tracing.ENTRY_POINTS
    }


def test_restore_puts_every_original_back():
    recorder = tracing.Recorder()
    originals = _current(recorder)
    recorder.install()
    recorder.install()   # idempotent: no wrapper around a wrapper
    wrapped = _current(recorder)
    for key, original in originals.items():
        assert wrapped[key] is not original, key
    assert not recorder.restored()
    recorder.restore()
    assert recorder.restored()
    assert _current(recorder) == originals
    for key, original in _current(recorder).items():
        assert original is originals[key], key


def test_nested_spans_get_their_self_time():
    tracer = Tracer("statement")
    with tracer.span("a"):
        time.sleep(0.002)
        with tracer.span("b"):
            time.sleep(0.003)
        time.sleep(0.001)
    time.sleep(0.001)
    with tracer.span("c"):
        time.sleep(0.001)
    root = tracer.finish()
    shares, unattributed = tracing.attribute(root)
    for span in root.walk():
        if span is not root:
            assert shares[span] == pytest.approx(span.self_time_s, abs=1e-9)
    assert unattributed == pytest.approx(root.self_time_s, abs=1e-9)
    assert sum(shares.values()) + unattributed == pytest.approx(
        root.duration_s, abs=1e-12
    )


def _span(name, start, end, children=()):
    span = Span(name)
    span.start_s, span.end_s = start, end
    span.children.extend(children)
    return span


def test_overlapping_threads_are_never_counted_twice():
    # a and b ran on different threads and overlap on [4, 6)
    a = _span("a", 1.0, 6.0)
    b = _span("b", 4.0, 8.0, [_span("b1", 5.0, 7.0)])
    root = _span("statement", 0.0, 10.0, [a, b])
    shares, unattributed = tracing.attribute(root)
    assert shares[a] == pytest.approx(3.0)           # [1, 4)
    assert shares[b] == pytest.approx(2.0)           # [4, 5) + [7, 8)
    assert shares[b.children[0]] == pytest.approx(2.0)
    assert unattributed == pytest.approx(3.0)        # [0, 1) + [8, 10)
    assert sum(shares.values()) + unattributed == pytest.approx(10.0)


def test_spans_are_clipped_to_the_statement():
    early = _span("heartbeat", -1.0, 0.5)
    root = _span("statement", 0.0, 2.0, [early])
    shares, unattributed = tracing.attribute(root)
    assert shares[early] == pytest.approx(0.5)
    assert unattributed == pytest.approx(1.5)


def test_traced_statements_add_up_to_their_latency():
    from repro.core.cadview import CADViewConfig
    from repro.core.explorer import DBExplorer
    from repro.dataset.generators import generate_usedcars
    from repro.serve.executor import SessionExecutor

    dbx = DBExplorer(CADViewConfig(seed=7))
    dbx.register("data", generate_usedcars(3000, seed=7))
    executor = SessionExecutor(dbx)
    recorder = tracing.Recorder()
    statements = [
        "SELECT Make, Price FROM data WHERE BodyType = SUV LIMIT 5",
        "CREATE CADVIEW t AS SET pivot = Make SELECT Price FROM data "
        "WHERE BodyType = SUV LIMIT COLUMNS 4 IUNITS 3",
        "HIGHLIGHT SIMILAR IUNITS IN t WHERE SIMILARITY(Ford, 1) > 1",
        "REORDER ROWS IN t ORDER BY SIMILARITY(Ford) DESC",
        "SELECT Price FROM data WHERE Price > 9000 AND Price < 5000",
        "DROP CADVIEW t",
    ]
    traces = []
    recorder.install()
    try:
        for i, sql in enumerate(statements):
            recorder.begin(str(i))
            t0 = time.perf_counter()
            ticket = executor.submit(sql, session="t")
            assert ticket.wait(30)
            t1 = time.perf_counter()
            traces.append(recorder.end(t0, t1))
    finally:
        recorder.restore()
        executor.close()
    assert recorder.restored()
    for trace in traces:
        total = sum(trace.self_ms.values()) + trace.unattributed_ms
        assert total == pytest.approx(trace.latency_ms, abs=1e-6)
    build = traces[1]
    for name in ("query.parse", "query.analyze", "query.select",
                 "discretize.fit", "features.select", "clustering.encode",
                 "clustering.fit", "iunits.label", "iunits.diversify",
                 "core.build", "core.execute", "executor.submit"):
        assert build.calls.get(name), name
    # the executor re-parses what the explorer parses again
    assert build.calls["query.parse"] == 2
    assert traces[2].calls.get("iunits.similar") == 1
    assert traces[3].calls.get("iunits.reorder") == 1
    # rejected at the executor's analyzer gate: never reaches execute
    assert "core.execute" not in traces[4].calls
