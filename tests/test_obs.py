"""The observability layer: spans, metrics, exporters.

Covers the tentpole invariants: span nesting survives exceptions,
bucket-tagged spans feed the legacy profile exactly, the Chrome trace
export is structurally valid, and the metrics registry is thread-safe
with mergeable snapshots.
"""

import json
import threading

import pytest

from repro.core.profile import BuildProfile
from repro.obs import (
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_TRACER,
    NullTracer,
    Tracer,
    render_trace,
    to_chrome_trace,
    write_chrome_trace,
    write_metrics,
)


# ------------------------------------------------------------------ spans

class TestSpan:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer("root")
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        root = tracer.finish()
        assert [c.name for c in root.children] == ["a"]
        assert [c.name for c in root.children[0].children] == ["b", "c"]
        assert all(s.closed for s in root.walk())

    def test_nesting_restored_after_exception(self):
        tracer = Tracer("root")
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("fails"):
                    raise ValueError("boom")
        # the stack unwound: new spans attach to the root again
        with tracer.span("after"):
            pass
        root = tracer.finish()
        assert [c.name for c in root.children] == ["outer", "after"]
        failed = root.find("fails")[0]
        assert failed.status == "error"
        assert "ValueError" in failed.error
        assert failed.closed
        # the outer span is also marked failed (the exception passed it)
        assert root.find("outer")[0].status == "error"
        assert root.find("after")[0].status == "ok"

    def test_counters_and_attrs(self):
        tracer = Tracer("root")
        with tracer.span("work", rows=10) as span:
            tracer.inc("items")
            tracer.inc("items", 2)
            span.set_attr("rows", 11)
        assert span.counters["items"] == 3
        assert span.attrs["rows"] == 11
        assert tracer.root.total_counter("items") == 3

    def test_events_record_annotations(self):
        tracer = Tracer("root")
        with tracer.span("phase"):
            tracer.annotate("degradation", "exact->greedy")
        span = tracer.root.find("phase")[0]
        assert [e.kind for e in span.events] == ["degradation"]
        assert "exact->greedy" in str(span.events[0])

    def test_bucket_total_counts_outermost_tagged_spans(self):
        tracer = Tracer("root")
        with tracer.span("a", bucket="iunits"):
            # nested same-bucket span must NOT double-count
            with tracer.span("inner", bucket="iunits"):
                pass
        with tracer.span("b", bucket="others"):
            pass
        root = tracer.finish()
        a, b = root.children
        assert root.bucket_total("iunits") == pytest.approx(a.duration_s)
        assert root.bucket_total("others") == pytest.approx(b.duration_s)
        assert root.bucket_total("compare_attrs") == 0.0

    def test_profile_fed_on_close_even_under_exception(self):
        tracer = Tracer("root")
        profile = BuildProfile()
        with pytest.raises(RuntimeError):
            with tracer.span("x", bucket="iunits", profile=profile):
                raise RuntimeError("boom")
        assert profile.iunits_s > 0

    def test_as_dict_roundtrips_through_json(self):
        tracer = Tracer("root", pivot="Make")
        with tracer.span("a", bucket="iunits", rows=3):
            tracer.inc("n")
        dump = json.loads(json.dumps(tracer.finish().as_dict()))
        assert dump["name"] == "root"
        assert dump["children"][0]["bucket"] == "iunits"
        assert dump["children"][0]["counters"] == {"n": 1.0}

    def test_null_tracer_records_nothing_but_feeds_profile(self):
        profile = BuildProfile()
        with NULL_TRACER.span("x", bucket="others", profile=profile) as sp:
            sp.inc("n")
            sp.set_attr("a", 1)
        assert profile.others_s > 0
        assert NULL_TRACER.current.counters == {}
        assert NULL_TRACER.current.attrs == {}
        assert NullTracer().root.children == []


# ------------------------------------------------------------------ export

class TestExport:
    def make_trace(self):
        tracer = Tracer("build")
        with tracer.span("phase", bucket="iunits", rows=5):
            tracer.inc("clusters", 2)
            tracer.annotate("retry", "attempt 1 failed")
        return tracer.finish()

    def test_chrome_trace_shape(self):
        doc = to_chrome_trace(self.make_trace())
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(complete) == 2 and len(instants) == 1
        for ev in complete:
            assert ev["ts"] >= 0 and ev["dur"] >= 0
        phase = next(e for e in complete if e["name"] == "phase")
        assert phase["cat"] == "iunits"
        assert phase["args"]["rows"] == 5
        assert phase["args"]["clusters"] == 2

    def test_open_child_span_runs_to_now(self):
        """A child opened 20 ms after its root and still open is drawn
        for as long as it has run, not from the root's start."""
        tracer = Tracer("root")
        tracer.root.start_s -= 0.025
        with tracer.span("child") as child:
            child.start_s = tracer.root.start_s + 0.020
            so_far = child.duration_s
            doc = to_chrome_trace(tracer.root)
        event = next(
            e for e in doc["traceEvents"] if e["name"] == "child"
        )
        assert event["ts"] == pytest.approx(20_000, abs=1.0)
        assert event["dur"] >= round(so_far * 1e6, 3) > 0

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self.make_trace(), str(path))
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["traceEvents"]

    def test_render_trace_structure(self):
        text = render_trace(self.make_trace())
        assert text.splitlines()[0].startswith("build")
        assert "[iunits]" in text
        assert "! retry: attempt 1 failed" in text

    def test_render_without_times_is_stable(self):
        a = render_trace(self.make_trace(), show_times=False)
        b = render_trace(self.make_trace(), show_times=False)
        assert a == b
        assert "ms" not in a

    def test_render_max_depth_truncates(self):
        tracer = Tracer("r")
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        text = render_trace(tracer.finish(), max_depth=1)
        assert "a" in text and "b" not in text


# ------------------------------------------------------------------ metrics

class TestMetrics:
    def test_counter_monotone(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge()
        g.set(10)
        g.add(-3)
        assert g.value == 7

    def test_histogram_buckets(self):
        h = Histogram(bounds=(1.0, 2.0, 5.0))
        for v in (0.5, 1.5, 1.5, 10.0):
            h.observe(v)
        assert h.counts == [1, 2, 0, 1]  # last is overflow
        assert h.count == 4
        assert h.mean == pytest.approx(13.5 / 4)
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == float("inf")

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=())

    def test_registry_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("x") is reg.gauge("x")
        assert reg.histogram("x") is reg.histogram("x")

    def test_snapshot_and_merge(self):
        a = MetricsRegistry()
        a.counter("c").inc(2)
        a.gauge("g").set(1)
        a.histogram("h", (1.0, 2.0)).observe(1.5)
        b = MetricsRegistry()
        b.counter("c").inc(3)
        b.histogram("h", (1.0, 2.0)).observe(0.5)
        b.merge(a.snapshot())
        snap = b.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 1
        assert snap["histograms"]["h"]["counts"] == [1, 1, 0]
        assert snap["histograms"]["h"]["count"] == 2

    def test_merge_rejects_mismatched_bounds(self):
        a = MetricsRegistry()
        a.histogram("h", (1.0, 2.0)).observe(1.0)
        b = MetricsRegistry()
        b.histogram("h", (5.0, 9.0))
        with pytest.raises(ValueError):
            b.merge(a.snapshot())

    def test_thread_safety_under_contention(self):
        reg = MetricsRegistry()
        n_threads, per_thread = 8, 2000

        def work():
            counter = reg.counter("shared")
            hist = reg.histogram("lat", LATENCY_BUCKETS_S)
            for _ in range(per_thread):
                counter.inc()
                hist.observe(0.003)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * per_thread
        assert reg.counter("shared").value == total
        assert reg.histogram("lat").count == total

    def test_snapshot_merge_under_concurrent_writers(self):
        """Merging while writers hammer the source must stay consistent.

        Snapshots taken mid-flight may be stale but never torn: every
        merged histogram must satisfy count == sum(bucket counts), and
        the final merge (after joining) must account for every single
        observation.
        """
        src = MetricsRegistry()
        dst = MetricsRegistry()
        n_threads, per_thread = 4, 1000
        stop = threading.Event()

        def write():
            hist = src.histogram("lat", (0.001, 0.01, 0.1))
            counter = src.counter("ops")
            for i in range(per_thread):
                hist.observe(0.005 if i % 2 else 0.05)
                counter.inc()

        def merge_repeatedly():
            while not stop.is_set():
                probe = MetricsRegistry()
                probe.merge(src.snapshot())
                snap = probe.snapshot()
                for dump in snap["histograms"].values():
                    assert sum(dump["counts"]) == dump["count"]

        writers = [
            threading.Thread(target=write) for _ in range(n_threads)
        ]
        merger = threading.Thread(target=merge_repeatedly)
        merger.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        merger.join()
        dst.merge(src.snapshot())
        total = n_threads * per_thread
        assert dst.counter("ops").value == total
        assert dst.histogram("lat").count == total
        assert sum(dst.histogram("lat").counts) == total

    def test_percentiles_stable_under_concurrent_writers(self):
        """Quantiles computed after a concurrent load match serial math.

        All observations land in known buckets, so the bucket-bound
        quantile is exactly predictable: 60% of samples at 5ms and 40%
        at 50ms over bounds (1ms, 10ms, 100ms) put p50 at 10ms and p95
        at 100ms regardless of write interleaving.
        """
        reg = MetricsRegistry()
        n_threads, per_thread = 8, 500

        def work(tid):
            hist = reg.histogram("lat", (0.001, 0.01, 0.1))
            for i in range(per_thread):
                hist.observe(0.005 if i % 5 < 3 else 0.05)

        threads = [
            threading.Thread(target=work, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        hist = reg.histogram("lat")
        assert hist.count == n_threads * per_thread
        assert hist.quantile(0.5) == 0.01
        assert hist.quantile(0.95) == 0.1
        # the mean is exact: sums are locked, not sampled
        expected_mean = 0.6 * 0.005 + 0.4 * 0.05
        assert hist.mean == pytest.approx(expected_mean)

    def test_quantile_edges_and_merge_equivalence(self):
        """quantile() edge cases + merge == serially observed histogram."""
        empty = Histogram(bounds=(1.0, 2.0))
        assert empty.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            empty.quantile(1.5)

        a = MetricsRegistry()
        b = MetricsRegistry()
        serial = Histogram(bounds=(1.0, 2.0, 5.0))
        for i, v in enumerate((0.5, 1.5, 3.0, 7.0, 1.2, 4.0)):
            (a if i % 2 else b).histogram(
                "h", (1.0, 2.0, 5.0)
            ).observe(v)
            serial.observe(v)
        merged = MetricsRegistry()
        merged.merge(a.snapshot())
        merged.merge(b.snapshot())
        h = merged.histogram("h")
        assert h.counts == serial.counts
        for q in (0.1, 0.5, 0.9, 1.0):
            assert h.quantile(q) == serial.quantile(q)

    def test_clear_forgets_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.clear()
        assert reg.snapshot()["counters"] == {}

    def test_write_metrics(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc(4)
        path = tmp_path / "metrics.json"
        write_metrics(reg, str(path))
        assert json.loads(path.read_text())["counters"]["c"] == 4


# ------------------------------------------------------------------ threads

class TestThreadedTracing:
    def test_spans_nest_per_thread(self):
        tracer = Tracer("root")
        errors = []

        def work(i):
            try:
                with tracer.span(f"t{i}"):
                    with tracer.span(f"t{i}.child"):
                        pass
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        root = tracer.finish()
        assert len(root.children) == 4
        for child in root.children:
            # each thread's child span nested under its own top span
            assert len(child.children) == 1
            assert child.children[0].name == f"{child.name}.child"
