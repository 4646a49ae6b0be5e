"""The metrics the benchmark reports: names, units, which way is better.

``BENCHMARK.json`` lists the same names; the benchmark's tests check
that the two agree.
"""

from typing import Tuple

__all__ = ["END_TO_END", "PER_LAYER"]

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"), ("throughput_sps", "statements/s"),
    ("build_p50_ms", "ms"), ("build_p90_ms", "ms"),
    ("search_p50_ms", "ms"), ("search_p90_ms", "ms"),
    ("query_p50_ms", "ms"), ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # (name, unit, better); see the README for each one's denominator
    ("query.parse_ms", "ms", "lower"),
    ("query.parse_calls", "count", "lower"),
    ("query.analyze_ms", "ms", "lower"),
    ("query.select_ms", "ms", "lower"),
    ("work.query.rows_scanned", "count", "lower"),
    ("work.query.predicate_evals", "count", "lower"),
    ("discretize.fit_ms", "ms", "lower"),
    ("discretize.fit_calls", "count", "lower"),
    ("features.select_ms", "ms", "lower"),
    ("work.features.contingency_cells", "count", "lower"),
    ("work.features.chi2_cells", "count", "lower"),
    ("clustering.encode_ms", "ms", "lower"),
    ("clustering.fit_ms", "ms", "lower"),
    ("work.cluster.distance_evals", "count", "lower"),
    ("work.cluster.iterations", "count", "lower"),
    ("work.cluster.reseeds", "count", "lower"),
    ("clustering.iterations_per_fit", "count", "lower"),
    ("iunits.label_ms", "ms", "lower"),
    ("iunits.diversify_ms", "ms", "lower"),
    ("iunits.similarity_ms", "ms", "lower"),
    ("work.diversify.astar_expanded", "count", "lower"),
    ("work.diversify.similarity_pairs", "count", "lower"),
    ("iunits.shown_per_candidate", "ratio", "higher"),
    ("core.build_self_ms", "ms", "lower"),
    ("core.execute_self_ms", "ms", "lower"),
    ("phase.compare_attrs_ms", "ms", "lower"),
    ("phase.iunits_ms", "ms", "lower"),
    ("phase.others_ms", "ms", "lower"),
    ("dataset.generate_s", "s", "lower"),
    ("executor.submit_ms", "ms", "lower"),
    ("executor.handoff_ms", "ms", "lower"),
    ("proc.ready_s", "s", "lower"),
    ("proc.worker_elapsed_ms", "ms", "lower"),
    ("proc.roundtrip_overhead_ms", "ms", "lower"),
    ("proc.frame_codec_ms", "ms", "lower"),
    ("obs.telemetry_ingest_ms", "ms", "lower"),
    ("proc.deaths", "count", "lower"),
    ("proc.restarts", "count", "lower"),
    ("proc.resubmits", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("wal.commit_ms", "ms", "lower"),
    ("wal.fsyncs", "count", "lower"),
    ("wal.snapshots", "count", "lower"),
    ("wal.acks_per_fsync", "ratio", "higher"),
    ("process.cpu_per_wall", "ratio", "lower"),
    ("unattributed_ms", "ms", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
)
