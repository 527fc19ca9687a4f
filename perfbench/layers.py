"""Per-layer metrics: their names, and how a trace turns into them.

A traced run measures one traced set-up plus a fixed prefix of traced
ops (see ``run.py``), so the counts below repeat exactly for a seed.
On ``geofence-stream`` the traced ops are a seeded half of all batches,
and the counters the library keeps itself (``wal.bytes``, ``state.*``
counts, ``cep.matches``, ``sink.retries``) cover the whole stream.

Times named ``*_s`` are the inclusive wall time of the wrapped calls,
except the self times ``spark.job_s`` (scheduling and task framework,
every other layer's work taken out), ``index.build_s``,
``index.probe_s`` and ``planner.plan_s``; ``core.*_s`` sum the
latencies of the traced ops of each operator.  ``layer_share.*`` is
each layer's share of the self time of the traced ops.  Counting
wrappers (envelope tests) add their cost to the layer that calls them.
"""

from __future__ import annotations

import math

from tracer import Snapshot

#: (name, unit, better) -- the ``per_layer`` list of BENCHMARK.json.
PER_LAYER = [
    ("spark.jobs", "count", "lower"),
    ("spark.tasks", "count", "lower"),
    ("spark.job_s", "s", "lower"),
    ("spark.partitions_pruned", "count", "higher"),
    ("spark.shuffle_records", "count", "lower"),
    ("spark.tasks_retried", "count", "lower"),
    ("partition.build_s", "s", "lower"),
    ("partition.skew", "ratio", "lower"),
    ("partition.prune_ratio", "ratio", "higher"),
    ("index.builds", "count", "lower"),
    ("index.build_s", "s", "lower"),
    ("index.probes", "count", "lower"),
    ("index.probe_s", "s", "lower"),
    ("index.candidates", "count", "lower"),
    ("index.useful_ratio", "ratio", "higher"),
    ("index.save_s", "s", "lower"),
    ("index.load_s", "s", "lower"),
    ("geometry.envelope_tests", "count", "lower"),
    ("geometry.predicate_evals", "count", "lower"),
    ("geometry.predicate_s", "s", "lower"),
    ("core.filter_s", "s", "lower"),
    ("core.knn_s", "s", "lower"),
    ("core.join_s", "s", "lower"),
    ("core.join_pairs", "count", "higher"),
    ("core.dbscan_s", "s", "lower"),
    ("planner.stats_s", "s", "lower"),
    ("planner.plan_s", "s", "lower"),
    ("planner.execute_s", "s", "lower"),
    ("planner.estimate_ratio", "ratio", "lower"),
    ("planner.pick.scan", "count", "lower"),
    ("planner.pick.live_spatial", "count", "lower"),
    ("planner.pick.live_temporal", "count", "lower"),
    ("planner.pick.live_3d", "count", "lower"),
    ("stream.poll_s", "s", "lower"),
    ("stream.batch_s", "s", "lower"),
    ("stream.jobs_per_batch", "count", "lower"),
    ("stream.backlog_max", "count", "lower"),
    ("stream.gen_lag_p50_ms", "ms", "lower"),
    ("stream.gen_lag_max_ms", "ms", "lower"),
    ("wal.append_s", "s", "lower"),
    ("wal.bytes", "bytes", "lower"),
    ("wal.fsyncs", "count", "lower"),
    ("checkpoint.write_s", "s", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("state.absorb_s", "s", "lower"),
    ("state.fire_s", "s", "lower"),
    ("state.inserts", "count", "lower"),
    ("state.removes", "count", "lower"),
    ("state.cell_rebuilds", "count", "lower"),
    ("state.resident_bytes", "bytes", "lower"),
    ("window.absorb_s", "s", "lower"),
    ("window.fire_s", "s", "lower"),
    ("window.records_buffered", "count", "lower"),
    ("cep.absorb_s", "s", "lower"),
    ("cep.fire_s", "s", "lower"),
    ("cep.partials_live", "count", "lower"),
    ("cep.matches", "count", "higher"),
    ("sink.write_s", "s", "lower"),
    ("sink.retries", "count", "lower"),
    ("layer_share.spark", "ratio", "lower"),
    ("layer_share.partitioners", "ratio", "lower"),
    ("layer_share.index", "ratio", "lower"),
    ("layer_share.geometry", "ratio", "lower"),
    ("layer_share.core", "ratio", "lower"),
    ("layer_share.planner", "ratio", "lower"),
    ("layer_share.streaming", "ratio", "lower"),
    ("layer_share.checkpoint", "ratio", "lower"),
    ("layer_share.state", "ratio", "lower"),
    ("layer_share.window", "ratio", "lower"),
    ("layer_share.cep", "ratio", "lower"),
    ("layer_share.sinks", "ratio", "lower"),
    ("layer_share.benchmark", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.spans", "count", "lower"),
]

#: layer_share suffix -> layer (module) name used by the tracer.
SHARE_LAYERS = {
    "spark": "repro.spark",
    "partitioners": "repro.partitioners",
    "index": "repro.index",
    "geometry": "repro.geometry",
    "core": "repro.core",
    "planner": "repro.planner",
    "streaming": "repro.streaming",
    "checkpoint": "repro.streaming.checkpoint",
    "state": "repro.streaming.state",
    "window": "repro.streaming.window",
    "cep": "repro.streaming.cep",
    "sinks": "repro.streaming.sinks",
    "benchmark": "perfbench",
}

#: Work counters that must repeat exactly for one seed.
DETERMINISTIC = (
    "spark.tasks",
    "index.candidates",
    "geometry.envelope_tests",
    "geometry.predicate_evals",
    "spark.shuffle_records",
    "wal.bytes",
    "wal.fsyncs",
    "state.inserts",
    "state.removes",
    "cep.matches",
)


def shares(snap: Snapshot) -> dict[str, float]:
    """Each layer's share of the total self time in *snap*."""
    per_layer = snap.layer_self()
    total = sum(per_layer.values()) or 1.0
    return {name: per_layer.get(layer, 0.0) / total for name, layer in SHARE_LAYERS.items()}


def compute(snap: Snapshot, loop: Snapshot, extras: dict) -> dict[str, float]:
    """Per-layer values from a trace (*snap*: set-up plus prefix; *loop*:
    the prefix alone, for shares); *extras* override or add values."""
    c = snap.count
    m: dict[str, float] = {}
    m["spark.jobs"] = c("spark.jobs")
    m["spark.tasks"] = c("spark.tasks")
    m["spark.job_s"] = snap.self_s("spark.job") + snap.self_s("spark.task") + snap.self_s("spark.prune_rdd")
    m["spark.partitions_pruned"] = c("spark.partitions_pruned")
    m["spark.shuffle_records"] = c("spark.shuffle_records")
    m["spark.tasks_retried"] = c("spark.tasks_retried")
    m["partition.build_s"] = snap.incl_s("partition.build")
    considered = c("partition.considered")
    m["partition.prune_ratio"] = c("partition.pruned") / considered if considered else 0.0
    m["index.builds"] = snap.calls("index.build")
    m["index.build_s"] = snap.self_s("index.build")
    m["index.probes"] = snap.calls("index.probe")
    m["index.probe_s"] = snap.self_s("index.probe")
    m["index.candidates"] = c("index.candidates")
    useful_base = c("index.result_candidates")
    m["index.useful_ratio"] = c("index.results") / useful_base if useful_base else 0.0
    m["index.save_s"] = snap.incl_s("index.save")
    m["index.load_s"] = snap.incl_s("index.load")
    m["geometry.envelope_tests"] = c("geometry.envelope_tests")
    m["geometry.predicate_evals"] = snap.calls("geometry.predicate")
    m["geometry.predicate_s"] = snap.incl_s("geometry.predicate")
    m["core.filter_s"] = c("op_s.range") + c("op_s.st_range") + c("op_s.within_distance")
    m["core.knn_s"] = c("op_s.knn")
    m["core.join_s"] = c("op_s.join") + c("op_s.self_join")
    m["core.join_pairs"] = c("core.join_pairs")
    m["core.dbscan_s"] = c("op_s.dbscan")
    m["planner.stats_s"] = snap.incl_s("planner.stats")
    m["planner.plan_s"] = snap.self_s("planner.plan")
    m["planner.execute_s"] = max(0.0, c("op_s.planned") - snap.incl_s("planner.plan"))
    n_ratio = c("planner.ratio_n")
    m["planner.estimate_ratio"] = math.exp(c("planner.ratio_log_sum") / n_ratio) if n_ratio else 0.0
    for strategy in ("scan", "live_spatial", "live_temporal", "live_3d"):
        m[f"planner.pick.{strategy}"] = c(f"planner.pick.{strategy}")
    m["stream.poll_s"] = snap.incl_s("stream.poll")
    m["stream.batch_s"] = snap.incl_s("stream.batch")
    m["wal.append_s"] = snap.incl_s("wal.append")
    m["wal.fsyncs"] = c("fsync@wal.append")
    m["checkpoint.write_s"] = snap.incl_s("checkpoint.write")
    m["checkpoint.bytes"] = c("checkpoint.bytes")
    m["state.absorb_s"] = snap.incl_s("state.absorb")
    m["state.fire_s"] = snap.incl_s("state.fire")
    m["window.absorb_s"] = snap.incl_s("window.absorb")
    m["window.fire_s"] = snap.incl_s("window.fire")
    m["window.records_buffered"] = c("window.records_buffered")
    m["cep.absorb_s"] = snap.incl_s("cep.absorb")
    m["cep.fire_s"] = snap.incl_s("cep.fire")
    m["sink.write_s"] = snap.incl_s("sink.write")
    for name, share in shares(loop).items():
        m[f"layer_share.{name}"] = share
    m.update(extras)
    return m


def as_metrics(values: dict[str, float]) -> dict:
    """Every per-layer metric as ``{"value", "unit"}`` (absent -> 0)."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _better in PER_LAYER
    }


def print_table(report, values: dict[str, float]) -> None:
    report.line("# per-layer (traced set-up + traced op prefix)")
    for name, unit, _better in PER_LAYER:
        report.metric(name, float(values.get(name, 0.0)), unit)
