"""Workload ``query-mix``: small queries over the paper's Fig. 2 workflow.

Set-up (timed as ``setup_s``, median of :data:`SETUPS` repetitions):
timed, clustered points are BSP-partitioned, indexed with
``spatial(rdd).index()``, saved, and reloaded with
``IndexedSpatialRDD.load`` until the loaded trees are resident.

Then one client runs a closed loop of seeded queries, each centred on a
random input point so it hits data.  Every block of :data:`BLOCK`
queries holds, in shuffled order: spatial ranges and narrow-time
spatio-temporal ranges on the loaded index, kNN (k=10),
``within_distance``, and one ``filter_planned`` spatio-temporal query
on the unindexed partitioned RDD.  Almost every query is a short job,
so per-job scheduling, partition pruning and the planner dominate --
the layers this workload is chosen to expose.
"""

from __future__ import annotations

import contextlib
import math
import shutil
import statistics

import numpy as np

import inputs
import reference
from harness import peak_rss_mb, perf, summary, tail
from tracer import TracedScope

N_POINTS = 30_000
HORIZON = 1000.0
SETUPS = 3
MAX_COST = N_POINTS // 16
INDEX_ORDER = 10
BOX_HALF = 10.0
TIME_HALF = 10.0
KNN_K = 10
WD_RADIUS = 8.0
#: Per block: one planned query, the rest split over the indexed kinds.
#: Ranges are the majority, so the median query falls inside their
#: latency mode rather than in the gap between kinds.
BLOCK = 32
BLOCK_KINDS = ["planned"] + ["range"] * 10 + ["st_range"] * 9 + ["knn"] * 6 + ["within_distance"] * 6
WARMUP_QUERIES = 2 * BLOCK
#: Traced runs trace every other query; counters cover this many traced ones.
TRACE_PREFIX = 4 * BLOCK
TAIL_PERCENTILE = 99.0
INDEXED_KINDS = ("range", "st_range", "within_distance")


def _box(x, y, half):
    from repro.geometry import Polygon

    return Polygon([(x - half, y - half), (x + half, y - half), (x + half, y + half), (x - half, y + half)])


def query_stream(seed: int, xy: np.ndarray, ts: np.ndarray):
    """Endless seeded queries: ``(kind, x, y, t)`` around random points."""
    rng = np.random.default_rng([seed, 2])
    while True:
        kinds = list(BLOCK_KINDS)
        rng.shuffle(kinds)
        picks = rng.integers(0, len(xy), BLOCK)
        for kind, i in zip(kinds, picks):
            yield kind, float(xy[i, 0]), float(xy[i, 1]), float(ts[i])


def setup(sc, rows, parallelism, path, tracer=None):
    """Partition, index, save and reload; returns (partitioned, loaded).

    With *tracer*, reloading until the trees are resident is timed as
    one ``index.load`` frame (``load`` itself is lazy).
    """
    from repro import BSPartitioner, IndexedSpatialRDD, spatial

    rdd = sc.parallelize(rows, parallelism)
    partitioner = BSPartitioner.from_rdd(rdd, max_cost_per_partition=MAX_COST)
    partitioned = rdd.partition_by(partitioner).persist()
    partitioned.count()
    built = spatial(partitioned).index(order=INDEX_ORDER)
    built.save(path)
    built.tree_rdd.unpersist()
    with tracer.frame("index.load") if tracer else contextlib.nullcontext():
        loaded = IndexedSpatialRDD.load(sc, path)
        loaded.tree_rdd.count()
    return partitioned, loaded


def discard(partitioned, loaded, path) -> None:
    from repro.index.persistence import invalidate_index_cache

    partitioned.unpersist()
    loaded.tree_rdd.unpersist()
    invalidate_index_cache(path)
    shutil.rmtree(path, ignore_errors=True)


def run_query(kind, x, y, t, partitioned, loaded):
    """One query as a user issues it; returns its materialized result."""
    from repro import STObject, spatial
    from repro.geometry import Point

    if kind == "range":
        return loaded.intersects(STObject(_box(x, y, BOX_HALF), 0.0, HORIZON)).values().collect()
    if kind == "st_range":
        q = STObject(_box(x, y, BOX_HALF), t - TIME_HALF, t + TIME_HALF)
        return loaded.intersects(q).values().collect()
    if kind == "knn":
        return [(d, kv[1]) for d, kv in loaded.knn(STObject(Point(x, y)), KNN_K)]
    if kind == "within_distance":
        q = STObject(Point(x, y), 0.0, HORIZON)
        return loaded.within_distance(q, WD_RADIUS).values().collect()
    if kind == "planned":
        q = STObject(_box(x, y, BOX_HALF), t - TIME_HALF, t + TIME_HALF)
        return spatial(partitioned).filter_planned(q).values().collect()
    raise ValueError(kind)


def check(kind, x, y, t, result, xs, ys, ts) -> str | None:
    """Compare one query result with the numpy reference; None if equal."""
    if kind == "knn":
        want = reference.knn_distances(xs, ys, x, y, KNN_K)
        if not reference.same_distances(result[:, 0], want):
            return f"knn at ({x:.3f},{y:.3f}): distances differ"
        for d, i in result:
            i = int(i)
            if abs(math.hypot(xs[i] - x, ys[i] - y) - d) > 1e-9:
                return f"knn at ({x:.3f},{y:.3f}): id {i} is not at distance {d}"
        return None
    if kind == "range":
        want = reference.box_ids(xs, ys, ts, x - BOX_HALF, y - BOX_HALF, x + BOX_HALF, y + BOX_HALF, 0.0, HORIZON)
    elif kind in ("st_range", "planned"):
        want = reference.box_ids(xs, ys, ts, x - BOX_HALF, y - BOX_HALF, x + BOX_HALF, y + BOX_HALF,
                                 t - TIME_HALF, t + TIME_HALF)
    else:
        want = reference.within_ids(xs, ys, ts, x, y, WD_RADIUS, 0.0, HORIZON)
    if sorted(result.tolist()) != want:
        return f"{kind} at ({x:.3f},{y:.3f},{t:.3f}): {len(result)} rows, want {len(want)}"
    return None


def run(args, parallelism, report, scratch, tracer):
    """Run the workload; returns (end-to-end metrics, per-layer extras)."""
    from repro import STObject, SparkContext
    from repro.geometry import Point

    rng = np.random.default_rng([args.seed, 1])
    xy = inputs.clustered_xy(rng, N_POINTS)
    ts = inputs.event_times(rng, xy, HORIZON)
    xs, ys = xy[:, 0].copy(), xy[:, 1].copy()
    rows = [(STObject(Point(float(x), float(y)), float(t)), i) for i, ((x, y), t) in enumerate(zip(xy, ts))]

    sc = SparkContext("perfbench-query-mix", parallelism=parallelism, executor=args.executor)
    try:
        setup_times = []
        kept = None
        for rep in range(SETUPS):
            path = scratch.sub(f"index-{rep}")
            traced = tracer is not None and rep == 0
            scope = TracedScope(tracer, sc, "setup", "bench.setup") if traced else contextlib.nullcontext()
            start = perf()
            with scope:
                built = setup(sc, rows, parallelism, path, tracer if traced else None)
            setup_times.append(perf() - start)
            if kept is not None:
                discard(*kept)
            kept = (*built, path)
            if tracer and rep == 0:
                setup_snapshot = tracer.snapshot()
        partitioned, loaded, _path = kept
        sizes = partitioned.glom().map(len).collect()
        skew = max(sizes) / (sum(sizes) / len(sizes))

        queries = query_stream(args.seed, xy, ts)
        for _ in range(WARMUP_QUERIES):
            run_query(*next(queries), partitioned, loaded)
        rss_mb = peak_rss_mb()  # set-up and warm-up done: a fixed amount of work

        done = []  # (kind, x, y, t, latency_s, result, traced)
        traced_done = 0
        prefix = None
        ops = 0
        start = perf()
        deadline = start + args.seconds
        while perf() < deadline or (tracer is not None and prefix is None):
            kind, x, y, t = next(queries)
            traced = tracer is not None and ops % 2 == 1
            scope = (
                TracedScope(tracer, sc, ops, results=kind in INDEXED_KINDS) if traced else contextlib.nullcontext()
            )
            before = tracer.snapshot() if traced and kind == "planned" else None
            ops += 1
            t0 = perf()
            try:
                with scope:
                    result = run_query(kind, x, y, t, partitioned, loaded)
            except Exception as exc:  # an op that raises counts as failed
                report.mismatch(f"{kind} raised {type(exc).__name__}: {exc}")
                continue
            latency = perf() - t0
            # one array per result keeps the benchmark's own heap small
            done.append((kind, x, y, t, latency, np.asarray(result), traced))
            if traced and prefix is None:
                _book_traced(tracer, kind, latency, result, before)
                traced_done += 1
                if traced_done == TRACE_PREFIX:
                    prefix = tracer.snapshot()
        wall = perf() - start
    finally:
        sc.stop()

    report.attempted += ops
    for kind, x, y, t, _lat, result, _traced in done:
        problem = check(kind, x, y, t, result, xs, ys, ts)
        if problem:
            report.mismatch(problem)

    lat_ms = [d[4] * 1000.0 for d in done]
    p50 = summary(lat_ms)
    p_tail = tail(lat_ms, TAIL_PERCENTILE)
    report.line("# query-mix")
    report.metric("query_p50_ms", p50["median"], "ms", f"quartiles {p50['q1']:.3f}..{p50['q3']:.3f}, n={p50['n']}")
    report.metric("query_p99_ms", p_tail["value"], "ms", f"p{TAIL_PERCENTILE:g}, {p_tail['beyond']} of {p_tail['n']} beyond")
    report.metric("queries_per_s", len(done) / wall, "1/s")
    for kind in sorted(set(BLOCK_KINDS)):
        sample = [d[4] * 1000.0 for d in done if d[0] == kind]
        if sample:
            s = summary(sample)
            report.metric(f"{kind}_p50_ms", s["median"], "ms", f"quartiles {s['q1']:.3f}..{s['q3']:.3f}, n={s['n']}")
    report.metric("partitions", len(sizes), "count")
    e2e = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": p50["median"],
        "latency_tail_ms": p_tail["value"],
        "throughput_per_s": len(done) / wall,
        "peak_rss_mb": rss_mb,
    }
    extras = None
    if tracer is not None:
        traced = [d[4] for d in done if d[6]]
        untraced = [d[4] for d in done if not d[6]]
        extras = {
            "snapshot": prefix,
            "loop": prefix - setup_snapshot,
            "values": {
                "partition.skew": skew,
                "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced) - 1.0,
                "trace.ops": TRACE_PREFIX,
            },
        }
    return e2e, extras


def _book_traced(tracer, kind, latency, result, before) -> None:
    """Per-op counters the per-layer table needs (traced prefix only)."""
    tracer.count(f"op_s.{kind}", latency)
    if kind in INDEXED_KINDS:
        tracer.count("index.results", len(result))
    if kind == "planned" and before is not None:
        delta = tracer.snapshot() - before
        estimated = delta.count("planner.estimated_candidates")
        if delta.count("planner.pick.scan"):
            # rows surviving a scan's first clause reach refinement
            actual = delta.calls("geometry.predicate") + delta.count("geometry.first_clause_passed")
        else:
            actual = delta.count("index.candidates")
        folded = max((estimated + 1) / (actual + 1), (actual + 1) / (estimated + 1))
        tracer.count("planner.ratio_log_sum", math.log(folded))
        tracer.count("planner.ratio_n", 1)
