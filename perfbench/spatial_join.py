"""Workload ``spatial-join``: analytic jobs over BSP-partitioned points.

Set-up (``setup_s``, median of :data:`SETUPS`): clustered points and the
smaller DBSCAN point set are BSP-partitioned and cached, the polygons
are cached.

Then one client runs a closed loop of rounds; each round runs, in an
order that rotates every round,

- points x random polygons (``intersects``, a live index built per job),
- the Fig. 4 self-join of the points,
- MR-DBSCAN over the smaller point set.

Geometry (envelope tests, point-in-polygon), R-tree build and probe and
the join/DBSCAN shuffles dominate here; per-job framework cost is a
small share.  An op is one job; latencies are taken per round (all
three jobs), because the jobs differ in size and a percentile over a
mix of unlike jobs falls between them and jumps with small shifts.
Sizes keep a round short enough for >= 40 rounds in a 20 s run, so the
p75 round latency has at least ten rounds beyond it.
"""

from __future__ import annotations

import contextlib
import statistics

import numpy as np

import inputs
import reference
from harness import peak_rss_mb, perf, summary, tail
from tracer import TracedScope

N_POINTS = 5_000
N_POLYGONS = 500
POLYGON_RADIUS = 6.0
N_DBSCAN = 1_200
DBSCAN_EPS = 10.0
DBSCAN_MIN_PTS = 5
SETUPS = 7
KINDS = ("join", "self_join", "dbscan")
#: Traced runs trace every other round; counters cover this many traced rounds.
TRACE_PREFIX_ROUNDS = 2
TAIL_PERCENTILE = 75.0


def setup(sc, points, polygons, dbscan_points, parallelism):
    from repro import BSPartitioner

    rdd = sc.parallelize(points, parallelism)
    part = rdd.partition_by(BSPartitioner.from_rdd(rdd, max_cost_per_partition=max(64, N_POINTS // 16))).persist()
    part.count()
    polys = sc.parallelize(polygons, parallelism).persist()
    polys.count()
    drdd = sc.parallelize(dbscan_points, parallelism)
    dpart = drdd.partition_by(BSPartitioner.from_rdd(drdd, max_cost_per_partition=max(64, N_DBSCAN // 8))).persist()
    dpart.count()
    return part, polys, dpart


def run_job(kind, part, polys, dpart):
    from repro import spatial

    if kind == "join":
        return spatial(part).join(polys, "intersects").count()
    if kind == "self_join":
        return spatial(part).join(part, "intersects").count()
    labelled = spatial(dpart).cluster(DBSCAN_EPS, DBSCAN_MIN_PTS).collect()
    return [(st.geo.x, st.geo.y, label) for st, (_v, label) in labelled]


def dbscan_summary(rows) -> tuple[int, int, int]:
    labels = [label for _x, _y, label in rows]
    clustered = [label for label in labels if label >= 0]
    return len(rows), len(set(clustered)), len(clustered)


def run(args, parallelism, report, scratch, tracer):
    from repro import Polygon, STObject, SparkContext
    from repro.geometry import Point

    rng = np.random.default_rng([args.seed, 11])
    xy = inputs.clustered_xy(rng, N_POINTS)
    # Polygons sit on data points, so every seed's join does similar work.
    centers = xy[rng.choice(N_POINTS, N_POLYGONS, replace=False)]
    rings = inputs.star_polygons(rng, centers, POLYGON_RADIUS)
    dxy = inputs.clustered_xy(np.random.default_rng([args.seed, 12]), N_DBSCAN)
    points = [(STObject(Point(float(x), float(y))), i) for i, (x, y) in enumerate(xy)]
    polygons = [(STObject(Polygon([tuple(map(float, v)) for v in ring])), j) for j, ring in enumerate(rings)]
    dbscan_points = [(STObject(Point(float(x), float(y))), i) for i, (x, y) in enumerate(dxy)]

    sc = SparkContext("perfbench-spatial-join", parallelism=parallelism, executor=args.executor)
    try:
        setup_times = []
        kept = None
        setup_snapshot = None
        for rep in range(SETUPS):
            traced = tracer is not None and rep == 0
            scope = TracedScope(tracer, sc, "setup", "bench.setup") if traced else contextlib.nullcontext()
            start = perf()
            with scope:
                built = setup(sc, points, polygons, dbscan_points, parallelism)
            setup_times.append(perf() - start)
            if kept is not None:
                for rdd in kept:
                    rdd.unpersist()
            kept = built
            if traced:
                setup_snapshot = tracer.snapshot()
        part, polys, dpart = kept
        sizes = part.glom().map(len).collect()
        skew = max(sizes) / (sum(sizes) / len(sizes))

        for kind in KINDS:  # warm-up round
            run_job(kind, part, polys, dpart)
        rss_mb = peak_rss_mb()  # set-up and warm-up done: a fixed amount of work

        done = []  # (kind, latency_s, result, traced)
        round_s = []  # latency of each round that completed all three jobs
        prefix = None
        traced_rounds = 0
        rounds = 0
        ops = 0
        start = perf()
        deadline = start + args.seconds
        while perf() < deadline or (tracer is not None and prefix is None):
            traced = tracer is not None and rounds % 2 == 1
            order = KINDS[rounds % 3:] + KINDS[:rounds % 3]
            round_total, complete = 0.0, True
            for kind in order:
                scope = (
                    TracedScope(tracer, sc, ops, results=kind != "dbscan") if traced else contextlib.nullcontext()
                )
                ops += 1
                t0 = perf()
                try:
                    with scope:
                        result = run_job(kind, part, polys, dpart)
                except Exception as exc:  # an op that raises counts as failed
                    report.mismatch(f"{kind} raised {type(exc).__name__}: {exc}")
                    complete = False
                    continue
                latency = perf() - t0
                round_total += latency
                done.append((kind, latency, result, traced))
                if traced and prefix is None:
                    tracer.count(f"op_s.{kind}", latency)
                    if kind != "dbscan":
                        tracer.count("core.join_pairs", result)
                        tracer.count("index.results", result)
            if complete:
                round_s.append(round_total)
            rounds += 1
            if traced and prefix is None:
                traced_rounds += 1
                if traced_rounds == TRACE_PREFIX_ROUNDS:
                    prefix = tracer.snapshot()
        wall = perf() - start
    finally:
        sc.stop()

    report.attempted += ops
    want_join = _join_reference(xy, rings)
    want_dbscan = reference.dbscan_shape(dxy, DBSCAN_EPS, DBSCAN_MIN_PTS)
    for kind, _lat, result, _traced in done:
        if kind == "join" and result != want_join:
            report.mismatch(f"join: {result} pairs, want {want_join}")
        elif kind == "self_join" and result != N_POINTS:
            report.mismatch(f"self-join: {result} pairs, want {N_POINTS}")
        elif kind == "dbscan":
            rows, clusters, clustered = dbscan_summary(result)
            if (rows, clusters, clustered) != (N_DBSCAN, *want_dbscan):
                report.mismatch(
                    f"dbscan: rows/clusters/clustered {(rows, clusters, clustered)}, want {(N_DBSCAN, *want_dbscan)}"
                )

    round_ms = [v * 1000.0 for v in round_s]
    p50 = summary(round_ms)
    p_tail = tail(round_ms, TAIL_PERCENTILE)
    report.line("# spatial-join")
    for kind, label in (("join", "join_s"), ("self_join", "selfjoin_s"), ("dbscan", "dbscan_s")):
        s = summary([d[1] for d in done if d[0] == kind])
        report.metric(label, s["median"], "s", f"quartiles {s['q1']:.4f}..{s['q3']:.4f}, n={s['n']}")
    report.metric("round_p50_ms", p50["median"], "ms", f"quartiles {p50['q1']:.1f}..{p50['q3']:.1f}, n={p50['n']} rounds")
    report.metric("round_tail_ms", p_tail["value"], "ms", f"p{TAIL_PERCENTILE:g}, {p_tail['beyond']} of {p_tail['n']} beyond")
    report.metric("join_pairs", want_join, "count")
    report.metric("dbscan_clusters", want_dbscan[0], "count")
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
        extras = {
            "snapshot": prefix,
            "loop": prefix - setup_snapshot,
            "values": {
                "partition.skew": skew,
                "trace.overhead_ratio": _overhead(done),
                "trace.ops": TRACE_PREFIX_ROUNDS * len(KINDS),
            },
        }
    return e2e, extras


def _overhead(done) -> float:
    """Mean over job kinds of median traced / median untraced latency - 1."""
    ratios = []
    for kind in KINDS:
        traced = [d[1] for d in done if d[0] == kind and d[3]]
        untraced = [d[1] for d in done if d[0] == kind and not d[3]]
        if traced and untraced:
            ratios.append(statistics.median(traced) / statistics.median(untraced))
    return statistics.mean(ratios) - 1.0 if ratios else 0.0


def _join_reference(xy: np.ndarray, rings) -> int:
    order = np.argsort(xy[:, 0], kind="stable")
    xs, ys = xy[order, 0], xy[order, 1]
    return sum(reference.points_in_polygon(xs, ys, ring) for ring in rings)
