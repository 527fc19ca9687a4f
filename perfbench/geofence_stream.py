"""Workload ``geofence-stream``: an open loop through a durable pipeline.

Seeded moving-object trajectories are cut into batches of
:data:`OBJECTS` positions, one batch every :data:`INTERVAL` seconds of
event time.  At each batch's scheduled time (the creation time of its
last event) the generator pushes it into a ``QueueSource`` and calls
``poll_once()`` and ``process_pending()`` on the main thread; the
schedule never slows down when the pipeline does, so a stall shows as
latency of the batches behind it and as generator lag.

The pipeline, with the write-ahead log and a checkpoint every
:data:`CHECKPOINT_INTERVAL` batches on the local disk:

- ``continuous()`` sliding-window range and kNN queries (keyed state),
- ``patterns()`` with a per-object geofence enter->exit sequence and a
  crowd count rule, matches delivered to a durable ``EventFileSink``,
- ``window().hotspots()`` over the alert events (buffered window path),
- ``join_static`` against 16 districts.

This is the only workload that runs the streaming context, the WAL and
fsync, keyed state, the CEP matchers, the buffered window state and the
sinks.  The input rate (2200 records/s) is about a third of this
pipeline's capacity on a 2-core host, and a checkpoint every half second
(40 per run) makes the latency tail, with window fires and
garbage-collection pauses; the backlog drains between them.  At half of
capacity, with rarer checkpoints, the p95 sat where a few large stalls
and their queueing met and moved by a quarter from run to run.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter

import numpy as np

import inputs
import reference
from harness import peak_rss_mb, perf, summary, tail
from tracer import TracedScope

OBJECTS = 110
INTERVAL = 0.05
WARMUP_BATCHES = 40
CHECKPOINT_INTERVAL = 10
SETUPS = 15
#: Idle time (s) a batch gap must have left for a spare set-up to run in it.
SPARE_SETUP_IDLE = 0.02
WINDOW = 1.0
SLIDE = 0.25
RANGE_BOX = (400.0, 400.0, 600.0, 600.0)
KNN_PROBE = (500.0, 500.0)
KNN_K = 10
FENCE = (300.0, 300.0, 450.0, 450.0)
CROWD_ZONE = (550.0, 150.0, 750.0, 350.0)
CROWD_WITHIN = 1.0
CROWD_THRESHOLD = 88
VISIT_WITHIN = 1.5
ALERT_SHARE = 0.1
HOTSPOT_WINDOW = 1.0
HOTSPOT_EPS = 25.0
HOTSPOT_MIN_PTS = 4
DISTRICTS = 4
TAIL_PERCENTILE = 95.0


def _square(box):
    from repro.geometry import Polygon

    x0, y0, x1, y1 = box
    return Polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def _object_of(_st, value):
    return value[0] % OBJECTS


def _is_alert(record):
    return record[1][1] == "alert"


def declare(ssc):
    """Declare the pipeline on a fresh context; returns its output handles."""
    from repro import STObject
    from repro.geometry import Envelope
    from repro.streaming import count, sequence, step
    from repro.streaming.sinks import EventFileSink

    universe = Envelope(0.0, 0.0, inputs.EXTENT, inputs.EXTENT)
    source, events = ssc.queue_stream()
    cont = events.continuous(length=WINDOW, slide=SLIDE, universe=universe)
    fence = STObject(_square(FENCE))
    rules = [
        sequence("fence-visit", steps=[step(entered=fence), step(exited=fence)],
                 within=VISIT_WITHIN, group_by=_object_of),
        count("crowd", step(inside=STObject(_square(CROWD_ZONE))), within=CROWD_WITHIN,
              threshold=CROWD_THRESHOLD),
    ]
    patterns = events.patterns(*rules, universe=universe)
    size = inputs.EXTENT / DISTRICTS
    districts = [
        (STObject(_square((i * size, j * size, (i + 1) * size, (j + 1) * size))), f"district-{i}-{j}")
        for i in range(DISTRICTS)
        for j in range(DISTRICTS)
    ]
    return {
        "source": source,
        "range": cont.range(STObject(_square(RANGE_BOX))),
        "knn": cont.knn(f"POINT ({KNN_PROBE[0]} {KNN_PROBE[1]})", KNN_K),
        "continuous": cont.consumer,
        "patterns": patterns,
        "rules": rules,
        "matches": patterns.matches(),
        "match_sink": patterns.deliver_to(EventFileSink(ssc.checkpoint_manager.directory + "-matches")),
        "hotspots": events.filter(_is_alert).window(length=HOTSPOT_WINDOW).hotspots(HOTSPOT_EPS, HOTSPOT_MIN_PTS),
        "joined": events.join_static(districts).count_batches(),
    }


def make_inputs(seed: int, n_batches: int) -> dict:
    """Flat numpy columns of every event, batch after batch.

    Records are built per batch just before it is due (see
    :func:`batch_records`): the generator never holds future events as
    live objects, which would inflate the process heap the program's
    garbage collector has to walk.
    """
    rng = np.random.default_rng([seed, 21])
    pos = inputs.trajectories(rng, OBJECTS, n_batches)
    alert = rng.random((n_batches, OBJECTS)) < ALERT_SHARE
    offsets = INTERVAL * np.arange(1, OBJECTS + 1) / OBJECTS
    return {
        "x": pos[:, :, 0].ravel(),
        "y": pos[:, :, 1].ravel(),
        "t": (np.arange(n_batches)[:, None] * INTERVAL + offsets[None, :]).ravel(),
        "alert": alert.ravel(),
    }


def batch_records(cols: dict, b: int) -> list:
    """The ``(STObject, (event id, category))`` records of batch *b*."""
    from repro import STObject
    from repro.geometry import Point

    sl = slice(b * OBJECTS, (b + 1) * OBJECTS)
    return [
        (STObject(Point(float(x), float(y)), float(t)), (b * OBJECTS + i, "alert" if a else "car"))
        for i, (x, y, t, a) in enumerate(zip(cols["x"][sl], cols["y"][sl], cols["t"][sl], cols["alert"][sl]))
    ]


def run(args, parallelism, report, scratch, tracer):
    from repro import SparkContext
    from repro.streaming import StreamingContext

    n_timed = max(1, int(round(args.seconds / INTERVAL)))
    n_batches = WARMUP_BATCHES + n_timed
    cols = make_inputs(args.seed, n_batches)

    sc = SparkContext("perfbench-geofence-stream", parallelism=parallelism, executor=args.executor)

    def set_up(rep: int):
        ssc = StreamingContext(sc, batch_interval=INTERVAL, checkpoint_dir=scratch.sub(f"ck-{rep}"),
                               checkpoint_interval=CHECKPOINT_INTERVAL)
        return ssc, declare(ssc)

    def spare_setup(rep: int) -> float:
        start = perf()
        spare, _out = set_up(rep)
        elapsed = perf() - start
        spare.stop(flush=False)
        return elapsed

    ssc = None
    try:
        # The first set-up serves the stream.  The others run in idle time
        # between batches, spread over the run, so their median sees the
        # host the way the rest of the run does (a set-up takes ~2 ms, and
        # back-to-back repetitions would all sample one instant).
        scope = TracedScope(tracer, sc, "setup", "bench.setup") if tracer else contextlib.nullcontext()
        start = perf()
        with scope:
            ssc, out = set_up(0)
        setup_times = [perf() - start]
        setup_snapshot = tracer.snapshot() if tracer else None
        source = out["source"]
        spacing = max(1, n_batches // SETUPS)

        coin = np.random.default_rng([args.seed, 99]).random(n_batches) < 0.5
        latency, busy, lag, traced_flags = [], [], [], []
        backlog_max = 0
        t0 = perf()
        for b in range(n_batches):
            rows = batch_records(cols, b)
            due = t0 + (b + 1) * INTERVAL
            if b % spacing == spacing // 2 and len(setup_times) < SETUPS and due - perf() > SPARE_SETUP_IDLE:
                setup_times.append(spare_setup(len(setup_times)))
            wait = due - perf()
            if wait > 0:
                time.sleep(wait)
            sent = perf()
            backlog_max = max(backlog_max, int((sent - t0) / INTERVAL) - b)
            traced = tracer is not None and bool(coin[b])
            scope = TracedScope(tracer, sc, b) if traced else contextlib.nullcontext()
            source.push(rows)
            s = perf()
            with scope:
                ssc.poll_once(batch_time=(b + 1) * INTERVAL)
                ssc.process_pending()
            e = perf()
            if b == WARMUP_BATCHES - 1:
                rss_mb = peak_rss_mb()  # set-up and warm-up done: a fixed amount of work
            if b >= WARMUP_BATCHES:
                latency.append(e - due)
                busy.append(e - s)
                lag.append(sent - due)
                traced_flags.append(traced)
        wall = perf() - t0
        while len(setup_times) < SETUPS:  # only when the stream left no idle time
            setup_times.append(spare_setup(len(setup_times)))
        loop_snapshot = tracer.snapshot() if tracer is not None else None
        metrics = ssc.metrics
        ck_stats = ssc.checkpoint_manager.stats()
        stores = [out["continuous"].store, out["patterns"].consumer.store]
        state_values = {
            "state.inserts": sum(s.inserts for s in stores if s is not None),
            "state.removes": sum(s.removes for s in stores if s is not None),
            "state.cell_rebuilds": sum(s.cell_rebuilds for s in stores if s is not None),
            "state.resident_bytes": _resident_bytes(stores),
            "cep.partials_live": _partials(out["patterns"].consumer),
        }
        watermark = out["patterns"].consumer.watermark
    finally:
        if ssc is not None:
            ssc.stop(flush=False)
        sc.stop()

    report.attempted += n_batches
    failed_batches = metrics.batches_failed + metrics.batches_skipped + metrics.batches_shed
    if failed_batches or metrics.batches_run != n_batches:
        report.mismatch(f"stream ran {metrics.batches_run} of {n_batches} batches ({failed_batches} failed/skipped/shed)")
    _check_outputs(report, out, cols, n_batches, watermark)

    n_records = OBJECTS * n_timed
    lat_ms = [v * 1000.0 for v in latency]
    p50 = summary(lat_ms)
    p_tail = tail(lat_ms, TAIL_PERCENTILE)
    capacity = n_records / sum(busy)
    lag_ms = [v * 1000.0 for v in lag]
    report.line("# geofence-stream")
    report.metric("input_rate_rps", OBJECTS / INTERVAL, "records/s", f"{n_timed} timed batches after {WARMUP_BATCHES} warm-up")
    report.metric("emit_latency_p50_ms", p50["median"], "ms", f"quartiles {p50['q1']:.3f}..{p50['q3']:.3f}, n={p50['n']}")
    report.metric("emit_latency_p95_ms", p_tail["value"], "ms", f"p{TAIL_PERCENTILE:g}, {p_tail['beyond']} of {p_tail['n']} beyond")
    report.metric("stream_capacity_rps", capacity, "records/s")
    report.metric("utilization", sum(busy) / (n_timed * INTERVAL), "ratio")
    report.metric("gen_lag_p50_ms", statistics.median(lag_ms), "ms")
    report.metric("gen_lag_max_ms", max(lag_ms), "ms")
    report.metric("backlog_max", backlog_max, "batches")
    report.metric("checkpoints", metrics.checkpoints_written, "count")
    report.metric("windows_emitted", metrics.windows_emitted, "count")
    report.metric("matches_emitted", metrics.matches_emitted, "count")
    report.metric("run_wall_s", wall, "s")
    e2e = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": p50["median"],
        "latency_tail_ms": p_tail["value"],
        "throughput_per_s": capacity,
        "peak_rss_mb": rss_mb,
    }
    extras = None
    if tracer is not None:
        traced_busy = [v for v, f in zip(busy, traced_flags) if f]
        untraced_busy = [v for v, f in zip(busy, traced_flags) if not f]
        n_traced = int(coin.sum())
        loop = loop_snapshot - setup_snapshot
        values = {
            "stream.jobs_per_batch": loop.count("spark.jobs") / max(1, n_traced),
            "stream.backlog_max": backlog_max,
            "stream.gen_lag_p50_ms": statistics.median(lag_ms),
            "stream.gen_lag_max_ms": max(lag_ms),
            "wal.bytes": ck_stats["wal_bytes"],
            "cep.matches": metrics.matches_emitted,
            "sink.retries": out["match_sink"].retries_used,
            "trace.overhead_ratio": statistics.median(traced_busy) / statistics.median(untraced_busy) - 1.0,
            "trace.ops": n_traced,
        }
        values.update(state_values)
        extras = {"snapshot": loop_snapshot, "loop": loop, "values": values}
    return e2e, extras


def _resident_bytes(stores) -> int:
    from repro.streaming.state import estimate_record_bytes

    total = 0
    for store in stores:
        if store is None:
            continue
        for row in store.all_records():
            total += estimate_record_bytes(row[1], row[2])
    return total


def _partials(consumer) -> int:
    live = 0
    for matcher in getattr(consumer, "matchers", []):
        partials = getattr(matcher, "_partials", None)
        if isinstance(partials, dict):
            live += sum(len(p) for p in partials.values())
    return live


def _windows(ts: np.ndarray, length: float, slide: float, watermark: float):
    """Every ``[k*slide, k*slide+length)`` window holding a record and closed by *watermark*."""
    ks = set()
    for t in np.unique(np.floor(ts / slide)):
        k_hi = int(t)
        k_lo = int(np.floor((t * slide - length) / slide)) + 1
        ks.update(range(k_lo - 1, k_hi + 1))
    out = []
    for k in sorted(ks):
        start, end = k * slide, k * slide + length
        if end <= watermark and np.any((ts >= start) & (ts < end)):
            out.append((start, end))
    return out


def _key(window) -> tuple:
    return (round(window.start, 9), round(window.end, 9))


def _check_outputs(report, out, cols, n_batches, watermark) -> None:
    xs, ys, ts = cols["x"], cols["y"], cols["t"]
    ids = np.arange(len(ts))

    # continuous range and kNN: brute-force recompute of each window
    expected = {(round(s, 9), round(e, 9)) for s, e in _windows(ts, WINDOW, SLIDE, watermark)}
    for name in ("range", "knn"):
        got = {_key(w) for w, _r in out[name].results()}
        if got != expected:
            report.mismatch(f"continuous {name}: {len(got)} windows emitted, want {len(expected)}")
    x0, y0, x1, y1 = RANGE_BOX
    for window, rows in out["range"].results():
        inside = (ts >= window.start) & (ts < window.end)
        want = ids[inside & (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)].tolist()
        if sorted(v[0] for _st, v in rows) != want:
            report.mismatch(f"continuous range {_key(window)}: {len(rows)} rows, want {len(want)}")
    for window, best in out["knn"].results():
        inside = (ts >= window.start) & (ts < window.end)
        want = reference.knn_distances(xs[inside], ys[inside], *KNN_PROBE, KNN_K)
        if not reference.same_distances([d for d, _kv in best], want):
            report.mismatch(f"continuous knn {_key(window)}: distances differ")

    # hotspots: cluster count and clustered points per alert window
    alert = cols["alert"]
    # the buffered window's watermark follows the alert sub-stream
    hot_expected = {
        (round(s, 9), round(e, 9))
        for s, e in _windows(ts[alert], HOTSPOT_WINDOW, HOTSPOT_WINDOW, float(ts[alert].max()))
    }
    hot = out["hotspots"].results()
    if {_key(w) for w, _r in hot} != hot_expected:
        report.mismatch(f"hotspots: {len(hot)} windows emitted, want {len(hot_expected)}")
    for window, clusters in hot:
        inside = alert & (ts >= window.start) & (ts < window.end)
        want = reference.dbscan_shape(np.column_stack([xs[inside], ys[inside]]), HOTSPOT_EPS, HOTSPOT_MIN_PTS)
        got = (len(clusters), sum(size for _label, size, _c in clusters))
        if got != want:
            report.mismatch(f"hotspots {_key(window)}: clusters/clustered {got}, want {want}")

    # stream-static join: pairs per batch
    size = inputs.EXTENT / DISTRICTS
    joined = dict(out["joined"].results())
    for b in range(n_batches):
        sl = slice(b * OBJECTS, (b + 1) * OBJECTS)
        bx, by = xs[sl], ys[sl]
        want = 0
        for i in range(DISTRICTS):
            for j in range(DISTRICTS):
                want += int(np.sum((bx >= i * size) & (bx <= (i + 1) * size) & (by >= j * size) & (by <= (j + 1) * size)))
        if joined.get(b) != want:
            report.mismatch(f"join_static batch {b}: {joined.get(b)} pairs, want {want}")

    # CEP: the repository's brute-force oracle at the engine's watermark
    from repro.streaming.cep import brute_force_matches, canonical

    rows = [record for b in range(n_batches) for record in batch_records(cols, b)]
    got = Counter()
    for rule_name, match in out["matches"].results():
        got[rule_name, canonical(match)] += 1
    want = Counter()
    for rule in out["rules"]:
        for match in brute_force_matches(rows, rule, watermark=watermark):
            want[rule.name, canonical(match)] += 1
    if got != want:
        report.mismatch(f"cep: {sum(got.values())} matches, oracle {sum(want.values())}")
    if out["match_sink"].committed != sum(got.values()):
        report.mismatch(f"cep sink committed {out['match_sink'].committed} of {sum(got.values())} matches")
