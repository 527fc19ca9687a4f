"""Benchmark-side tracing: wraps public calls of each layer from outside.

Nothing here touches ``src/``.  :class:`Tracer` replaces attributes
where the library's callers look them up (class attributes, module
globals, ``os.fsync``, ``ThreadPoolExecutor.submit``) with wrappers
that time each call and count work.  A patch target that a later
version of the library no longer has is skipped and listed in
``Tracer.missing``; its metrics then read 0.

Time accounting uses frames, one per wrapped call, on a per-thread
stack:

- a frame's *self time* is its duration minus the time covered by its
  children -- same-thread children directly, and tasks that other
  threads ran on its behalf as the union of their intervals (a caller
  blocked in a pooled job is idle, not busy);
- work a pool thread runs for a job is a ``spark.task`` frame whose
  parent is the frame that submitted it;
- frames named in :data:`RECORDED` are also kept as spans (name, start,
  end, parent span, op id, thread) and written out as JSON at the end.

Counters live in per-thread dicts, so concurrent tasks never lose an
update; :meth:`Tracer.snapshot` merges them between ops, when no task
runs.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

perf = time.perf_counter

#: Frame key prefix -> the module (layer) it is attributed to.
LAYERS = {
    "bench": "perfbench",
    "spark": "repro.spark",
    "partition": "repro.partitioners",
    "index": "repro.index",
    "geometry": "repro.geometry",
    "core": "repro.core",
    "planner": "repro.planner",
    "stream": "repro.streaming",
    "wal": "repro.streaming.checkpoint",
    "checkpoint": "repro.streaming.checkpoint",
    "state": "repro.streaming.state",
    "window": "repro.streaming.window",
    "cep": "repro.streaming.cep",
    "sink": "repro.streaming.sinks",
}

#: Frames kept as spans.  Hot leaf calls (probes, predicates, the join
#: and DBSCAN inner loops) are timed and counted but not kept, so the
#: span list stays small.
RECORDED = frozenset(
    {
        "bench.op",
        "bench.setup",
        "spark.job",
        "spark.task",
        "partition.build",
        "index.build",
        "index.save",
        "index.load",
        "core.filter",
        "core.knn",
        "core.join",
        "core.dbscan",
        "planner.stats",
        "planner.plan",
        "planner.execute",
        "stream.poll",
        "stream.batch",
        "wal.append",
        "checkpoint.write",
        "state.absorb",
        "state.fire",
        "window.absorb",
        "window.fire",
        "cep.absorb",
        "cep.fire",
        "sink.write",
    }
)


def layer_of(key: str) -> str:
    """The layer (module name) a frame key belongs to."""
    return LAYERS.get(key.split(".", 1)[0], "other")


def union_length(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class _Frame:
    __slots__ = ("key", "start", "child", "xchildren", "xparent", "span_id", "span_parent")

    def __init__(self, key, start, xparent, span_id, span_parent):
        self.key = key
        self.start = start
        self.child = 0.0
        self.xchildren = None
        self.xparent = xparent
        self.span_id = span_id
        self.span_parent = span_parent


class _ThreadState:
    __slots__ = ("stack", "stats", "counts", "xparent", "ident")

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        #: key -> [calls, self seconds, inclusive seconds]
        self.stats: dict[str, list] = {}
        self.counts: defaultdict = defaultdict(int)
        #: The submitting frame of the task this pool thread is running.
        self.xparent: _Frame | None = None
        self.ident = threading.get_ident()


class Snapshot:
    """Merged per-thread statistics at one instant."""

    def __init__(self, stats: dict, counts: dict) -> None:
        self.stats = stats
        self.counts = counts

    def calls(self, key: str) -> int:
        return self.stats.get(key, (0, 0.0, 0.0))[0]

    def self_s(self, key: str) -> float:
        return self.stats.get(key, (0, 0.0, 0.0))[1]

    def incl_s(self, key: str) -> float:
        return self.stats.get(key, (0, 0.0, 0.0))[2]

    def count(self, name: str) -> float:
        return self.counts.get(name, 0)

    def __sub__(self, other: "Snapshot") -> "Snapshot":
        stats = {}
        for k, v in self.stats.items():
            base = other.stats.get(k, (0, 0.0, 0.0))
            stats[k] = [v[i] - base[i] for i in range(3)]
        counts = {k: v - other.counts.get(k, 0) for k, v in self.counts.items()}
        return Snapshot(stats, counts)

    def layer_self(self) -> dict[str, float]:
        """Self seconds summed per layer."""
        out: dict[str, float] = defaultdict(float)
        for key, (_calls, self_s, _incl) in self.stats.items():
            out[layer_of(key)] += self_s
        return dict(out)


class Tracer:
    """Installable call wrappers plus the span and counter store."""

    def __init__(self, max_spans: int = 200_000) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple] = []
        self._installed = False
        self._next_span = 0
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.op_id: int | None = None
        #: Set while the current op's result size is booked as
        #: ``index.results``: its candidates then count towards
        #: ``index.useful_ratio``.
        self.results_op = False
        self.missing: list[str] = []

    # -- per-thread state ------------------------------------------------

    def state(self) -> _ThreadState:
        try:
            return self._tls.s
        except AttributeError:
            s = _ThreadState()
            self._tls.s = s
            with self._lock:
                self._states.append(s)
            return s

    def top(self) -> _Frame | None:
        st = self.state()
        return st.stack[-1] if st.stack else st.xparent

    def count(self, name: str, n: float = 1) -> None:
        """Add *n* to counter *name* (thread-local, merged on snapshot)."""
        self.state().counts[name] += n

    # -- frames ------------------------------------------------------------

    def enter(self, key: str) -> _Frame:
        st = self.state()
        parent = st.stack[-1] if st.stack else st.xparent
        span_parent = None
        if parent is not None:
            span_parent = parent.span_id if parent.span_id is not None else parent.span_parent
        span_id = None
        if key in RECORDED:
            with self._lock:
                span_id = self._next_span
                self._next_span += 1
        frame = _Frame(key, perf(), None if st.stack else st.xparent, span_id, span_parent)
        st.stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = perf()
        st = self.state()
        st.stack.pop()
        dur = end - frame.start
        busy = frame.child
        if frame.xchildren:
            busy += union_length(frame.xchildren, frame.start, end)
        self_s = dur - busy if dur > busy else 0.0
        row = st.stats.get(frame.key)
        if row is None:
            row = st.stats[frame.key] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += self_s
        row[2] += dur
        if st.stack:
            st.stack[-1].child += dur
        elif frame.xparent is not None:
            xp = frame.xparent
            if xp.xchildren is None:
                xp.xchildren = []
            xp.xchildren.append((frame.start, end))
        if frame.span_id is not None:
            if len(self.spans) < self.max_spans:
                self.spans.append(
                    (frame.span_id, frame.key, frame.start, end, frame.span_parent, self.op_id, st.ident)
                )
            else:
                self.spans_dropped += 1

    @contextlib.contextmanager
    def frame(self, key: str):
        """Context manager form of :meth:`enter`/:meth:`exit`."""
        frame = self.enter(key)
        try:
            yield frame
        finally:
            self.exit(frame)

    # -- wrappers ----------------------------------------------------------

    def timed(self, key: str, after=None):
        """Wrap a function: one frame per call; ``after(tracer, args, result)``."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = tracer.enter(key)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.exit(frame)
                if after is not None:
                    after(tracer, args, result)
                return result

            return wrapper

        return make

    def timed_gen(self, key: str):
        """Wrap a generator function: one frame around each resumption."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        frame = tracer.enter(key)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer.exit(frame)
                        yield item
                finally:
                    gen.close()

            return wrapper

        return make

    def counted(self, name: str):
        """Wrap a hot function: count calls only, no timing."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.state().counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def fsync_counter(self):
        """Wrap ``os.fsync``: count under the innermost frame's key."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(fd):
                top = tracer.top()
                tracer.state().counts["fsync@" + (top.key if top else "none")] += 1
                return fn(fd)

            return wrapper

        return make

    def submit_wrapper(self):
        """Wrap ``ThreadPoolExecutor.submit``: each task is a child frame."""
        tracer = self

        def make(submit):
            @functools.wraps(submit)
            def wrapper(pool, fn, /, *args, **kwargs):
                parent = tracer.top()

                def task(*a, **kw):
                    st = tracer.state()
                    previous = st.xparent
                    st.xparent = parent
                    frame = tracer.enter("spark.task")
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer.exit(frame)
                        st.xparent = previous

                return submit(pool, task, *args, **kwargs)

            return wrapper

        return make

    # -- patching ----------------------------------------------------------

    def add_patch(self, owner, name: str, make) -> None:
        """Register a patch of ``owner.name`` (skipped if absent)."""
        if owner is None:
            self.missing.append(name)
            return
        if isinstance(owner, type):
            raw = None
            for klass in owner.__mro__:
                if name in klass.__dict__:
                    raw = klass.__dict__[name]
                    break
        else:
            raw = getattr(owner, name, None)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, name, raw, new, name in getattr(owner, "__dict__", {})))

    def install(self) -> None:
        if self._installed:
            return
        for owner, name, _raw, new, _own in self._patches:
            setattr(owner, name, new)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, name, raw, _new, own in reversed(self._patches):
            if own or not isinstance(owner, type):
                setattr(owner, name, raw)
            else:
                delattr(owner, name)
        self._installed = False

    # -- results -----------------------------------------------------------

    def snapshot(self) -> Snapshot:
        stats: dict[str, list] = {}
        counts: dict[str, float] = defaultdict(int)
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, row in list(st.stats.items()):
                acc = stats.setdefault(key, [0, 0.0, 0.0])
                acc[0] += row[0]
                acc[1] += row[1]
                acc[2] += row[2]
            for name, value in list(st.counts.items()):
                counts[name] += value
        return Snapshot(stats, dict(counts))

    def write_spans(self, path: str, meta: dict) -> None:
        """Write every kept span as JSON (times relative to the first)."""
        spans = sorted(self.spans, key=lambda s: s[2])
        origin = spans[0][2] if spans else 0.0
        doc = dict(meta)
        doc["spans_dropped"] = self.spans_dropped
        doc["patches_missing"] = self.missing
        doc["spans"] = [
            {
                "id": sid,
                "name": key,
                "layer": layer_of(key),
                "start_s": round(start - origin, 9),
                "end_s": round(end - origin, 9),
                "parent": parent,
                "op": op,
                "thread": ident,
            }
            for sid, key, start, end, parent, op, ident in spans
        ]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _probe_after(tracer: Tracer, _args, result) -> None:
    # query_st may return (candidates, slices_pruned)
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[0], list):
        result = result[0]
    try:
        n = len(result)
    except TypeError:
        return
    counts = tracer.state().counts
    counts["index.candidates"] += n
    if tracer.results_op:
        counts["index.result_candidates"] += n


def _clause_after(tracer: Tracer, _args, passed) -> None:
    if passed:
        tracer.state().counts["geometry.first_clause_passed"] += 1


def _pruning_after(tracer: Tracer, args, _result) -> None:
    # PartitionPruningRDD(parent, keep)
    if len(args) >= 3:
        parent, keep = args[1], args[2]
        try:
            considered = parent.num_partitions
            kept = len(list(keep))
        except (AttributeError, TypeError):
            return
        counts = tracer.state().counts
        counts["partition.considered"] += considered
        counts["partition.pruned"] += max(0, considered - kept)


def _plan_after(tracer: Tracer, _args, plan) -> None:
    strategy = getattr(plan, "strategy", None)
    if strategy is None:
        return
    counts = tracer.state().counts
    counts["planner.pick." + strategy.replace(":", "_")] += 1
    estimate = getattr(plan, "estimate", None)
    counts["planner.estimated_candidates"] += float(getattr(estimate, "candidates", 0.0) or 0.0)


def _checkpoint_after(tracer: Tracer, _args, path) -> None:
    total = 0
    if isinstance(path, str) and os.path.isdir(path):
        for name in os.listdir(path):
            try:
                total += os.path.getsize(os.path.join(path, name))
            except OSError:
                pass
    tracer.state().counts["checkpoint.bytes"] += total


def _window_absorb_after(tracer: Tracer, args, _result) -> None:
    state = getattr(args[0], "state", None)
    buffered = getattr(state, "_open", None)
    if isinstance(buffered, dict):
        n = sum(len(rows) for rows in buffered.values())
        counts = tracer.state().counts
        counts["window.records_buffered"] = max(counts["window.records_buffered"], n)


def build_tracer() -> Tracer:
    """A tracer with every layer's patch registered (not yet installed)."""
    import repro.core.clustering.mr_dbscan as mr_dbscan
    import repro.core.filter as core_filter
    import repro.core.join as core_join
    import repro.core.knn as core_knn
    import repro.core.predicates as core_predicates
    import repro.core.spatial_rdd as spatial_rdd
    import repro.geometry.base as geometry_base
    import repro.geometry.envelope as geometry_envelope
    import repro.index.rtree as rtree
    import repro.partitioners.bsp as bsp
    import repro.planner.planner as planner
    import repro.planner.stats as planner_stats
    import repro.spark.context as spark_context
    import repro.spark.rdd as spark_rdd
    import repro.streaming.checkpoint as checkpoint
    import repro.streaming.context as stream_context
    import repro.streaming.dstream as dstream
    import repro.streaming.sinks as sinks
    import repro.streaming.sources as sources
    import repro.streaming.state as state

    try:
        import repro.index.temporal_forest as temporal_forest
    except ImportError:
        temporal_forest = None
    try:
        import repro.index.rtree3d as rtree3d
    except ImportError:
        rtree3d = None
    try:
        import repro.streaming.cep.consumer as cep_consumer
    except ImportError:
        cep_consumer = None

    t = Tracer()
    g = getattr
    # repro.spark
    t.add_patch(spark_context.SparkContext, "run_job", t.timed("spark.job"))
    t.add_patch(ThreadPoolExecutor, "submit", t.submit_wrapper())
    t.add_patch(g(spark_rdd, "PartitionPruningRDD", None), "__init__", t.timed("spark.prune_rdd", _pruning_after))
    # repro.partitioners
    t.add_patch(bsp.BSPartitioner, "__init__", t.timed("partition.build"))
    # repro.index
    t.add_patch(rtree.STRTree, "__init__", t.timed("index.build"))
    t.add_patch(rtree.STRTree, "query", t.timed("index.probe", _probe_after))
    t.add_patch(rtree.STRTree, "nearest", t.timed("index.probe"))
    if temporal_forest is not None:
        t.add_patch(g(temporal_forest, "TimeSlicedForest", None), "__init__", t.timed("index.build"))
        t.add_patch(g(temporal_forest, "TimeSlicedForest", None), "query_st", t.timed("index.probe", _probe_after))
    if rtree3d is not None:
        t.add_patch(g(rtree3d, "STRTree3D", None), "__init__", t.timed("index.build"))
        t.add_patch(g(rtree3d, "STRTree3D", None), "query_st", t.timed("index.probe", _probe_after))
    t.add_patch(spatial_rdd.IndexedSpatialRDD, "save", t.timed("index.save"))
    # repro.geometry: exact refinement and envelope tests
    t.add_patch(core_predicates.STPredicate, "evaluate", t.timed("geometry.predicate"))
    t.add_patch(core_predicates.STPredicate, "evaluate_ordered", t.timed("geometry.predicate"))
    t.add_patch(core_predicates.STPredicate, "temporal_clause", t.timed("geometry.temporal_clause", _clause_after))
    t.add_patch(geometry_base.Geometry, "distance", t.timed("geometry.predicate"))
    t.add_patch(geometry_envelope.Envelope, "intersects", t.counted("geometry.envelope_tests"))
    t.add_patch(geometry_envelope.Envelope, "contains", t.counted("geometry.envelope_tests"))
    # repro.core: operator entry points (where spatial_rdd looks them up)
    for name in ("filter_no_index", "filter_live_index", "filter_indexed"):
        t.add_patch(core_filter, name, t.timed("core.filter"))
    t.add_patch(core_knn, "knn", t.timed("core.knn"))
    t.add_patch(core_knn, "knn_indexed", t.timed("core.knn"))
    t.add_patch(core_join, "spatial_join", t.timed("core.join"))
    t.add_patch(g(core_join, "SpatialJoinRDD", None), "compute", t.timed_gen("core.join_loop"))
    t.add_patch(spatial_rdd, "dbscan", t.timed("core.dbscan"))
    t.add_patch(dstream, "dbscan", t.timed("core.dbscan"))
    t.add_patch(mr_dbscan, "local_dbscan", t.timed("core.dbscan_local"))
    # repro.planner
    t.add_patch(planner.QueryPlanner, "statistics", t.timed("planner.stats"))
    t.add_patch(planner.QueryPlanner, "plan_filter", t.timed("planner.plan", _plan_after))
    t.add_patch(planner.QueryPlanner, "execute", t.timed("planner.execute"))
    t.add_patch(planner_stats, "_summarize_partition", t.timed_gen("planner.stats_partition"))
    # repro.streaming (context, sources, operators)
    t.add_patch(stream_context.StreamingContext, "poll_once", t.timed("stream.poll"))
    t.add_patch(stream_context.StreamingContext, "process_pending", t.timed("stream.batch"))
    t.add_patch(sources.QueueSource, "poll", t.timed("stream.source"))
    t.add_patch(dstream, "stream_static_join", t.timed("stream.static_join"))
    # repro.streaming.checkpoint
    t.add_patch(checkpoint.WalWriter, "append", t.timed("wal.append"))
    t.add_patch(checkpoint.CheckpointManager, "write_checkpoint", t.timed("checkpoint.write"))
    t.add_patch(checkpoint, "write_checkpoint", t.timed("checkpoint.commit", _checkpoint_after))
    t.add_patch(os, "fsync", t.fsync_counter())
    # repro.streaming.state
    t.add_patch(state.StateConsumer, "absorb", t.timed("state.absorb"))
    t.add_patch(state.StateConsumer, "fire", t.timed("state.fire"))
    # repro.streaming.window (the buffered window() path)
    window_consumer = g(dstream, "_WindowConsumer", None)
    t.add_patch(window_consumer, "absorb", t.timed("window.absorb", _window_absorb_after))
    t.add_patch(window_consumer, "fire", t.timed("window.fire"))
    # repro.streaming.cep
    if cep_consumer is not None:
        t.add_patch(cep_consumer.CepConsumer, "absorb", t.timed("cep.absorb"))
        t.add_patch(cep_consumer.CepConsumer, "fire", t.timed("cep.fire"))
    # repro.streaming.sinks
    t.add_patch(sinks.WindowSink, "__call__", t.timed("sink.write"))
    return t


#: SparkContext.metrics fields booked per traced op -> counter name.
SPARK_COUNTERS = {
    "jobs_run": "spark.jobs",
    "tasks_launched": "spark.tasks",
    "partitions_pruned": "spark.partitions_pruned",
    "partitions_pruned_temporal": "spark.partitions_pruned",
    "shuffle_records_written": "spark.shuffle_records",
    "tasks_retried": "spark.tasks_retried",
}


class TracedScope:
    """Installs the tracer around one op (or set-up) of the benchmark.

    The op gets a ``bench.op``/``bench.setup`` frame and the op id, and
    the context's own counters (``sc.metrics``) are booked as deltas, so
    untraced ops interleaved with traced ones never leak into the trace.
    """

    def __init__(self, tracer: Tracer, sc, op_id, key: str = "bench.op", results: bool = False) -> None:
        self.tracer = tracer
        self.sc = sc
        self.op_id = op_id
        self.key = key
        self.results = results

    def __enter__(self) -> "TracedScope":
        self.tracer.install()
        self.tracer.op_id = self.op_id
        self.tracer.results_op = self.results
        self.before = self.sc.metrics.snapshot() if self.sc is not None else {}
        self.frame = self.tracer.enter(self.key)
        return self

    def __exit__(self, *exc) -> bool:
        self.tracer.exit(self.frame)
        self.tracer.uninstall()
        self.tracer.op_id = None
        self.tracer.results_op = False
        if self.sc is not None:
            after = self.sc.metrics.snapshot()
            for field, name in SPARK_COUNTERS.items():
                delta = after.get(field, 0) - self.before.get(field, 0)
                if delta:
                    self.tracer.count(name, delta)
        return False
