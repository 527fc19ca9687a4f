#!/usr/bin/env python3
"""Compare executor backends or planner strategies; write machine-readable JSON.

``--mode executors`` (the default) runs filter / join / knn / dbscan
once per executor backend (``sequential``, ``threads``, ``processes``)
over the same generated dataset and writes ``BENCH_executors.json``::

    python benchmarks/run_bench.py --points 20000 --out BENCH_executors.json
    python benchmarks/run_bench.py --executors threads,processes --repeat 3

Each workload records wall time (best of ``--repeat``), the number of
tasks launched, the workload's result value (sanity-checked identical
across backends) and the speedup over the sequential backend.  The JSON
schema is ``bench.executors/v1`` -- stable keys, suitable for CI
artifact diffing.

``--mode planner`` benchmarks the cost-based planner on a temporally
selective query over a long history: the naive plan (spatial-only live
index) against whatever index mode the planner picks, gated on result
equality -- verified on the sequential *and* threaded executors under
seeded fault injection -- plus the tracer's candidate counters::

    python benchmarks/run_bench.py --mode planner --out BENCH_planner.json

The planner report (schema ``bench.planner/v1``) records wall times,
candidate counts, the candidate-reduction factor (deterministic; the
schema checker requires >= 3) and the measured speedup.

The ``processes`` backend spawns workers that re-import ``__main__``,
so this script must be run as a file (as shown above), not piped to
stdin.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.chaos import FaultInjector
from repro.core.clustering import dbscan
from repro.core.filter import filter_live_index, filter_no_index
from repro.core.join import spatial_join
from repro.core.knn import knn
from repro.core.predicates import INTERSECTS
from repro.core.stobject import STObject
from repro.io.datagen import clustered_points, random_polygons
from repro.partitioners.grid import GridPartitioner
from repro.planner import QueryPlanner
from repro.spark.context import SparkContext

DEFAULT_EXECUTORS = ("sequential", "threads", "processes")
DBSCAN_EPS = 12.0
DBSCAN_MIN_PTS = 5


def build_workloads(sc: SparkContext, points: int, parallelism: int):
    """The shared dataset plus one closure per benchmarked workload.

    Workload results are plain comparable values (counts, id tuples) so
    the harness can assert backend equivalence.
    """
    pts = clustered_points(points, num_clusters=10, seed=1704)
    rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], parallelism)
    grid = GridPartitioner.from_rdd(rdd, 4)
    partitioned = rdd.partition_by(grid).persist()
    partitioned.count()  # materialize the cache before timing

    window = STObject("POLYGON ((300 300, 700 300, 700 700, 300 700, 300 300))")
    polys = random_polygons(
        max(40, points // 100), mean_radius_fraction=0.03, seed=1704
    )
    polys_rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(polys)], 4)
    query = STObject("POINT (500 500)")

    def run_filter():
        return filter_live_index(partitioned, window, INTERSECTS).count()

    def run_join():
        return spatial_join(partitioned, polys_rdd, INTERSECTS).count()

    def run_knn():
        best = knn(partitioned, query, 10)
        return tuple(sorted(i for _d, (_st, i) in best))

    def run_dbscan():
        labelled = dbscan(partitioned, DBSCAN_EPS, DBSCAN_MIN_PTS)
        clusters = {
            label for _st, (_i, label) in labelled.collect() if label >= 0
        }
        return len(clusters)

    return {
        "filter": run_filter,
        "join": run_join,
        "knn": run_knn,
        "dbscan": run_dbscan,
    }


def bench_backend(executor: str, points: int, parallelism: int, repeat: int) -> dict:
    """Time every workload on one backend inside a fresh context."""
    rows: dict[str, dict] = {}
    with SparkContext(
        f"bench-{executor}", parallelism=parallelism, executor=executor
    ) as sc:
        workloads = build_workloads(sc, points, parallelism)
        for name, run in workloads.items():
            best_wall = float("inf")
            tasks = 0
            result = None
            for _ in range(repeat):
                tasks_before = sc.metrics.tasks_launched
                start = time.perf_counter()
                result = run()
                wall = time.perf_counter() - start
                tasks = sc.metrics.tasks_launched - tasks_before
                best_wall = min(best_wall, wall)
            rows[name] = {"wall_s": best_wall, "tasks": tasks, "result": result}
    return rows


def make_history_rdd(sc: SparkContext, points: int, parallelism: int, span: float, seed: int):
    """A long-history dataset: uniformly spread points with short intervals."""
    from repro.io.datagen import timed_stobjects, uniform_points

    keys = timed_stobjects(
        uniform_points(points, seed=seed),
        time_range=(0.0, span),
        seed=seed,
        interval_fraction=1.0,
        max_duration=span / 200.0,
    )
    return sc.parallelize([(k, i) for i, k in enumerate(keys)], parallelism)


def _timed_run(run, metrics, repeat: int):
    """Best wall time over *repeat* runs + the last run's counter deltas."""
    best_wall = float("inf")
    result = None
    candidates = slices_pruned = 0
    for _ in range(repeat):
        cand_before = metrics.index_candidates
        pruned_before = metrics.index_slices_pruned
        start = time.perf_counter()
        result = run()
        best_wall = min(best_wall, time.perf_counter() - start)
        candidates = metrics.index_candidates - cand_before
        slices_pruned = metrics.index_slices_pruned - pruned_before
    return best_wall, result, candidates, slices_pruned


def bench_planner(args) -> dict:
    """Naive spatial-only plan vs the cost-based planner's pick.

    The query keeps a wide spatial window but a narrow (``--window``
    fraction, default 5%) time window over a long history -- the regime
    where time-aware indexing pays.  Result equality is additionally
    pinned on the sequential and threaded executors under seeded
    chaos (every task's first attempt crashes and is retried).
    """
    span = 100_000.0
    window = span * args.window
    query = STObject(
        "POLYGON ((100 100, 900 100, 900 900, 100 900, 100 100))",
        args.window_start,
        args.window_start + window,
    )
    order = 10

    with SparkContext(
        "bench-planner", parallelism=args.parallelism, executor="sequential"
    ) as sc:
        rdd = make_history_rdd(sc, args.points, args.parallelism, span, args.seed)
        rdd.persist().count()

        def run_naive():
            return sorted(
                v
                for _k, v in filter_live_index(
                    rdd, query, INTERSECTS, order, mode="spatial"
                ).collect()
            )

        naive_wall, naive_result, naive_cands, _ = _timed_run(
            run_naive, sc.metrics, args.repeat
        )

        planner = QueryPlanner(sc, index_order=order)
        plan = planner.plan_filter(rdd, query, INTERSECTS, require_index=True)

        def run_planned():
            return sorted(
                v for _k, v in planner.execute(rdd, query, INTERSECTS, plan).collect()
            )

        planned_wall, planned_result, planned_cands, slices_pruned = _timed_run(
            run_planned, sc.metrics, args.repeat
        )
        scan_result = sorted(
            v for _k, v in filter_no_index(rdd, query, INTERSECTS).collect()
        )

    # Equality must also hold on both executors under seeded chaos:
    # every task's first attempt crashes, retries must converge.
    equality: dict[str, bool] = {}
    for executor in ("sequential", "threads"):
        injector = FaultInjector(seed=args.seed).fail(
            "task.compute", times=1, per_key=True
        )
        with SparkContext(
            f"bench-planner-{executor}",
            parallelism=args.parallelism,
            executor=executor,
            retry_backoff=0.0,
            fault_injector=injector,
        ) as chaos_sc:
            chaos_rdd = make_history_rdd(
                chaos_sc, args.points, args.parallelism, span, args.seed
            )
            chaos_planner = QueryPlanner(chaos_sc, index_order=order)
            chaos_result = sorted(
                v
                for _k, v in chaos_planner.execute(
                    chaos_rdd, query, INTERSECTS, plan
                ).collect()
            )
        equality[executor] = chaos_result == scan_result

    results_equal = (
        planned_result == naive_result == scan_result and all(equality.values())
    )
    reduction = naive_cands / planned_cands if planned_cands else float(naive_cands)
    speedup = naive_wall / planned_wall if planned_wall > 0 else 0.0

    print(f"chosen strategy : {plan.strategy}")
    print(f"naive   (spatial) {naive_wall * 1000:8.1f} ms  candidates={naive_cands}")
    print(f"planned ({plan.strategy}) {planned_wall * 1000:8.1f} ms  candidates={planned_cands}")
    print(f"candidate_reduction={reduction:.1f}x  speedup={speedup:.2f}x")
    print(f"results_equal={results_equal}  chaos_equality={equality}")
    if not results_equal:
        raise SystemExit("RESULT MISMATCH between planned and naive execution")

    return {
        "schema": "bench.planner/v1",
        "created_unix": time.time(),
        "host": {"cpus": os.cpu_count()},
        "config": {
            "points": args.points,
            "parallelism": args.parallelism,
            "repeat": args.repeat,
            "span": span,
            "window_fraction": args.window,
            "window_start": args.window_start,
            "index_order": order,
            "seed": args.seed,
            "chaos": "task.compute=1x",
        },
        "planner": {
            "chosen_strategy": plan.strategy,
            "temporal_first": plan.temporal_first,
            "partitioner_hint": plan.partitioner_hint.kind,
            "plan_explain": plan.explain(),
            "naive": {"wall_s": naive_wall, "candidates": naive_cands},
            "planned": {
                "wall_s": planned_wall,
                "candidates": planned_cands,
                "slices_pruned": slices_pruned,
            },
            "candidate_reduction": reduction,
            "speedup": speedup,
            "rows_matched": len(scan_result),
            "results_equal": results_equal,
            "equality": equality,
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--mode",
        choices=("executors", "planner"),
        default="executors",
        help="executors: backend comparison; planner: cost-based planning",
    )
    parser.add_argument("--points", type=int, default=20_000)
    parser.add_argument(
        "--executors",
        default=",".join(DEFAULT_EXECUTORS),
        help="comma-separated backends to benchmark",
    )
    parser.add_argument("--parallelism", type=int, default=8)
    parser.add_argument(
        "--repeat", type=int, default=1, help="runs per workload; best wall time wins"
    )
    parser.add_argument(
        "--window",
        type=float,
        default=0.05,
        help="planner mode: time-window width as a fraction of the history",
    )
    parser.add_argument(
        "--window-start",
        type=float,
        default=40_000.0,
        help="planner mode: where in the history the window starts",
    )
    parser.add_argument("--seed", type=int, default=1704)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    if args.mode == "planner":
        report = bench_planner(args)
        out = args.out or "BENCH_planner.json"
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nreport written to {out}")
        return
    if args.out is None:
        args.out = "BENCH_executors.json"

    executors = [name.strip() for name in args.executors.split(",") if name.strip()]
    per_backend: dict[str, dict] = {}
    for executor in executors:
        print(f"== {executor} ==", flush=True)
        per_backend[executor] = bench_backend(
            executor, args.points, args.parallelism, args.repeat
        )
        for name, row in per_backend[executor].items():
            print(f"  {name:<8} {row['wall_s'] * 1000:8.1f} ms  tasks={row['tasks']}")

    # Backend equivalence: every workload must produce the same value
    # everywhere -- a benchmark over diverging results is meaningless.
    mismatches = []
    workload_names = list(next(iter(per_backend.values()))) if per_backend else []
    for name in workload_names:
        values = {ex: per_backend[ex][name]["result"] for ex in executors}
        if len({repr(v) for v in values.values()}) > 1:
            mismatches.append((name, values))
    if mismatches:
        for name, values in mismatches:
            print(f"RESULT MISMATCH in {name}: {values}", file=sys.stderr)
        raise SystemExit(1)

    baseline = per_backend.get("sequential")
    report = {
        "schema": "bench.executors/v1",
        "created_unix": time.time(),
        "host": {"cpus": os.cpu_count()},
        "config": {
            "points": args.points,
            "parallelism": args.parallelism,
            "repeat": args.repeat,
        },
        "workloads": {
            name: {
                executor: {
                    "wall_s": per_backend[executor][name]["wall_s"],
                    "tasks": per_backend[executor][name]["tasks"],
                    "speedup_vs_sequential": (
                        baseline[name]["wall_s"] / per_backend[executor][name]["wall_s"]
                        if baseline is not None
                        and per_backend[executor][name]["wall_s"] > 0
                        else None
                    ),
                }
                for executor in executors
            }
            for name in workload_names
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nreport written to {args.out}")


if __name__ == "__main__":
    main()
