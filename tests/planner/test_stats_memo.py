"""Planner statistics are collected once per RDD and reused by every plan."""

import sys
import threading

import pytest

from repro.core.predicates import INTERSECTS
from repro.core.spatial_rdd import spatial
from repro.io.datagen import event_rows, uniform_points
from repro.io.readers import write_event_file
from repro.partitioners.grid import GridPartitioner
from repro.piglet import PigletRuntime
from repro.planner import QueryPlanner, collect_statistics
from repro.spark.context import SparkContext

from tests.piglet.test_cost_based import SCRIPT
from tests.planner.test_planner import SELECTIVE_QUERY, UNTIMED_QUERY, make_rdd


def jobs_during(sc, action) -> int:
    before = sc.metrics.jobs_run
    action()
    return sc.metrics.jobs_run - before


class TestOneCollectionPerRdd:
    def test_every_entry_point_shares_one_job(self, sc):
        rdd = make_rdd(sc)
        other = make_rdd(sc, n=200, seed=5)
        planner = QueryPlanner(sc)
        planner.statistics(other)  # only *rdd*'s collection is counted

        def plan_everything():
            spatial(rdd).plan(SELECTIVE_QUERY)
            spatial(rdd).explain(UNTIMED_QUERY)
            spatial(rdd).filter_planned(SELECTIVE_QUERY)
            planner.plan_knn(rdd, UNTIMED_QUERY, k=5)
            planner.plan_join(rdd, other, INTERSECTS)
            planner.plan_join(other, rdd, INTERSECTS)

        assert jobs_during(sc, plan_everything) == 1
        assert jobs_during(sc, plan_everything) == 0

    def test_memo_returns_the_same_statistics(self, sc):
        rdd = make_rdd(sc)
        first = collect_statistics(rdd)
        assert collect_statistics(rdd) is first
        plan = QueryPlanner(sc).plan_filter(rdd, SELECTIVE_QUERY, INTERSECTS)
        assert plan.stats is first

    def test_derived_rdds_collect_their_own(self, sc):
        rdd = make_rdd(sc)
        base = collect_statistics(rdd)
        filtered = rdd.filter(lambda kv: kv[1] % 2 == 0)
        partitioned = rdd.partition_by(GridPartitioner.from_rdd(rdd, 2))
        partitioned.count()  # run the shuffle outside the counted window

        for derived in (filtered, partitioned):
            assert jobs_during(sc, lambda: collect_statistics(derived)) == 1
            assert collect_statistics(derived) is not base
        assert collect_statistics(filtered).count == base.count // 2
        assert collect_statistics(partitioned).count == base.count

    def test_sample_target_and_seed_are_part_of_the_key(self, sc):
        rdd = make_rdd(sc)
        collect_statistics(rdd)
        assert jobs_during(sc, lambda: collect_statistics(rdd, sample_target=100)) == 1
        assert jobs_during(sc, lambda: collect_statistics(rdd, seed=3)) == 1
        assert jobs_during(sc, lambda: collect_statistics(rdd, sample_target=100)) == 0
        assert len(collect_statistics(rdd, sample_target=100).sample) == 100

    def test_concurrent_first_calls_keep_every_key(self, threaded_sc):
        rdd = make_rdd(threaded_sc, n=400)
        targets = [32 + 8 * i for i in range(8)]
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda t=t: results.update({t: collect_statistics(rdd, t)})
                )
                for t in targets
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == targets

        def again():
            for t in targets:
                assert collect_statistics(rdd, t) is results[t]

        assert jobs_during(threaded_sc, again) == 0


@pytest.mark.parametrize("executor", ["threads", "processes"])
def test_planned_rows_match_unplanned_cold_and_warm(executor):
    with SparkContext(
        f"memo-{executor}", parallelism=2, executor=executor, retry_backoff=0.0
    ) as sc:
        rdd = make_rdd(sc, n=800, untimed_every=3)
        partitioned = rdd.partition_by(GridPartitioner.from_rdd(rdd, 3))
        for query in (SELECTIVE_QUERY, UNTIMED_QUERY):
            expected = sorted(spatial(partitioned).intersects(query).values().collect())
            for _state in ("cold", "warm"):
                planned = spatial(partitioned).filter_planned(query)
                assert sorted(planned.values().collect()) == expected
        assert jobs_during(sc, lambda: spatial(partitioned).plan(SELECTIVE_QUERY)) == 0


SECOND_FILTER = (
    "\nhit2 = FILTER prt BY INTERSECTS(obj, "
    "STOBJECT('POLYGON ((200 200, 900 200, 900 900, 200 900, 200 200))'));"
)


def test_piglet_filters_over_one_relation_collect_once(sc, tmp_path):
    rows = event_rows(uniform_points(300, seed=91), time_range=(0, 10_000), seed=91)
    path = tmp_path / "events.csv"
    write_event_file(rows, str(path))
    script = SCRIPT.format(path=str(path))

    one = jobs_during(
        sc, lambda: PigletRuntime(sc, cost_based_planning=True).run(script)
    )
    runtime = PigletRuntime(sc, cost_based_planning=True)
    two = jobs_during(sc, lambda: runtime.run(script + SECOND_FILTER))

    assert two == one
    assert runtime.filter_plans["hit2"].stats is runtime.filter_plans["hit"].stats
