"""Spatial join: correctness against brute force, pair pruning, no duplicates."""

import pytest

from repro.core.join import (
    candidate_partition_pairs,
    partition_extents,
    right_trees,
    spatial_join,
)
from repro.core.predicates import CONTAINED_BY, CONTAINS, INTERSECTS, within_distance_predicate
from repro.core.stobject import STObject
from repro.geometry.envelope import Envelope
from repro.io.datagen import clustered_points, random_polygons, uniform_points
from repro.partitioners.bsp import BSPartitioner
from repro.partitioners.grid import GridPartitioner
from repro.spark.context import SparkContext


def brute_join(left_rows, right_rows, predicate):
    return sorted(
        (lv, rv)
        for lk, lv in left_rows
        for rk, rv in right_rows
        if predicate.evaluate(lk, rk)
    )


def result_pairs(join_rdd):
    return sorted((l[1], r[1]) for l, r in join_rdd.collect())


@pytest.fixture
def points_rdd(sc):
    pts = clustered_points(300, seed=31)
    return sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 6)


@pytest.fixture
def polys_rdd(sc):
    polys = random_polygons(80, seed=32, mean_radius_fraction=0.03)
    return sc.parallelize([(STObject(p), 1000 + i) for i, p in enumerate(polys)], 4)


class TestCorrectness:
    def test_point_polygon_containedby(self, sc, points_rdd, polys_rdd):
        got = result_pairs(spatial_join(points_rdd, polys_rdd, CONTAINED_BY))
        want = brute_join(points_rdd.collect(), polys_rdd.collect(), CONTAINED_BY)
        assert got == want
        assert len(got) > 0  # non-vacuous

    def test_polygon_point_contains(self, sc, points_rdd, polys_rdd):
        got = result_pairs(spatial_join(polys_rdd, points_rdd, CONTAINS))
        want = brute_join(polys_rdd.collect(), points_rdd.collect(), CONTAINS)
        assert got == want

    def test_polygon_polygon_intersects(self, sc, polys_rdd):
        got = result_pairs(spatial_join(polys_rdd, polys_rdd, INTERSECTS))
        rows = polys_rdd.collect()
        assert got == brute_join(rows, rows, INTERSECTS)

    def test_within_distance_join(self, sc, points_rdd):
        predicate = within_distance_predicate(25.0)
        got = result_pairs(spatial_join(points_rdd, points_rdd, predicate))
        rows = points_rdd.collect()
        assert got == brute_join(rows, rows, predicate)

    def test_nested_loop_equals_indexed(self, sc, points_rdd, polys_rdd):
        indexed = result_pairs(
            spatial_join(points_rdd, polys_rdd, CONTAINED_BY, index_order=8)
        )
        nested = result_pairs(
            spatial_join(points_rdd, polys_rdd, CONTAINED_BY, index_order=None)
        )
        assert indexed == nested

    def test_temporal_semantics_in_join(self, sc):
        left = sc.parallelize(
            [(STObject(f"POINT ({i} 0)", i * 10), i) for i in range(10)], 2
        )
        right = sc.parallelize(
            [(STObject("POLYGON ((-1 -1, 20 -1, 20 1, -1 1, -1 -1))", (0, 45)), "q")], 1
        )
        got = result_pairs(spatial_join(left, right, INTERSECTS))
        # only items with time <= 45 match temporally
        assert got == [(i, "q") for i in range(5)]

    def test_empty_side_yields_empty(self, sc, points_rdd):
        empty = sc.parallelize([], 3)
        assert spatial_join(points_rdd, empty, INTERSECTS).count() == 0
        assert spatial_join(empty, points_rdd, INTERSECTS).count() == 0


class TestSelfJoinNoDuplicates:
    """STARK's single-assignment partitioning needs no dedup step."""

    def test_point_self_join_identity_only(self, sc):
        pts = uniform_points(200, seed=33)  # distinct with probability ~1
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 4)
        got = result_pairs(spatial_join(rdd, rdd, INTERSECTS))
        assert got == [(i, i) for i in range(200)]

    def test_partitioned_self_join_no_duplicates(self, sc):
        pts = clustered_points(400, seed=34)
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 8)
        bsp = BSPartitioner.from_rdd(rdd, max_cost_per_partition=80)
        partitioned = rdd.partition_by(bsp)
        results = result_pairs(spatial_join(partitioned, partitioned, INTERSECTS))
        assert len(results) == len(set(results))

    def test_polygon_self_join_no_duplicates_even_when_spanning(self, sc):
        polys = random_polygons(100, seed=35, mean_radius_fraction=0.06)
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(polys)], 4)
        grid = GridPartitioner.from_rdd(rdd, 3)
        partitioned = rdd.partition_by(grid)
        results = result_pairs(spatial_join(partitioned, partitioned, INTERSECTS))
        assert len(results) == len(set(results))
        assert results == brute_join(rdd.collect(), rdd.collect(), INTERSECTS)


class TestPairPruning:
    def test_partitioned_join_evaluates_fewer_pairs(self, sc):
        pts = clustered_points(500, seed=36)
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 8)
        bsp = BSPartitioner.from_rdd(rdd, max_cost_per_partition=80)
        partitioned = rdd.partition_by(bsp).persist()
        partitioned.count()
        join = spatial_join(partitioned, partitioned, INTERSECTS)
        assert join.num_partitions < partitioned.num_partitions ** 2

    def test_unpartitioned_join_evaluates_all_pairs(self, sc, points_rdd):
        join = spatial_join(points_rdd, points_rdd, INTERSECTS, prune_pairs=False)
        assert join.num_partitions == points_rdd.num_partitions ** 2

    def test_pruning_preserves_results(self, sc, points_rdd, polys_rdd):
        pruned = result_pairs(spatial_join(points_rdd, polys_rdd, CONTAINED_BY))
        unpruned = result_pairs(
            spatial_join(points_rdd, polys_rdd, CONTAINED_BY, prune_pairs=False)
        )
        assert pruned == unpruned

    def test_extents_computed_per_side(self, sc):
        left = sc.parallelize([(STObject("POINT (0 0)"), 1)], 2)
        extents = partition_extents(left)
        assert len(extents) == 2
        assert sum(0 if e.is_empty else 1 for e in extents) == 1

    def test_candidate_pairs_skip_empty_partitions(self):
        left = [Envelope(0, 0, 1, 1), Envelope.empty()]
        right = [Envelope(0.5, 0.5, 2, 2), Envelope(50, 50, 60, 60)]
        pairs = candidate_partition_pairs(left, right, INTERSECTS)
        assert pairs == [(0, 0)]

    def test_candidate_pairs_buffer_for_distance(self):
        left = [Envelope(0, 0, 1, 1)]
        right = [Envelope(3, 0, 4, 1)]
        near = within_distance_predicate(2.5)
        far = within_distance_predicate(1.0)
        assert candidate_partition_pairs(left, right, near) == [(0, 0)]
        assert candidate_partition_pairs(left, right, far) == []


class TestRightTreeReuse:
    """Joins against one right RDD share its persisted tree RDD."""

    def test_repeated_joins_add_no_cache_blocks(self, sc, points_rdd, polys_rdd):
        first = result_pairs(spatial_join(points_rdd, polys_rdd, CONTAINED_BY))
        blocks = len(sc._cache)
        for _ in range(3):
            again = result_pairs(spatial_join(points_rdd, polys_rdd, CONTAINED_BY))
            assert again == first
        assert len(sc._cache) == blocks

    def test_trees_memoized_per_capacity(self, sc, points_rdd, polys_rdd):
        assert right_trees(polys_rdd, 4) is right_trees(polys_rdd, 4)
        assert right_trees(polys_rdd, 4) is not right_trees(polys_rdd, 8)
        by_order = {
            order: result_pairs(
                spatial_join(points_rdd, polys_rdd, CONTAINED_BY, index_order=order)
            )
            for order in (4, 8, 4)
        }
        assert by_order[4] == by_order[8]

    def test_concurrent_lookups_share_one_tree_rdd(self, sc, polys_rdd):
        import sys
        import threading

        got = []
        barrier = threading.Barrier(8)

        def lookup():
            barrier.wait(timeout=10)
            got.append(right_trees(polys_rdd, 6))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lookup) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 8 and all(trees is got[0] for trees in got)

    def test_self_join_and_either_side(self, sc, points_rdd, polys_rdd):
        rows = polys_rdd.collect()
        want = brute_join(rows, rows, INTERSECTS)
        for _ in range(2):
            assert result_pairs(spatial_join(polys_rdd, polys_rdd, INTERSECTS)) == want
        # The same RDD as the left side, then again as the right side.
        contains = brute_join(rows, points_rdd.collect(), CONTAINS)
        contained = brute_join(points_rdd.collect(), rows, CONTAINED_BY)
        for _ in range(2):
            assert result_pairs(spatial_join(polys_rdd, points_rdd, CONTAINS)) == contains
            assert (
                result_pairs(spatial_join(points_rdd, polys_rdd, CONTAINED_BY))
                == contained
            )


@pytest.mark.parametrize("executor", ["threads", "processes"])
def test_shared_right_trees_on_parallel_executors(executor):
    pts = clustered_points(300, seed=31)
    polys = random_polygons(80, seed=32, mean_radius_fraction=0.03)
    want = None
    with SparkContext(
        "join-reuse", parallelism=2, executor=executor, retry_backoff=0.0
    ) as ctx:
        points = ctx.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 4)
        shapes = ctx.parallelize([(STObject(p), 1000 + i) for i, p in enumerate(polys)], 3)
        want = brute_join(points.collect(), shapes.collect(), CONTAINED_BY)
        rows = shapes.collect()
        self_want = brute_join(rows, rows, INTERSECTS)
        for _ in range(2):
            assert result_pairs(spatial_join(points, shapes, CONTAINED_BY)) == want
            assert result_pairs(spatial_join(shapes, shapes, INTERSECTS)) == self_want
    assert want  # non-vacuous
