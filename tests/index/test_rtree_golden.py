"""Golden digests of order-sensitive outputs of the STR-tree and its users.

The constants were recorded with the envelope-per-node tree layout that
preceded the float-native one.  Any change in tiling or traversal order
that alters a candidate list, a kNN ranking, the entry iteration order,
a DBSCAN neighbour order (and so its labels) or a join's output list
fails here, even when the result *sets* stay equal.
"""

import hashlib
import math
import random

from repro.core.clustering.dbscan import local_dbscan
from repro.core.clustering.mr_dbscan import dbscan
from repro.core.join import spatial_join
from repro.core.predicates import CONTAINED_BY, INTERSECTS, within_distance_predicate
from repro.core.stobject import STObject
from repro.geometry.envelope import Envelope
from repro.index.rtree import STRTree
from repro.io.datagen import clustered_points, random_polygons
from repro.partitioners.bsp import BSPartitioner

TREE_DIGEST = "408368d806b3fbc7fb1836f4246274427983df97ed05af82f17160ce39a72cd5"
DBSCAN_DIGEST = "845efe7342e971285eb3fd4e61d2277e9ddfa39f26dafab917bf22d8d82f2624"
JOIN_DIGEST = "66b72047351fb4790d8c427aa95098ae72c545f4053b1a15ac48eac44d18118c"


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def mixed_entries(n=3000, seed=13):
    """Points, boxes, zero-width and zero-height envelopes and a few empties.

    Coordinates sit on a 0.5 grid so many entries share centers (sort
    ties) and edges (touching query boxes).
    """
    rng = random.Random(seed)

    def coord():
        return rng.randrange(0, 400) / 2.0

    entries = []
    for i in range(n):
        x, y = coord(), coord()
        w, h = rng.randrange(1, 12) / 2.0, rng.randrange(1, 12) / 2.0
        kind = i % 5
        if kind == 0:
            env = Envelope.of_point(x, y)
        elif kind == 1:
            env = Envelope(x, y, x + w, y + h)
        elif kind == 2:
            env = Envelope(x, y, x, y + h)  # zero width
        elif kind == 3:
            env = Envelope(x, y, x + w, y)  # zero height
        else:
            env = Envelope.empty() if i % 50 == 4 else Envelope(x - w, y - h, x, y)
        entries.append((env, i))
    return entries


def query_boxes(entries, seed=14):
    rng = random.Random(seed)
    real = [env for env, _ in entries if not env.is_empty]
    boxes = [Envelope.empty(), Envelope(-10, -10, 300, 300)]
    for _ in range(60):
        x, y = rng.uniform(-5, 200), rng.uniform(-5, 200)
        boxes.append(Envelope(x, y, x + rng.uniform(0, 15), y + rng.uniform(0, 15)))
    for _ in range(60):
        e = rng.choice(real)
        w, h = rng.randrange(0, 8) / 2.0, rng.randrange(0, 8) / 2.0
        # Boxes that touch the entry exactly on one edge or corner.
        boxes.append(Envelope(e.max_x, e.max_y, e.max_x + w, e.max_y + h))
        boxes.append(Envelope(e.min_x - w, e.min_y, e.min_x, e.max_y))
        boxes.append(Envelope(e.min_x, e.min_y - h, e.max_x, e.min_y))
        boxes.append(Envelope.of_point(e.min_x, e.max_y))
    return boxes


def tree_outputs():
    entries = mixed_entries()
    boxes = query_boxes(entries)
    rng = random.Random(15)
    probes = [(rng.uniform(-20, 220), rng.uniform(-20, 220)) for _ in range(40)]
    centers = {
        item: env.center() for env, item in entries if not env.is_empty
    }
    out = []
    for capacity in (2, 4, 10):
        tree = STRTree(entries, node_capacity=capacity)
        env = tree.envelope
        out.append(("shape", len(tree), tree.height, env.min_x, env.min_y, env.max_x, env.max_y))
        out.append((
            "entries",
            [(e.min_x, e.min_y, e.max_x, e.max_y, item) for e, item in tree.iter_entries()],
        ))
        out.append(("query", [tree.query(box) for box in boxes]))
        out.append(("query_point", [tree.query_point(x, y) for x, y in probes[:10]]))
        for x, y in probes:

            def exact(item, x=x, y=y):
                cx, cy = centers[item]
                return math.hypot(cx - x, cy - y)

            for k in (1, 5, 17):
                out.append(("nearest", x, y, k, tree.nearest(x, y, k)))
                out.append(("exact", x, y, k, tree.nearest(x, y, k, exact_distance=exact)))
                out.append(("slack", x, y, k, tree.nearest(x, y, k, bound_slack=0.75)))
    return out


def test_tree_outputs_match_golden():
    assert digest(tree_outputs()) == TREE_DIGEST


def test_dbscan_labels_match_golden(sc):
    coords = [p.coord for p in clustered_points(1200, seed=41)]
    local = local_dbscan(coords, eps=9.0, min_pts=5)
    rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(clustered_points(1200, seed=42))], 4)
    part = rdd.partition_by(BSPartitioner.from_rdd(rdd, max_cost_per_partition=200))
    distributed = [value for _key, value in dbscan(part, eps=10.0, min_pts=5).collect()]
    assert max(local[0]) >= 0 and max(label for _v, label in distributed) >= 0
    assert digest((local, distributed)) == DBSCAN_DIGEST


def test_join_outputs_match_golden(sc):
    points = sc.parallelize(
        [(STObject(p), i) for i, p in enumerate(clustered_points(1500, seed=43))], 6
    )
    polys = sc.parallelize(
        [(STObject(p), 10_000 + i) for i, p in enumerate(random_polygons(120, seed=44, mean_radius_fraction=0.03))],
        4,
    )
    runs = []
    for left, right, predicate, order in (
        (points, polys, CONTAINED_BY, 10),
        (points, polys, CONTAINED_BY, 3),
        (polys, polys, INTERSECTS, 10),
        (points, points, within_distance_predicate(6.0), 4),
    ):
        pairs = spatial_join(left, right, predicate, index_order=order).collect()
        runs.append([(lkv[1], rkv[1]) for lkv, rkv in pairs])
    assert all(runs)  # non-vacuous
    assert digest(runs) == JOIN_DIGEST
