"""Brute-force numpy references the benchmark checks outputs against.

They run after timing ends and share no code with ``src/``.  Boundary
semantics follow the library's: spatial and temporal intersection are
closed, event-time windows are half-open ``[start, end)``.
"""

from __future__ import annotations

import numpy as np


def box_ids(xs, ys, ts, x0, y0, x1, y1, t0=None, t1=None) -> list[int]:
    """Ids of points inside the closed box (and closed time range)."""
    mask = (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
    if t0 is not None:
        mask &= (ts >= t0) & (ts <= t1)
    return np.nonzero(mask)[0].tolist()


def within_ids(xs, ys, ts, x, y, radius, t0=None, t1=None) -> list[int]:
    """Ids of points at Euclidean distance <= *radius* (closed time range)."""
    mask = np.hypot(xs - x, ys - y) <= radius
    if t0 is not None:
        mask &= (ts >= t0) & (ts <= t1)
    return np.nonzero(mask)[0].tolist()


def knn_distances(xs, ys, x, y, k) -> np.ndarray:
    """The *k* smallest point distances to ``(x, y)``, ascending."""
    d = np.hypot(xs - x, ys - y)
    k = min(k, len(d))
    return np.sort(np.partition(d, k - 1)[:k])


def same_distances(got, want, tol: float = 1e-9) -> bool:
    got = np.asarray(sorted(got), dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol))


def points_in_polygon(xs_sorted, ys_sorted, ring: np.ndarray) -> int:
    """Points inside a simple polygon by ray crossing (even-odd rule).

    *xs_sorted* must be ascending (``ys_sorted`` aligned with it) so the
    bounding-box x range is a slice.  Points exactly on an edge have
    measure zero for the generated inputs.
    """
    lo = np.searchsorted(xs_sorted, ring[:, 0].min(), side="left")
    hi = np.searchsorted(xs_sorted, ring[:, 0].max(), side="right")
    px = xs_sorted[lo:hi]
    py = ys_sorted[lo:hi]
    sel = (py >= ring[:, 1].min()) & (py <= ring[:, 1].max())
    px, py = px[sel], py[sel]
    inside = np.zeros(len(px), dtype=bool)
    n = len(ring)
    for i in range(n):
        ax, ay = ring[i]
        bx, by = ring[(i + 1) % n]
        crosses = (ay > py) != (by > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = ax + (py - ay) * (bx - ax) / (by - ay)
        inside ^= crosses & (px < x_at)
    return int(inside.sum())


def dbscan_shape(xy: np.ndarray, eps: float, min_pts: int) -> tuple[int, int]:
    """``(clusters, clustered points)`` of DBSCAN over *xy*.

    Both are independent of visiting order: clusters are the connected
    components of core points (neighbourhoods include the point itself),
    and a point is clustered when it is core or within *eps* of a core
    point.  Which cluster claims a shared border point is not fixed by
    DBSCAN, so per-cluster sizes are not compared.
    """
    n = len(xy)
    if n == 0:
        return 0, 0
    neighbours = []
    chunk = 512
    for start in range(0, n, chunk):
        block = xy[start:start + chunk]
        d = np.hypot(block[:, None, 0] - xy[None, :, 0], block[:, None, 1] - xy[None, :, 1])
        for row in d <= eps:
            neighbours.append(np.nonzero(row)[0])
    core = np.array([len(nb) >= min_pts for nb in neighbours])
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in np.nonzero(core)[0]:
        for j in neighbours[i]:
            if core[j]:
                ri, rj = find(int(i)), find(int(j))
                if ri != rj:
                    parent[ri] = rj
    clusters = len({find(int(i)) for i in np.nonzero(core)[0]})
    clustered = sum(
        1 for i in range(n) if core[i] or bool(core[neighbours[i]].any())
    )
    return clusters, clustered
