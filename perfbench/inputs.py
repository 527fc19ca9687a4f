"""Seeded input generators (numpy only, independent of ``src/``).

Every workload draws its inputs here from ``--seed`` alone, so the same
seed gives the same inputs whatever the library version.  The library
only ever sees the generated records.
"""

from __future__ import annotations

import numpy as np

EXTENT = 1000.0


def clustered_xy(rng: np.random.Generator, n: int, grid: tuple[int, int] = (4, 3),
                 sigma: float = 25.0, noise: float = 0.05) -> np.ndarray:
    """*n* distinct points in Gaussian blobs over a uniform noise floor.

    One blob per cell of a *grid* over the extent, jittered within the
    cell's middle half: blobs never merge, so the density profile -- and
    with it the work per query -- is much the same for every seed.
    """
    gx, gy = grid
    cells = np.array([(i, j) for i in range(gx) for j in range(gy)], dtype=float)
    size = np.array([EXTENT / gx, EXTENT / gy])
    centers = (cells + 0.5 + rng.uniform(-0.25, 0.25, size=cells.shape)) * size
    clusters = len(centers)
    which = rng.integers(0, clusters, n)
    xy = centers[which] + rng.normal(0.0, sigma, size=(n, 2))
    is_noise = rng.random(n) < noise
    xy[is_noise] = rng.uniform(0.0, EXTENT, size=(int(is_noise.sum()), 2))
    xy = np.clip(xy, 0.0, EXTENT)
    # Exact duplicates would make the self-join return more than n pairs.
    _, first = np.unique(xy, axis=0, return_index=True)
    if len(first) != n:
        keep = np.sort(first)
        extra = rng.uniform(0.0, EXTENT, size=(n - len(keep), 2))
        xy = np.concatenate([xy[keep], extra])
    return xy


def event_times(rng: np.random.Generator, xy: np.ndarray, horizon: float) -> np.ndarray:
    """Event instants that drift west to east over *horizon*.

    Time correlates with position (a front crossing the map plus 20%
    jitter), so spatial partitions cover narrow time ranges and a
    narrow time window can prune whole partitions.
    """
    sweep = 0.8 * horizon * xy[:, 0] / EXTENT
    return sweep + rng.uniform(0.0, 0.2 * horizon, len(xy))


def star_polygons(rng: np.random.Generator, centers: np.ndarray, mean_radius: float,
                  vertices: int = 8) -> list[np.ndarray]:
    """One simple star-shaped ring (no closing vertex) around each center."""
    angles = np.arange(vertices) * 2.0 * np.pi / vertices
    rings = []
    for cx, cy in centers:
        radii = mean_radius * rng.uniform(0.5, 1.5, vertices)
        rings.append(np.column_stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)]))
    return rings


def trajectories(rng: np.random.Generator, objects: int, steps: int,
                 damping: float = 0.9, jitter: float = 2.0) -> np.ndarray:
    """Positions ``[step, object, 2]`` of objects moving inside the extent.

    Velocities follow a damped random walk and reflect off the borders,
    so objects keep moving and never pile up on an edge.
    """
    pos = rng.uniform(0.0, EXTENT, size=(objects, 2))
    vel = rng.normal(0.0, 4.0, size=(objects, 2))
    out = np.empty((steps, objects, 2))
    for s in range(steps):
        vel = damping * vel + rng.normal(0.0, jitter, size=(objects, 2))
        pos = pos + vel
        low = pos < 0.0
        pos[low] = -pos[low]
        vel[low] = -vel[low]
        high = pos > EXTENT
        pos[high] = 2.0 * EXTENT - pos[high]
        vel[high] = -vel[high]
        out[s] = pos
    return out
