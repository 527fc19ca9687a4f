"""A Sort-Tile-Recursive (STR) bulk-loaded R-tree.

This is the reproduction of the JTS ``STRtree`` STARK uses to index
partition contents.  STR packing (Leutenegger et al.) sorts entries by
x-center into vertical slices, sorts each slice by y-center, and packs
runs of *node_capacity* entries into nodes, recursing until a single
root remains.  The tree is build-once (like JTS): queries are available
after construction, inserts are not.

Nodes hold their bounds as four plain floats that traversal compares
inline; leaf rows are the caller's ``(Envelope, item)`` entries.

Supported queries:

- :meth:`query` -- all items whose envelope intersects a query envelope
  (returns *candidates*; exact predicates refine them, as in the
  paper's live-indexing description),
- :meth:`nearest` -- k nearest items to a point by branch-and-bound,
  with an optional exact distance callback so refinement happens inside
  the traversal.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Generic, Iterable, Iterator, TypeVar

from repro.geometry.envelope import Envelope

T = TypeVar("T")

DEFAULT_NODE_CAPACITY = 10


class _Node:
    """Bounds as four floats; ``rows`` are ``(Envelope, item)`` entries
    in a leaf and child nodes otherwise."""

    __slots__ = ("min_x", "min_y", "max_x", "max_y", "leaf", "rows")

    def __init__(self, bounds: Envelope, leaf: bool, rows: list) -> None:
        self.min_x = bounds.min_x
        self.min_y = bounds.min_y
        self.max_x = bounds.max_x
        self.max_y = bounds.max_y
        self.leaf = leaf
        self.rows = rows


class STRTree(Generic[T]):
    """An immutable STR-packed R-tree over (envelope, item) entries.

    ``node_capacity`` is the paper's "order of the tree" parameter
    (``liveIndex(order = 5)`` in the paper's example).
    """

    def __init__(
        self,
        entries: Iterable[tuple[Envelope, T]],
        node_capacity: int = DEFAULT_NODE_CAPACITY,
    ) -> None:
        if node_capacity < 2:
            raise ValueError(f"node capacity must be >= 2, got {node_capacity}")
        self.node_capacity = node_capacity
        entry_list = [(env, item) for env, item in entries if not env.is_empty]
        self._size = len(entry_list)
        self._root = self._build(entry_list)

    @staticmethod
    def for_geometries(
        items: Iterable[T],
        envelope_of: Callable[[T], Envelope],
        node_capacity: int = DEFAULT_NODE_CAPACITY,
    ) -> "STRTree[T]":
        """Build from items using *envelope_of* to extract bounds."""
        return STRTree(
            ((envelope_of(item), item) for item in items), node_capacity
        )

    def __len__(self) -> int:
        return self._size

    @property
    def envelope(self) -> Envelope:
        """Bounds of the whole tree (empty for an empty tree)."""
        return Envelope.of_envelopes([self._root] if self._root is not None else [])

    @property
    def height(self) -> int:
        """Levels from root to leaves; 0 for an empty tree."""
        levels = 0
        node = self._root
        while node is not None:
            levels += 1
            node = None if node.leaf else node.rows[0]
        return levels

    # -- construction --------------------------------------------------------

    def _build(self, entries: list[tuple[Envelope, T]]) -> _Node | None:
        if not entries:
            return None
        cap = self.node_capacity

        # Leaf level: STR tiling of the raw entries.
        level = [
            _Node(Envelope.of_envelopes(e for e, _ in tile), True, tile)
            for tile in self._str_tiles(entries, lambda entry: entry[0], cap)
        ]
        while len(level) > 1:
            # Nodes quack like envelopes (same four bound attributes).
            level = [
                _Node(Envelope.of_envelopes(tile), False, tile)
                for tile in self._str_tiles(level, lambda node: node, cap)
            ]
        return level[0]

    @staticmethod
    def _str_tiles(rows: list, bounds_of: Callable, cap: int) -> Iterator[list]:
        """Group rows into runs of *cap* using Sort-Tile-Recursive order.

        Sort keys are the same floats as :meth:`Envelope.center`.
        """
        from repro.spark.cancellation import Heartbeat

        # Bulk-loading a large partition's index can take seconds; one
        # beat per tile keeps the build cancellable under a deadline.
        heartbeat = Heartbeat(every=64)
        n = len(rows)
        leaf_count = math.ceil(n / cap)
        slice_count = max(1, math.ceil(math.sqrt(leaf_count)))
        by_x = sorted(rows, key=lambda r: ((b := bounds_of(r)).min_x + b.max_x) / 2.0)
        slice_size = math.ceil(n / slice_count)
        for start in range(0, n, slice_size):
            by_y = sorted(
                by_x[start : start + slice_size],
                key=lambda r: ((b := bounds_of(r)).min_y + b.max_y) / 2.0,
            )
            for tile_start in range(0, len(by_y), cap):
                heartbeat.beat()
                yield by_y[tile_start : tile_start + cap]

    # -- queries ---------------------------------------------------------------

    def query(self, envelope: Envelope) -> list[T]:
        """All items whose envelope intersects *envelope* (candidates)."""
        out: list[T] = []
        root = self._root
        if root is None or envelope.is_empty:
            return out
        x0, y0 = envelope.min_x, envelope.min_y
        x1, y1 = envelope.max_x, envelope.max_y
        stack = [root]  # untested: its entries are tested anyway
        while stack:
            node = stack.pop()
            if node.leaf:
                out += [
                    item
                    for env, item in node.rows
                    if env.min_x <= x1 and x0 <= env.max_x
                    and env.min_y <= y1 and y0 <= env.max_y
                ]
            else:
                # Test before pushing, in stored order: the pop order (and
                # so the candidate order) of pushing all and testing on pop.
                stack += [
                    child
                    for child in node.rows
                    if child.min_x <= x1 and x0 <= child.max_x
                    and child.min_y <= y1 and y0 <= child.max_y
                ]
        return out

    def query_point(self, x: float, y: float) -> list[T]:
        """Items whose envelope covers the point."""
        return self.query(Envelope.of_point(x, y))

    def iter_entries(self) -> Iterator[tuple[Envelope, T]]:
        """Every (envelope, item) entry (arbitrary order)."""
        if self._root is None:
            return
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                yield from node.rows
            else:
                stack.extend(node.rows)

    def nearest(
        self,
        x: float,
        y: float,
        k: int = 1,
        exact_distance: Callable[[T], float] | None = None,
        bound_slack: float = 0.0,
    ) -> list[tuple[float, T]]:
        """The *k* items nearest to ``(x, y)``, as (distance, item) ascending.

        Branch-and-bound over node envelopes: a node is expanded only
        when its envelope distance beats the current k-th best.  With
        *exact_distance* the true geometry distance ranks items (the
        envelope distance remains the admissible lower bound); without
        it, envelope distance is the metric -- exact for points, a
        candidate ranking for extended geometries.

        ``bound_slack`` loosens every envelope lower bound by that
        amount.  It exists for probes by *extended* geometries: when
        ``(x, y)`` is the centroid of a geometry with "radius" r (max
        centroid-to-boundary distance), the exact geometry distance can
        undercut the envelope-to-centroid bound by at most r, so
        passing ``bound_slack=r`` keeps pruning admissible.
        """
        if k < 1 or self._root is None:
            return []

        def lower_bound(b) -> float:
            # Envelope.distance_to_point's expression, on a node or an
            # entry envelope alike, so distances stay float-identical.
            return math.hypot(
                max(b.min_x - x, x - b.max_x, 0.0), max(b.min_y - y, y - b.max_y, 0.0)
            ) - bound_slack

        counter = itertools.count()  # tie-break, keeps heap entries comparable
        frontier: list[tuple[float, int, _Node | None, T | None]] = [
            (lower_bound(self._root), next(counter), self._root, None)
        ]
        best: list[tuple[float, T]] = []

        def kth_best() -> float:
            return best[-1][0] if len(best) == k else float("inf")

        while frontier:
            bound, _tie, node, item = heapq.heappop(frontier)
            if bound > kth_best():
                break
            if node is None:
                # A fully-resolved item: bound is its final distance.
                best.append((bound, item))  # type: ignore[arg-type]
                best.sort(key=lambda pair: pair[0])
                if len(best) > k:
                    best.pop()
                continue
            if node.leaf:
                for env, entry_item in node.rows:
                    if exact_distance is not None:
                        d = exact_distance(entry_item)
                    else:
                        d = lower_bound(env)
                    if d <= kth_best():
                        heapq.heappush(frontier, (d, next(counter), None, entry_item))
            else:
                for child in node.rows:
                    d = lower_bound(child)
                    if d <= kth_best():
                        heapq.heappush(frontier, (d, next(counter), child, None))
        return best

    def __repr__(self) -> str:
        return (
            f"STRTree(size={self._size}, capacity={self.node_capacity}, "
            f"height={self.height})"
        )
