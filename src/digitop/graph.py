"""Digital images as finite graphs with optional lattice coordinates.

The canonical representation is an explicit symmetric edge set over vertex
ids 0..N-1.  Images built from lattice points with a c_u adjacency
materialize their edges at construction and remember (u, dimension) so that
coordinate-aware reasoning (the boundary Bd) knows it applies.

Connectivity is one graph traversal.  Distances come from an n×n matrix of
BFS rows, built on first use by `distance` and `diameter`; the verifier does
not use it, since it grows its displacement balls by dilation.
"""

from __future__ import annotations

import math
from collections import deque
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .lattice import Point, check_point, cu_adjacent

INF = math.inf


class UnknownVertexError(KeyError):
    """Raised when a vertex id is not part of the image."""


class DisconnectedImageError(ValueError):
    """Raised by operations that require a connected image (or pair)."""


class DigitalImage:
    """An immutable finite graph, optionally backed by Z^d coordinates."""

    def __init__(
        self,
        n: int,
        edges: Iterable[Tuple[int, int]],
        coords: Optional[Sequence[Optional[Point]]] = None,
        labels: Optional[Sequence[Optional[str]]] = None,
        u: Optional[int] = None,
        dimension: Optional[int] = None,
    ) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        canon = set()
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise UnknownVertexError(f"edge ({a},{b}) outside 0..{n - 1}")
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            canon.add((a, b) if a < b else (b, a))
        self.edges: FrozenSet[Tuple[int, int]] = frozenset(canon)
        self.coords: Tuple[Optional[Point], ...] = (
            tuple(coords) if coords is not None else (None,) * n
        )
        if len(self.coords) != n:
            raise ValueError("coords length must equal vertex count")
        self.labels: Tuple[Optional[str], ...] = (
            tuple(labels) if labels is not None else (None,) * n
        )
        if len(self.labels) != n:
            raise ValueError("labels length must equal vertex count")
        self.u = u
        self.dimension = dimension
        present = [p for p in self.coords if p is not None]
        if len(set(present)) != len(present):
            raise ValueError("coordinate-backed vertices must be distinct points")
        if dimension is not None and any(len(p) != dimension for p in present):
            raise ValueError("all coordinates must match the image dimension")
        self._adj: List[Tuple[int, ...]] = self._build_adj()
        self._nbhd_bits: List[int] = [
            (1 << x) | sum(1 << y for y in self._adj[x]) for x in range(n)
        ]
        self._dist: Optional[List[List[float]]] = None
        self._connected: Optional[bool] = None
        self._point_index = {p: i for i, p in enumerate(self.coords) if p is not None}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_points(
        cls,
        points: Sequence[Sequence[int]],
        u: int,
        labels: Optional[Sequence[Optional[str]]] = None,
    ) -> "DigitalImage":
        """Materialize the c_u image on a finite set of lattice points."""
        if not points:
            return cls(0, [], u=u)
        d = len(points[0])
        pts = [check_point(p, d) for p in points]
        if not 1 <= u <= d:
            raise ValueError(f"require 1 <= u <= {d}, got u={u}")
        edges = [
            (i, j)
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
            if cu_adjacent(pts[i], pts[j], u)
        ]
        return cls(len(pts), edges, coords=pts, labels=labels, u=u, dimension=d)

    # -- basic queries -----------------------------------------------------

    def _build_adj(self) -> List[Tuple[int, ...]]:
        adj: List[List[int]] = [[] for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return [tuple(sorted(v)) for v in adj]

    def check_vertex(self, x: int) -> int:
        if not 0 <= x < self.n:
            raise UnknownVertexError(f"vertex {x} outside 0..{self.n - 1}")
        return x

    def neighbors(self, x: int) -> Tuple[int, ...]:
        return self._adj[self.check_vertex(x)]

    def degree(self, x: int) -> int:
        return len(self.neighbors(x))

    def neighborhood(self, x: int) -> FrozenSet[int]:
        """Closed neighborhood: x together with everything adjacent to it."""
        return frozenset((x,) + self.neighbors(x))

    def closed_neighborhood_bits(self, x: int) -> int:
        return self._nbhd_bits[self.check_vertex(x)]

    @property
    def is_coordinate_backed(self) -> bool:
        """True when built from lattice points under a c_u adjacency."""
        return self.u is not None and all(p is not None for p in self.coords)

    def vertex_at(self, point: Sequence[int]) -> int:
        pt = tuple(int(c) for c in point)
        if pt not in self._point_index:
            raise UnknownVertexError(f"no vertex at point {pt!r}")
        return self._point_index[pt]

    # -- metric ------------------------------------------------------------

    def _distance_matrix(self) -> List[List[float]]:
        if self._dist is None:
            mat: List[List[float]] = []
            for src in range(self.n):
                row = [INF] * self.n
                row[src] = 0
                q = deque([src])
                while q:
                    v = q.popleft()
                    for w in self._adj[v]:
                        if row[w] is INF or row[w] > row[v] + 1:
                            row[w] = row[v] + 1
                            q.append(w)
                mat.append(row)
            self._dist = mat
        return self._dist

    def distance(self, x: int, y: int) -> float:
        """Shortest path length, math.inf when x and y are in different components."""
        self.check_vertex(x)
        self.check_vertex(y)
        d = self._distance_matrix()[x][y]
        return int(d) if d is not INF else INF

    def is_connected(self) -> bool:
        """One traversal from vertex 0, cached; the empty image is connected."""
        if self._connected is None:
            seen = {0} if self.n else set()
            stack = list(seen)
            while stack:
                for w in self._adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            self._connected = len(seen) == self.n
        return self._connected

    def diameter(self) -> int:
        if self.n == 0:
            raise ValueError("diameter of an empty image is undefined")
        if not self.is_connected():
            raise DisconnectedImageError("diameter requires a connected image")
        return int(max(max(row) for row in self._distance_matrix()))

    def is_dominating(self, members: Iterable[int]) -> bool:
        """True iff every vertex is in the set or adjacent to a member."""
        bits = 0
        for x in members:
            bits |= self.closed_neighborhood_bits(self.check_vertex(x))
        return bits == (1 << self.n) - 1 if self.n else True
