"""Digital images as finite graphs with optional lattice coordinates.

The canonical representation is an explicit symmetric edge set over vertex
ids 0..N-1.  Images built from lattice points remember (u, dimension) so that
coordinate-aware reasoning (the boundary Bd) knows it applies.  Their c_u
edges come from integer keys, one per point (see `lattice.keyed_points`):
whole lists of candidate keys grow a coordinate at a time and are looked up
in the set of keys that points have, so no pair of points is tested and no
tuple is built per candidate.
Every distance comes from one dilation, N*(mask): `rings` yields the
vertices at distance 0, 1, 2, ... from a mask, and connectivity, distance,
diameter and domination read them.  There is no distance matrix.

Dilation takes one of two paths.  At build time the edges (a, b), a < b, are
grouped by b - a.  Each class of more than 2 edges becomes one shift pair,
`((mask & lo) << d) | ((mask >> d) & lo)` with `lo` its lower endpoints, so a
box under c_u in row-major order dilates in a handful of whole-mask shifts.
The endpoints of the other edges (a cone's apex edges, a cycle's wrap edge,
small classes) form the residual support, and the mask's vertices in it add
their closed neighbourhoods bit by bit.  A mask with at most two bits per
shift pair takes the per-bit union of closed neighbourhoods over all its
vertices instead, which is cheaper for it.  Both paths give the same set.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from itertools import compress
from typing import DefaultDict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .lattice import Point, keyed_points

INF = math.inf


def bits(mask: int) -> Iterator[int]:
    """The vertex ids in a bitmask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bitmask(n: int, ids: Iterable[int]) -> int:
    """The bitmask of some ids in 0..n-1, built in time linear in n."""
    digits = bytearray(b"0") * n
    for x in ids:
        digits[x] = 49  # ord("1")
    return int(digits[::-1] or b"0", 2)


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
        self._point_index = dict(zip(self.coords, range(n)))
        self._point_index.pop(None, None)
        if len(self._point_index) != n - self.coords.count(None):
            raise ValueError("coordinate-backed vertices must be distinct points")
        if dimension is not None and set(map(len, self._point_index)) - {dimension}:
            raise ValueError("all coordinates must match the image dimension")
        self._adj: List[Tuple[int, ...]] = self._build_adj()
        self._nbhd_bits: List[int] = [
            (1 << x) | sum(1 << y for y in self._adj[x]) for x in range(n)
        ]
        self._build_shifts()
        self._connected: Optional[bool] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_points(
        cls,
        points: Sequence[Sequence[int]],
        u: int,
        labels: Optional[Sequence[Optional[str]]] = None,
    ) -> "DigitalImage":
        """Materialize the c_u image on a finite set of lattice points.

        A c_u neighbour differs by 0 or ±1 in each coordinate and by ±1 in
        1..u of them.  The points are keyed in mixed radix (see `lattice`),
        and candidate keys grow a coordinate at a time for all points at
        once, kept only while some point has that prefix, rather than
        walking all 3^d offsets.  Only lexicographically forward neighbours
        grow (the first coordinate that changes steps +1), so each edge is
        made once."""
        if not points:
            if u < 1:
                raise ValueError(f"require u >= 1, got u={u}")
            return cls(0, [], u=u)
        d = len(points[0])
        if not 1 <= u <= d:
            raise ValueError(f"require 1 <= u <= {d}, got u={u}")
        pts, digits, strides = keyed_points(points, d)
        n = len(pts)
        # ids[c] and keys[c]: (point, candidate prefix) pairs with c coordinates changed.
        ids: List[List[int]] = [list(range(n))] + [[] for _ in range(u)]
        keys: List[List[int]] = [[0] * n] + [[] for _ in range(u)]
        prefix = [0] * n
        for own, stride in zip(digits, strides):
            prefix = list(map(operator.add, prefix, own))
            present = set(prefix)
            grown_ids: List[List[int]] = [[] for _ in range(u + 1)]
            grown_keys: List[List[int]] = [[] for _ in range(u + 1)]
            for changed in range(u + 1):
                stay = list(map(operator.add, keys[changed], map(own.__getitem__, ids[changed])))
                if changed == u:
                    steps: Tuple[int, ...] = (0,)
                elif changed == 0:
                    steps = (0, stride)  # forward: the first change is +1
                else:
                    steps = (0, -stride, stride)
                for step in steps:
                    candidates = list(map(step.__add__, stay)) if step else stay
                    hit = list(map(present.__contains__, candidates))
                    to = changed + (step != 0)
                    grown_ids[to] += compress(ids[changed], hit)
                    grown_keys[to] += compress(candidates, hit)
            ids, keys = grown_ids, grown_keys
        index = dict(zip(prefix, range(n)))
        edges = [
            edge
            for changed in range(1, u + 1)
            for edge in zip(ids[changed], map(index.__getitem__, keys[changed]))
        ]
        return cls(n, edges, coords=pts, labels=labels, u=u, dimension=d)

    # -- basic queries -----------------------------------------------------

    def _build_adj(self) -> List[Tuple[int, ...]]:
        adj: List[List[int]] = [[] for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return [tuple(sorted(v)) for v in adj]

    def _build_shifts(self) -> None:
        """One shift pair per id-difference class of more than 2 edges; the
        endpoints of every other edge form the residual support."""
        classes: DefaultDict[int, List[int]] = defaultdict(list)
        for a, b in self.edges:
            classes[b - a].append(a)
        self._shifts: List[Tuple[int, int]] = [
            (d, _bitmask(self.n, lows)) for d, lows in classes.items() if len(lows) > 2
        ]
        self._per_bit_max = 2 * len(self._shifts)  # the popcount switch
        self._residual_support = _bitmask(
            self.n,
            [x for d, lows in classes.items() if len(lows) <= 2 for a in lows for x in (a, a + d)],
        )

    def check_vertex(self, x: int) -> int:
        if not 0 <= x < self.n:
            raise UnknownVertexError(f"vertex {x} outside 0..{self.n - 1}")
        return x

    def neighbors(self, x: int) -> Tuple[int, ...]:
        return self._adj[self.check_vertex(x)]

    def closed_neighborhood_bits(self, x: int) -> int:
        return self._nbhd_bits[self.check_vertex(x)]

    @property
    def is_coordinate_backed(self) -> bool:
        """True when built from lattice points under a c_u adjacency."""
        return self.u is not None and all(p is not None for p in self.coords)

    def vertex_at(self, point: Sequence[int]) -> int:
        pt = tuple(map(operator.index, point))
        if pt not in self._point_index:
            raise UnknownVertexError(f"no vertex at point {pt!r}")
        return self._point_index[pt]

    # -- metric ------------------------------------------------------------

    def dilate(self, mask: int) -> int:
        """N*(mask): the vertices of mask together with all their neighbours.

        A mask of more than two bits per shift pair is shifted along each
        id-difference class, and only its vertices on the residual support
        add their closed neighbourhoods; a smaller mask ORs one closed
        neighbourhood per bit."""
        grown = mask
        if mask.bit_count() > self._per_bit_max:
            for d, lo in self._shifts:
                grown |= ((mask & lo) << d) | ((mask >> d) & lo)
            mask &= self._residual_support
        nbhd = self._nbhd_bits
        while mask:
            low = mask & -mask
            grown |= nbhd[low.bit_length() - 1]
            mask ^= low
        return grown

    def rings(self, mask: int) -> Iterator[int]:
        """The vertices at distance 0, 1, 2, ... from mask, one bitmask per
        distance, until no unseen vertex is reachable."""
        seen = 0
        while mask:
            yield mask
            seen |= mask
            mask = self.dilate(mask) & ~seen

    def distance(self, x: int, y: int) -> float:
        """Shortest path length, math.inf when x and y are in different components."""
        self.check_vertex(x)
        target = 1 << self.check_vertex(y)
        for d, ring in enumerate(self.rings(1 << x)):
            if ring & target:
                return d
        return INF

    def is_connected(self) -> bool:
        """Every vertex is in a ring around vertex 0 (cached); true if empty."""
        if self._connected is None:
            reached = 0
            for ring in self.rings(1 if self.n else 0):
                reached |= ring
            self._connected = reached == (1 << self.n) - 1
        return self._connected

    def diameter(self) -> int:
        if self.n == 0:
            raise ValueError("diameter of an empty image is undefined")
        if not self.is_connected():
            raise DisconnectedImageError("diameter requires a connected image")
        return max(sum(1 for _ in self.rings(1 << x)) - 1 for x in range(self.n))

    def is_dominating(self, members: Iterable[int]) -> bool:
        """True iff every vertex is in the set or adjacent to a member."""
        mask = 0
        for x in members:
            mask |= 1 << self.check_vertex(x)
        return self.dilate(mask) == (1 << self.n) - 1
