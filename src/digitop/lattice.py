"""Points of Z^d and the c_1 boundary operator.  The c_u edges of a point
set are built by `graph.DigitalImage.from_points`."""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Sequence, Set, Tuple

Point = Tuple[int, ...]

# Construction guard: coordinates this small can never overflow the
# difference arithmetic used by adjacency tests.
MAX_COORD = 2**30


class DimensionMismatchError(ValueError):
    """Raised when two points (or a point and an image) disagree on dimension."""


def check_point(p: Sequence[int], d: int | None = None) -> Point:
    """Validate and normalize a lattice point to a tuple of ints."""
    pt = tuple(map(operator.index, p))
    if d is not None and len(pt) != d:
        raise DimensionMismatchError(f"expected dimension {d}, got point {pt!r}")
    if any(abs(c) > MAX_COORD for c in pt):
        raise ValueError(f"coordinate magnitude exceeds {MAX_COORD}: {pt!r}")
    return pt


def c1_neighbors(p: Point) -> Iterator[Point]:
    """The 2d lattice points c_1-adjacent to p."""
    for i, c in enumerate(p):
        yield p[:i] + (c - 1,) + p[i + 1 :]
        yield p[:i] + (c + 1,) + p[i + 1 :]


def c1_boundary(points: Iterable[Sequence[int]], d: int) -> Set[Point]:
    """Members of the set having a c_1-neighbor in Z^d outside the set."""
    pts = {check_point(p, d) for p in points}
    return {p for p in pts if any(q not in pts for q in c1_neighbors(p))}
