"""Points of Z^d, their integer keys and the c_1 boundary operator.  The c_u
edges of a point set are built by `graph.DigitalImage.from_points`.

A point set is keyed in mixed radix: coordinate k becomes the digit
c - (min_k - 1) of stride strides[k], so c ± 1 is still a digit, a lattice
step along axis k adds ± strides[k] to a key without carrying, and keys
order the points lexicographically."""

from __future__ import annotations

import operator
from typing import Iterable, List, Sequence, Set, Tuple

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


def keyed_points(
    points: Sequence[Sequence[int]], d: int
) -> Tuple[List[Point], List[List[int]], List[int]]:
    """Validate and normalize a nonempty list of points of Z^d as
    `check_point` does, with the dimension and magnitude checks made once
    over the whole list, and key them.  Returns the points, each
    coordinate's digits already multiplied by its stride (a point's key is
    the sum of its entries over the columns) and the strides."""
    pts = [tuple(map(operator.index, p)) for p in points]
    columns = list(zip(*pts))
    if set(map(len, pts)) - {d} or (
        columns and (min(map(min, columns)) < -MAX_COORD or max(map(max, columns)) > MAX_COORD)
    ):
        for p in pts:
            check_point(p, d)
    lows = [min(c) - 1 for c in columns]
    strides = [1] * d
    for k in range(d - 1, 0, -1):
        strides[k - 1] = strides[k] * (max(columns[k]) - lows[k] + 2)
    digits = [
        [(c - low) * stride for c in column]
        for column, low, stride in zip(columns, lows, strides)
    ]
    return pts, digits, strides


def c1_boundary(points: Iterable[Sequence[int]], d: int) -> Set[Point]:
    """Members of the set having a c_1-neighbor in Z^d outside the set.

    A point is inside iff its key ± each stride is a key, so the interior is
    the key set intersected with its 2d shifts, and the boundary is the rest."""
    points = list(points)
    if not points:
        return set()
    pts, digits, strides = keyed_points(points, d)
    keys = list(map(sum, zip(*digits)))
    present = set(keys)
    interior = present.intersection(
        *[set(map(step.__add__, present)) for s in strides for step in (s, -s)]
    )
    return {p for p, key in zip(pts, keys) if key not in interior}
