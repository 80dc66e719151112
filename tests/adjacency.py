"""The c_u adjacency written pair by pair, and the c_1 boundary written
neighbour by neighbour, as oracles for the integer-keyed passes of
`DigitalImage.from_points` and `lattice.c1_boundary`."""

from typing import Iterable, Iterator, Sequence, Set

from digitop.lattice import DimensionMismatchError, Point, check_point


def cu_adjacent(p: Sequence[int], q: Sequence[int], u: int) -> bool:
    """True iff p != q, every coordinate differs by 0 or 1, and the number of
    coordinates differing by 1 is between 1 and u."""
    pt = check_point(p)
    qt = check_point(q)
    if len(pt) != len(qt):
        raise DimensionMismatchError(f"points {pt!r} and {qt!r} differ in dimension")
    if not 1 <= u <= len(pt):
        raise ValueError(f"require 1 <= u <= {len(pt)}, got u={u}")
    changed = 0
    for a, b in zip(pt, qt):
        diff = abs(a - b)
        if diff == 1:
            changed += 1
        elif diff != 0:
            return False
    return 1 <= changed <= u


def c1_neighbors(p: Point) -> Iterator[Point]:
    """The 2d lattice points c_1-adjacent to p."""
    for i, c in enumerate(p):
        yield p[:i] + (c - 1,) + p[i + 1 :]
        yield p[:i] + (c + 1,) + p[i + 1 :]


def naive_c1_boundary(points: Iterable[Sequence[int]], d: int) -> Set[Point]:
    """The members of the set with one of their 2d c_1-neighbours outside it."""
    pts = {check_point(p, d) for p in points}
    return {p for p in pts if any(q not in pts for q in c1_neighbors(p))}
