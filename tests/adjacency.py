"""The c_u adjacency written pair by pair, as an oracle for the edges that
`DigitalImage.from_points` builds from its point index."""

from typing import Sequence

from digitop.lattice import DimensionMismatchError, check_point


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
