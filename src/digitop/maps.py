"""Functions between digital images: continuity, fixed points, displacement
and isomorphisms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Tuple

from .graph import DigitalImage, DisconnectedImageError


@dataclass(frozen=True)
class Mapping:
    """A total function between two digital images, stored densely."""

    source: DigitalImage
    target: DigitalImage
    assignment: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.assignment) != self.source.n:
            raise ValueError("assignment must cover every source vertex")
        for v in self.assignment:
            self.target.check_vertex(v)

    @property
    def is_self_map(self) -> bool:
        return self.source is self.target or (
            self.source.n == self.target.n and self.source.edges == self.target.edges
        )


def is_continuous(f: Mapping) -> bool:
    """True iff every source edge maps to equal or adjacent target vertices."""
    a = f.assignment
    for x, y in f.source.edges:
        fx, fy = a[x], a[y]
        if fx != fy and (1 << fy) & f.target.closed_neighborhood_bits(fx) == 0:
            return False
    return True


def fixed_points(f: Mapping) -> FrozenSet[int]:
    if not f.is_self_map:
        raise ValueError("fixed points are defined for self-maps only")
    return frozenset(x for x, v in enumerate(f.assignment) if x == v)


def max_displacement(f: Mapping, subset: Optional[Iterable[int]] = None) -> int:
    """max over the subset (default: all of X) of d(x, f(x))."""
    if not f.is_self_map:
        raise ValueError("displacement is defined for self-maps only")
    if not f.source.is_connected():
        raise DisconnectedImageError("displacement requires a connected image")
    members = range(f.source.n) if subset is None else sorted(set(subset))
    best = 0
    for x in members:
        d = f.source.distance(x, f.assignment[x])
        if d > best:
            best = int(d)
    return best


def is_isomorphism(f: Mapping) -> bool:
    """True iff f is a continuous bijection with a continuous inverse."""
    if f.source.n != f.target.n:
        return False
    if len(set(f.assignment)) != f.source.n:
        return False
    if not is_continuous(f):
        return False
    inverse = [0] * f.source.n
    for x, v in enumerate(f.assignment):
        inverse[v] = x
    return is_continuous(Mapping(f.target, f.source, tuple(inverse)))


def push_forward(subset: Iterable[int], f: Mapping) -> FrozenSet[int]:
    return frozenset(f.assignment[f.source.check_vertex(x)] for x in subset)
