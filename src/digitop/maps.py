"""Functions between digital images: continuity, fixed points, displacement,
isomorphisms, and seeded random generation of continuous self-maps."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, Optional, Tuple

from .graph import DigitalImage, DisconnectedImageError, bits


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

    @classmethod
    def identity(cls, image: DigitalImage) -> "Mapping":
        return cls(image, image, tuple(range(image.n)))

    @property
    def is_self_map(self) -> bool:
        return self.source is self.target or (
            self.source.n == self.target.n and self.source.edges == self.target.edges
        )

    def __call__(self, x: int) -> int:
        self.source.check_vertex(x)
        return self.assignment[x]


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


def random_continuous_map(
    image: DigitalImage, fixed: Iterable[int] = (), seed: int = 0
) -> Mapping:
    """A seeded random continuous self-map fixing `fixed` pointwise.

    The first leaf of the verifier's search with `fixed` pinned, trying the
    values of each branching vertex in an order shuffled by `seed`.  The
    identity is a leaf, so one exists; a search that outruns the default
    budget raises TimeoutError.
    """
    from .verifier import DEFAULT_BUDGET, _SelfMapSearch

    if not image.is_connected():
        raise DisconnectedImageError("random map generation requires connectivity")
    rng = random.Random(seed)
    domains = [(1 << image.n) - 1] * image.n
    for x in fixed:
        domains[image.check_vertex(x)] = 1 << x

    def shuffled(mask: int) -> Iterator[int]:
        values = list(bits(mask))
        rng.shuffle(values)
        return iter(values)

    search = _SelfMapSearch(image, DEFAULT_BUDGET, shuffled)
    return Mapping(image, image, next(search.leaves(domains)))

