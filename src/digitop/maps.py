"""Functions between digital images: continuity, fixed points, displacement,
isomorphisms, and seeded random generation of continuous self-maps."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Tuple

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

    def compose(self, inner: "Mapping") -> "Mapping":
        """self after inner."""
        return Mapping(
            inner.source,
            self.target,
            tuple(self.assignment[v] for v in inner.assignment),
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


def random_continuous_map(
    image: DigitalImage, fixed: Iterable[int] = (), seed: int = 0
) -> Mapping:
    """A seeded random continuous self-map fixing `fixed` pointwise.

    Vertices are assigned ring by ring from the fixed set (from vertex 0 if
    it is empty), in id order within a ring, choosing uniformly among values
    consistent with already-assigned neighbors and backtracking on dead
    ends.  The identity extension always exists, so this terminates.
    """
    if not image.is_connected():
        raise DisconnectedImageError("random map generation requires connectivity")
    rng = random.Random(seed)
    fixed = sorted(set(fixed))
    for x in fixed:
        image.check_vertex(x)
    start = sum(1 << x for x in fixed) or (1 if image.n else 0)
    order = [x for ring in image.rings(start) for x in bits(ring)][len(fixed):]
    assignment: dict[int, int] = {x: x for x in fixed}

    def assign(k: int) -> bool:
        if k == len(order):
            return True
        x = order[k]
        mask = (1 << image.n) - 1
        for y in image.neighbors(x):
            if y in assignment:
                mask &= image.closed_neighborhood_bits(assignment[y])
        candidates = [v for v in range(image.n) if (mask >> v) & 1]
        rng.shuffle(candidates)
        for v in candidates:
            assignment[x] = v
            if assign(k + 1):
                return True
            del assignment[x]
        return False

    if not assign(0):  # pragma: no cover - identity extension always succeeds
        raise RuntimeError("no continuous extension found")
    return Mapping(image, image, tuple(assignment[x] for x in range(image.n)))


def check_pulling(f: Mapping) -> bool:
    """Oracle for the coordinate-pulling law on c_u-embedded images.

    For adjacent q, q' and each coordinate: a continuous map that moves q
    past itself in some direction, with q' behind it, must also move q' in
    that direction.  Returns True for every continuous map; callable only on
    coordinate-backed images with a continuous input.
    """
    if not f.is_self_map:
        raise ValueError("pulling check is defined for self-maps only")
    image = f.source
    if not image.is_coordinate_backed:
        raise ValueError("pulling check requires a coordinate-backed c_u image")
    if not is_continuous(f):
        raise ValueError("pulling check requires a continuous map")
    coords = image.coords
    a = f.assignment
    for x, y in image.edges:
        for q, qp in ((x, y), (y, x)):
            pq, pqp, pfq, pfqp = coords[q], coords[qp], coords[a[q]], coords[a[qp]]
            for i in range(len(pq)):
                if pfq[i] > pq[i] > pqp[i] and not pfqp[i] > pqp[i]:
                    return False
                if pfq[i] < pq[i] < pqp[i] and not pfqp[i] < pqp[i]:
                    return False
    return True
