"""Builders for the digital images under study.

Every builder returns a NamedComplex: the image plus a dictionary of named
vertex subsets (poles, levels, lateral edges, faces, boundary, ...).  The
pyramid family lives in Z^3 under c_3 with apex U = (0, 0, n); cones and
suspensions are abstract (their fresh poles carry labels but no coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence

from .graph import DigitalImage
from .lattice import Point, c1_boundary


@dataclass(frozen=True)
class NamedComplex:
    """A constructed image together with its named vertex subsets."""

    image: DigitalImage
    named_sets: Dict[str, FrozenSet[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, members in self.named_sets.items():
            for x in members:
                self.image.check_vertex(x)

    def set_named(self, name: str) -> FrozenSet[int]:
        if name not in self.named_sets:
            raise KeyError(f"no named set {name!r}")
        return self.named_sets[name]


def _ids(image: DigitalImage, points: Iterable[Point]) -> FrozenSet[int]:
    return frozenset(image.vertex_at(p) for p in points)


def interval(a: int, b: int) -> NamedComplex:
    """The digital interval [a, b]_Z with c_1 adjacency."""
    if a > b:
        raise ValueError(f"require a <= b, got [{a}, {b}]")
    image = DigitalImage.from_points([(k,) for k in range(a, b + 1)], u=1)
    ends = _ids(image, [(a,), (b,)])
    return NamedComplex(image, {"corners": ends, "Bd": ends})


def box(extents: Sequence[int], u: int) -> NamedComplex:
    """The box Prod_i [0, m_i]_Z with c_u adjacency, corners and Bd named."""
    if not extents or any(m < 1 for m in extents):
        raise ValueError("extents must be positive integers")
    image = DigitalImage.from_points(list(product(*[range(m + 1) for m in extents])), u=u)
    corners = _ids(image, product(*[(0, m) for m in extents]))
    # Bd is every point with some coordinate at 0 or m_i.  Ids follow the
    # row-major order of `product`, so the interior's ids are its points
    # read as mixed-radix numbers of radices m_i + 1.
    interior = [0]
    for m in extents:
        interior = [i * (m + 1) + c for i in interior for c in range(1, m)]
    bd = frozenset(range(image.n)).difference(interior)
    return NamedComplex(image, {"corners": corners, "Bd": bd})


def simple_closed_curve(m: int) -> NamedComplex:
    """An abstract digital simple closed curve on m vertices (m >= 4)."""
    if m < 4:
        raise ValueError(
            "a simple closed curve needs at least 4 points for its "
            "neighborhood condition to hold with distinct neighbors"
        )
    edges = [(i, (i + 1) % m) for i in range(m)]
    return NamedComplex(DigitalImage(m, edges), {})


def cone(base: DigitalImage) -> NamedComplex:
    """The cone over base: one fresh apex U adjacent to every base vertex."""
    if base.n == 0:
        raise ValueError("cone requires a nonempty base")
    n = base.n
    edges = list(base.edges) + [(x, n) for x in range(n)]
    image = DigitalImage(
        n + 1,
        edges,
        coords=base.coords + (None,),
        labels=base.labels + ("U",),
    )
    return NamedComplex(
        image, {"U": frozenset({n}), "X_base": frozenset(range(n))}
    )


def suspension(base: DigitalImage) -> NamedComplex:
    """The suspension over base: fresh non-adjacent poles U and L, each
    adjacent to every base vertex."""
    if base.n == 0:
        raise ValueError("suspension requires a nonempty base")
    n = base.n
    edges = list(base.edges) + [(x, n) for x in range(n)] + [(x, n + 1) for x in range(n)]
    image = DigitalImage(
        n + 2,
        edges,
        coords=base.coords + (None, None),
        labels=base.labels + ("U", "L"),
    )
    return NamedComplex(
        image,
        {
            "U": frozenset({n}),
            "L": frozenset({n + 1}),
            "X_base": frozenset(range(n)),
        },
    )


# -- pyramid family ---------------------------------------------------------


def _shell_level(i: int, z: int) -> List[Point]:
    """The square ring of side 2i centered on the z-axis at height z."""
    if i == 0:
        return [(0, 0, z)]
    ring = set()
    for a in range(-i, i + 1):
        ring.update({(a, -i, z), (a, i, z), (-i, a, z), (i, a, z)})
    return sorted(ring)


def _solid_level(i: int, z: int) -> List[Point]:
    return [(a, b, z) for a in range(-i, i + 1) for b in range(-i, i + 1)]


def _pyramid_named(image: DigitalImage, n: int) -> Dict[str, FrozenSet[int]]:
    """Named subsets of a pyramid: apex, levels, lateral and base edges, faces."""
    named: Dict[str, FrozenSet[int]] = {}
    named["U"] = _ids(image, [(0, 0, n)])
    for i in range(n + 1):
        z = n - i
        named[f"T_{i}"] = _ids(image, _shell_level(i, z))
        named[f"T_{i}_prime"] = _ids(image, [(-i, -i, z), (i, -i, z), (i, i, z), (-i, i, z)])
    named["LR"] = _ids(image, [(-i, -i, n - i) for i in range(n + 1)])
    named["LF"] = _ids(image, [(i, -i, n - i) for i in range(n + 1)])
    named["RF"] = _ids(image, [(i, i, n - i) for i in range(n + 1)])
    named["RR"] = _ids(image, [(-i, i, n - i) for i in range(n + 1)])
    named["BL"] = _ids(image, [(a, -n, 0) for a in range(-n, n + 1)])
    named["BF"] = _ids(image, [(n, b, 0) for b in range(-n, n + 1)])
    named["BR"] = _ids(image, [(a, n, 0) for a in range(-n, n + 1)])
    named["BB"] = _ids(image, [(-n, b, 0) for b in range(-n, n + 1)])
    # Faces are the digital triangles bounded by one base edge and two
    # lateral edges; shared lateral edges belong to both adjacent faces.
    named["L"] = _ids(
        image, [(a, -i, n - i) for i in range(n + 1) for a in range(-i, i + 1)]
    )
    named["F"] = _ids(
        image, [(i, b, n - i) for i in range(n + 1) for b in range(-i, i + 1)]
    )
    named["R"] = _ids(
        image, [(a, i, n - i) for i in range(n + 1) for a in range(-i, i + 1)]
    )
    named["B"] = _ids(
        image, [(-i, b, n - i) for i in range(n + 1) for b in range(-i, i + 1)]
    )
    return named


def _mirrored(points: Iterable[Point]) -> List[Point]:
    return [(a, b, -c) for (a, b, c) in points]


def _bipyramid_named(
    image: DigitalImage, n: int, upper: List[Point]
) -> Dict[str, FrozenSet[int]]:
    """Named subsets of a bipyramid: poles, equator ring and both halves."""
    return {
        "U": _ids(image, [(0, 0, n)]),
        "L": _ids(image, [(0, 0, -n)]),
        f"T_{n}": _ids(image, _shell_level(n, 0)),
        "upper": _ids(image, upper),
        "lower": _ids(image, _mirrored(upper)),
    }


def _pyramid_family(
    name: str, n: int, level: Callable[[int, int], List[Point]], mirror: bool
) -> NamedComplex:
    """The levels level(i, n-i), i = 0..n, under c_3, glued to their mirror
    image through z = 0 for a bipyramid.  Solid levels are also named W_i
    (only the base square W_n on a bipyramid)."""
    if n < 1:
        raise ValueError(f"{name} requires n >= 1")
    upper = [p for i in range(n + 1) for p in level(i, n - i)]
    points = sorted(set(upper).union(_mirrored(upper)) if mirror else upper)
    image = DigitalImage.from_points(points, u=3)
    named = _bipyramid_named(image, n, upper) if mirror else _pyramid_named(image, n)
    if level is _solid_level:
        for i in range(n if mirror else 0, n + 1):
            named[f"W_{i}"] = _ids(image, _solid_level(i, n - i))
    named["Bd"] = _ids(image, c1_boundary(image.coords, 3))
    return NamedComplex(image, named)


def pyramid(n: int) -> NamedComplex:
    """The hollow pyramid: union of square rings T_i at heights n-i, c_3."""
    return _pyramid_family("pyramid", n, _shell_level, mirror=False)


def solid_pyramid(n: int) -> NamedComplex:
    """The solid pyramid: union of filled squares W_i at heights n-i, c_3."""
    return _pyramid_family("solid pyramid", n, _solid_level, mirror=False)


def bipyramid(n: int) -> NamedComplex:
    """Two hollow pyramids glued along the base ring T_n, with poles U, L."""
    return _pyramid_family("bipyramid", n, _shell_level, mirror=True)


def solid_bipyramid(n: int) -> NamedComplex:
    """Two solid pyramids glued along the base square W_n, with poles U, L."""
    return _pyramid_family("solid bipyramid", n, _solid_level, mirror=True)


def satisfies_not_small(image: DigitalImage) -> bool:
    """True iff no vertex's closed neighborhood covers the whole image."""
    full = (1 << image.n) - 1
    return all(
        image.closed_neighborhood_bits(x) != full for x in range(image.n)
    ) if image.n else True
