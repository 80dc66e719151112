"""The benchmark's workloads: images, the queries asked of each, and the
verdict the paper's theorems predict for every query.

A workload is a list of `Job`s.  A job builds one image and lists the
queries asked of it; a seeded `random.Random` picks the variants (which ring
vertex is dropped, which corner is pinned, where three points sit on a
cycle) and the harness shuffles the order of all queries with the same seed.

Sizes are chosen so that each known hot spot shows up without one query
taking minutes.  Measured at commit e6b4691 on a 2-core x86-64 machine,
CPython 3.11, single-threaded:

  box[20,20] c_1, `verify freezing --set corners`    12.5 s  (box[16,16]: 3.4 s)
  3-D c_1 / c_2 boxes, 1-cold corners                 25-47 s
  C_400, three pinned points, freezing                 8.0 s
  box[32,32] c_2, one pinned corner                    RecursionError: the
      DFS recurses once per assigned vertex and this refutation assigns all
      1089 of them (ROADMAP item 3).

So `verify-cold` boxes stop at side 16 and its cycles at C_60, 3-D lattice
queries pin single corners only, and 2-D lattice boxes stop at side 28
(841 vertices), which keeps every query answerable at that commit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from digitop import constructions as build
from digitop.constructions import NamedComplex

HOLDS = "holds"
FAILS = "fails"
# Expectation of a `search_minimal` query whose answer the theorems do not
# name: the set found must itself be a minimal freezing set.
MINIMAL = "minimal"


@dataclass(frozen=True)
class Query:
    """One top-level call and the answer the theorems predict.

    `prop` is freezing, s_cold, limiting, minimal, search_minimal or
    enumerate.  `expect` is a verdict, a map count, the set a minimal search
    must return, or MINIMAL.  `cli_set` is the `--set` spec used when the
    query goes through the CLI; None means an id file of `members`.
    """

    prop: str
    members: Tuple[int, ...]
    expect: object
    params: Tuple[Tuple[str, int], ...] = ()
    cli_set: Optional[str] = None


@dataclass(frozen=True)
class Job:
    key: str
    build: Callable[[], NamedComplex]
    queries: Callable[[NamedComplex, random.Random], List[Query]]


def _ids(nc: NamedComplex, *names: str) -> Tuple[int, ...]:
    return tuple(sorted(frozenset().union(*(nc.set_named(n) for n in names))))


def _all_minus(nc: NamedComplex, drop: Sequence[int]) -> Tuple[int, ...]:
    gone = set(drop)
    return tuple(x for x in range(nc.image.n) if x not in gone)


def _minus(members: Sequence[int], x: int) -> Tuple[int, ...]:
    return tuple(y for y in members if y != x)


def _cycle(m: int) -> NamedComplex:
    return build.simple_closed_curve(m)


# -- theorem instances ---------------------------------------------------------
#
# Cones and suspensions.  On CX the apex is adjacent to every base vertex and
# no base vertex of a cycle or a 2x2 box is adjacent to all others, so a map
# fixing the base fixes the apex (base freezes), a base vertex left free can
# move to the apex (base minus x does not freeze), and the apex never moves
# more than 1 ((1,1)-limiting without the apex).  On SX the poles are the
# only vertices adjacent to the whole base, so base-fixing maps send poles to
# poles (4 maps) and swapping them displaces a pole by 2.


def _cone_base(nc: NamedComplex, rng: random.Random) -> List[Query]:
    base = _ids(nc, "X_base")
    return [Query("freezing", base, HOLDS)] + [
        Query("freezing", _minus(base, x), FAILS) for x in base
    ]


def _cone_cycle(nc: NamedComplex, rng: random.Random) -> List[Query]:
    base = _ids(nc, "X_base")
    apex = _ids(nc, "U")
    return _cone_base(nc, rng) + [
        Query("enumerate", base, 1),
        Query("enumerate", base + apex, 1),
        Query("limiting", _all_minus(nc, apex), HOLDS, (("m", 1), ("n", 1))),
    ]


def _suspension_cycle(nc: NamedComplex, rng: random.Random) -> List[Query]:
    upper, lower = _ids(nc, "U"), _ids(nc, "L")
    return [
        Query("freezing", _all_minus(nc, upper), FAILS),
        Query("freezing", _all_minus(nc, lower), FAILS),
        Query("enumerate", _ids(nc, "X_base"), 4),
        Query("limiting", _all_minus(nc, upper), FAILS, (("m", 1), ("n", 1))),
    ]


def _suspension_interval(nc: NamedComplex, rng: random.Random) -> List[Query]:
    base = _ids(nc, "X_base")
    poles = _ids(nc, "U", "L")
    ends = (base[0], base[-1])  # the interval's endpoints keep ids 0 and max
    return [
        Query("minimal", tuple(sorted(ends + poles)), HOLDS),
        Query("freezing", tuple(sorted((ends[0],) + poles)), FAILS),
    ]


# The pyramid family (suite rows 6-9).  Every vertex of T_n (for P_n) and of
# U + W_n (for Q_n) lies in every freezing set, so those sets are the unique
# minimal freezing sets and a minimal search must return them.


def _pyramid(n: int, search: bool):
    def queries(nc: NamedComplex, rng: random.Random) -> List[Query]:
        ring = _ids(nc, f"T_{n}")
        out = [Query("minimal", ring, HOLDS)]
        out += [Query("freezing", _all_minus(nc, [x]), FAILS) for x in ring]
        if search:
            out.append(Query("search_minimal", (), frozenset(ring)))
        return out

    return queries


def _solid_pyramid(n: int, search: bool):
    def queries(nc: NamedComplex, rng: random.Random) -> List[Query]:
        core = _ids(nc, "U", f"W_{n}")
        out = [Query("minimal", core, HOLDS)]
        out += [Query("freezing", _all_minus(nc, [y]), FAILS) for y in core]
        if search:
            out.append(Query("search_minimal", (), frozenset(core)))
        return out

    return queries


def _bipyramid(n: int, search: bool):
    def queries(nc: NamedComplex, rng: random.Random) -> List[Query]:
        out = [Query("freezing", _ids(nc, "U", "L", f"T_{n}"), HOLDS)]
        if search:
            out.append(Query("search_minimal", (), MINIMAL))
        return out

    return queries


def _solid_bipyramid(n: int, search: bool):
    def queries(nc: NamedComplex, rng: random.Random) -> List[Query]:
        poles_ring = _ids(nc, "U", "L", f"T_{n}")
        out = [
            Query("freezing", poles_ring, HOLDS),
            Query("minimal", poles_ring, HOLDS),
        ]
        if search:
            out.append(Query("search_minimal", (), MINIMAL))
        return out

    return queries


# Boxes.  Under c_1 the corners freeze, and each corner lies in every
# freezing set (a free corner can step to its diagonal neighbour), so the
# corners are the unique minimal freezing set.  Under c_d the graph metric is
# the Chebyshev metric, so Bd is (1,1)-limiting: each coordinate of f is
# 1-Lipschitz and within 1 of the identity on both faces normal to it.  In
# the plane under c_2, Bd is the unique minimal freezing set, and the corners
# neither freeze nor are 1-cold: (x, y) -> (x, max(y, min(x, m - x))) fixes
# them and moves (m/2, 0) by m/2.  One pinned point never freezes an image
# with two or more points: the constant map fixes it.


def _box_corners_freeze(nc: NamedComplex, rng: random.Random) -> List[Query]:
    return [Query("freezing", _ids(nc, "corners"), HOLDS)]


def _box_search(nc: NamedComplex, rng: random.Random) -> List[Query]:
    expect = "corners" if nc.image.u == 1 else "Bd"
    return [Query("search_minimal", (), frozenset(nc.set_named(expect)))]


def _single_corners(count: Optional[int], extra: Sequence[str] = ()):
    """`count` one-corner refutations (all corners when None), plus the
    named c_d queries in `extra`: corners, cold-corners, limiting-Bd."""

    def queries(nc: NamedComplex, rng: random.Random) -> List[Query]:
        corners = _ids(nc, "corners")
        picked = corners if count is None else sorted(rng.sample(corners, count))
        out = [Query("freezing", (c,), FAILS) for c in picked]
        if "corners" in extra:
            out.append(Query("freezing", corners, FAILS))
        if "cold-corners" in extra:
            out.append(Query("s_cold", corners, FAILS, (("s", 1),)))
        if "limiting-Bd" in extra:
            out.append(Query("limiting", _ids(nc, "Bd"), HOLDS, (("m", 1), ("n", 1))))
        return out

    return queries


# Cycles.  A continuous self-map of C_m restricted to the arc between two
# fixed points is a lazy walk of the arc's length L; it can leave the arc
# only by going round the other way, which needs m - L <= L steps.  So {k,
# k+1} never freezes C_m (m >= 5), and three points freeze C_m iff every arc
# between consecutive points is shorter than m/2.


def _adjacent_pairs(count: int):
    def queries(nc: NamedComplex, rng: random.Random) -> List[Query]:
        m = nc.image.n
        return [
            Query("freezing", tuple(sorted((k, (k + 1) % m))), FAILS)
            for k in rng.sample(range(m), count)
        ]

    return queries


def freezes_cycle(m: int, points: Sequence[int]) -> bool:
    """True iff the sorted `points` freeze C_m: every arc between
    consecutive points is shorter than m/2."""
    arcs = [b - a for a, b in zip(points, points[1:])] + [m - points[-1] + points[0]]
    return 2 * max(arcs) < m


def three_points(m: int, rng: random.Random, freezing: bool) -> Tuple[int, ...]:
    """Three points of C_m that freeze it (arcs of about m/3), or that do
    not (arcs 1, at least m/2 and the rest), turned by a random offset.
    Fixed shapes keep the query's cost independent of the seed."""
    shape = (0, m // 3, 2 * m // 3) if freezing else (0, 1, 1 + (m + 1) // 2)
    turn = rng.randrange(m)
    return tuple(sorted((p + turn) % m for p in shape))


def _three_point_pairs(nc: NamedComplex, rng: random.Random) -> List[Query]:
    m = nc.image.n
    return [
        Query("freezing", three_points(m, rng, True), HOLDS),
        Query("freezing", three_points(m, rng, False), FAILS),
    ]


# -- workloads -------------------------------------------------------------------


def paper_suite(small: bool) -> List[Job]:
    """Suite rows 1-3 and 6-11 with the pyramid family up to n = 4, plus
    minimal searches on P_2..P_3, Q_2, H_2, K_2 and the 8x8 boxes."""
    top = 2 if small else 4
    side = 4 if small else 8
    jobs: List[Job] = []
    for m in range(4, 9):
        jobs.append(Job(f"C(C_{m})", lambda m=m: build.cone(_cycle(m).image), _cone_cycle))
        jobs.append(
            Job(f"S(C_{m})", lambda m=m: build.suspension(_cycle(m).image), _suspension_cycle)
        )
    jobs.append(
        Job("C(box[2,2]c1)", lambda: build.cone(build.box([2, 2], 1).image), _cone_base)
    )
    jobs.append(
        Job("S([0,3])", lambda: build.suspension(build.interval(0, 3).image), _suspension_interval)
    )
    for n in range(1, top + 1):
        jobs += [
            Job(f"P_{n}", lambda n=n: build.pyramid(n), _pyramid(n, n in (2, 3))),
            Job(f"Q_{n}", lambda n=n: build.solid_pyramid(n), _solid_pyramid(n, n == 2)),
            Job(f"H_{n}", lambda n=n: build.bipyramid(n), _bipyramid(n, n == 2)),
            Job(f"K_{n}", lambda n=n: build.solid_bipyramid(n), _solid_bipyramid(n, n == 2)),
        ]
    jobs += [
        Job("box[2,2]c1", lambda: build.box([2, 2], 1), _box_corners_freeze),
        Job("box[2,2,2]c1", lambda: build.box([2, 2, 2], 1), _box_corners_freeze),
        Job(
            "box[2,2]c2",
            lambda: build.box([2, 2], 2),
            lambda nc, rng: [Query("minimal", _ids(nc, "Bd"), HOLDS)],
        ),
    ]
    for u in (1, 2):
        jobs.append(Job(f"box[{side},{side}]c{u}", lambda u=u: build.box([side, side], u), _box_search))
    return jobs


def lattice(small: bool) -> List[Job]:
    """Large boxes and cycles, built once each and mostly refuted."""
    sides2 = (4, 6) if small else (16, 24)
    big2 = 8 if small else 28
    sides3 = (2, 3) if small else (6, 8)
    cycles = ((12, 2), (20, 1)) if small else ((200, 3), (400, 2), (600, 1))
    c2_extra = ("corners", "cold-corners", "limiting-Bd")
    jobs: List[Job] = []
    for s in sides2:
        jobs.append(Job(f"box[{s},{s}]c1", lambda s=s: build.box([s, s], 1), _single_corners(None)))
        jobs.append(
            Job(f"box[{s},{s}]c2", lambda s=s: build.box([s, s], 2), _single_corners(None, c2_extra))
        )
    jobs.append(Job(f"box[{big2},{big2}]c1", lambda: build.box([big2, big2], 1), _single_corners(1)))
    jobs.append(
        Job(
            f"box[{big2},{big2}]c2",
            lambda: build.box([big2, big2], 2),
            _single_corners(1, ("cold-corners", "limiting-Bd")),
        )
    )
    for s, count in zip(sides3, (None, 1)):
        for u in (1, 2, 3):
            extra = ("limiting-Bd",) if u == 3 else ()
            jobs.append(
                Job(
                    f"box[{s},{s},{s}]c{u}",
                    lambda s=s, u=u: build.box([s, s, s], u),
                    _single_corners(count, extra),
                )
            )
    for m, count in cycles:
        jobs.append(Job(f"C_{m}", lambda m=m: _cycle(m), _adjacent_pairs(count)))
    return jobs


def _cli_pyramid(n: int):
    def queries(nc: NamedComplex, rng: random.Random) -> List[Query]:
        ring = _ids(nc, f"T_{n}")
        return [
            Query("minimal", ring, HOLDS, cli_set=f"T_{n}"),
            # Dropping a ring corner: the four corners cost alike.
            Query("freezing", _all_minus(nc, [rng.choice(_ids(nc, f"T_{n}_prime"))]), FAILS),
            # T_n freezes, so every map fixing it displaces nothing.
            Query("s_cold", ring, HOLDS, (("s", 1),), cli_set=f"T_{n}"),
        ]

    return queries


def _cli_named(prop: str, spec: str, expect: str):
    def queries(nc: NamedComplex, rng: random.Random) -> List[Query]:
        return [Query(prop, _ids(nc, *spec.split("+")), expect, cli_set=spec)]

    return queries


def _cli_solid_bipyramid(n: int, minimal: bool):
    def queries(nc: NamedComplex, rng: random.Random) -> List[Query]:
        spec = f"U+L+T_{n}"
        members = _ids(nc, "U", "L", f"T_{n}")
        out = [Query("freezing", members, HOLDS, cli_set=spec)]
        if minimal:
            out.append(Query("minimal", members, HOLDS, cli_set=spec))
        return out

    return queries


def _cli_cone(nc: NamedComplex, rng: random.Random) -> List[Query]:
    base = _ids(nc, "X_base")
    apex = _ids(nc, "U")
    return [
        Query("freezing", base, HOLDS, cli_set="X_base"),
        Query("freezing", _minus(base, rng.choice(base)), FAILS),
        Query("limiting", _all_minus(nc, apex), HOLDS, (("m", 1), ("n", 1)), "all-minus-U"),
    ]


def _cli_suspension(nc: NamedComplex, rng: random.Random) -> List[Query]:
    no_upper = _all_minus(nc, _ids(nc, "U"))
    return [
        Query("freezing", no_upper, FAILS, cli_set="all-minus-U"),
        Query("s_cold", _ids(nc, "X_base"), FAILS, (("s", 1),), "X_base"),
        Query("limiting", no_upper, FAILS, (("m", 1), ("n", 1)), "all-minus-U"),
    ]


def _cli_box(side: int, u: int):
    def queries(nc: NamedComplex, rng: random.Random) -> List[Query]:
        corners = _ids(nc, "corners")
        if u == 1:
            out = [Query("freezing", _minus(corners, rng.choice(corners)), FAILS)]
            # The corner proofs are the cold-root hot spot: 3.4 s at side 16.
            if side % 4 == 0:
                out.append(Query("freezing", corners, HOLDS, cli_set="corners"))
            if side in (4, 8, 12):
                out.append(Query("s_cold", corners, HOLDS, (("s", 1),), "corners"))
            return out
        out = [
            Query("freezing", corners, FAILS, cli_set="corners"),
            Query("s_cold", corners, FAILS, (("s", 1),), "corners"),
            Query("limiting", _ids(nc, "Bd"), HOLDS, (("m", 1), ("n", 1)), "Bd"),
        ]
        if side <= 8:
            out.append(Query("minimal", _ids(nc, "Bd"), HOLDS, cli_set="Bd"))
        return out

    return queries


def verify_cold(small: bool) -> List[Job]:
    """Independent `digitop verify` calls, each on a freshly loaded image.
    The size ladders are dense so that the latency percentiles fall among
    many queries of similar cost."""
    top = 2 if small else 3
    cycles = (8, 12) if small else range(8, 41, 2)
    box_sides = (4,) if small else range(4, 17, 2)
    three = (12,) if small else range(12, 61, 2)
    jobs: List[Job] = []
    for n in range(1, top + 1):
        jobs += [
            Job(f"P_{n}", lambda n=n: build.pyramid(n), _cli_pyramid(n)),
            Job(f"Q_{n}", lambda n=n: build.solid_pyramid(n), _cli_named("minimal", f"U+W_{n}", HOLDS)),
            Job(f"H_{n}", lambda n=n: build.bipyramid(n), _cli_named("freezing", f"U+L+T_{n}", HOLDS)),
            Job(f"K_{n}", lambda n=n: build.solid_bipyramid(n), _cli_solid_bipyramid(n, n <= 2)),
        ]
    for m in cycles:
        jobs.append(Job(f"C(C_{m})", lambda m=m: build.cone(_cycle(m).image), _cli_cone))
        jobs.append(Job(f"S(C_{m})", lambda m=m: build.suspension(_cycle(m).image), _cli_suspension))
    for s in box_sides:
        for u in (1, 2):
            jobs.append(Job(f"box[{s},{s}]c{u}", lambda s=s, u=u: build.box([s, s], u), _cli_box(s, u)))
    for m in three:
        jobs.append(Job(f"C_{m}", lambda m=m: _cycle(m), _three_point_pairs))
    return jobs


WORKLOADS: Dict[str, Callable[[bool], List[Job]]] = {
    "paper-suite": paper_suite,
    "verify-cold": verify_cold,
    "lattice": lattice,
}
