"""The theorem-instance suite: one row per acceptance check, decided exactly.

Each row replays a general theorem at desk scale (n = 1 or 2) through the
verifier and reports pass / fail / unknown.  Row 12 cross-checks the engine
against `naive_verdict`, a deliberately simple enumerator kept independent of
the bitset search machinery.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import permutations, product
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import constructions as build
from .graph import DigitalImage
from .maps import (
    Mapping,
    is_isomorphism,
    max_displacement,
    push_forward,
    random_continuous_map,
)
from .verifier import (
    DEFAULT_BUDGET,
    FAILS,
    HOLDS,
    UNKNOWN,
    SearchBudget,
    VerificationReport,
    enumerate_continuous_self_maps,
    is_freezing,
    is_limiting,
    is_minimal_freezing,
    is_s_cold,
)

PASS = "pass"
FAIL = "fail"


@dataclass
class SuiteRow:
    number: int
    title: str
    status: str  # pass | fail | unknown
    detail: str
    elapsed_ms: float


class _Checks:
    """Accumulates expectations; any False fails the row, and any verdict
    left unknown makes it unknown."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.unknowns: List[str] = []

    def expect(self, ok: bool, label: str) -> None:
        if not ok:
            self.failures.append(label)

    def expect_verdict(self, report, expected: str, label: str) -> None:
        if report.verdict == UNKNOWN:
            self.unknowns.append(f"{label} (budget exhausted)")
        else:
            self.expect(report.verdict == expected, label)

    def expect_necessary(
        self, image: DigitalImage, within, members, budget, name: str
    ) -> Dict[int, VerificationReport]:
        """Expect within minus {x} not to freeze the image, for each x of
        members; returns each deletion's report by x."""
        kept = list(within)
        reports = {}
        for x in members:
            reports[x] = is_freezing(image, [y for y in kept if y != x], budget)
            self.expect_verdict(reports[x], FAILS, f"{name}: vertex {x} is necessary")
        return reports

    def outcome(self, ok_detail: str) -> Tuple[str, str]:
        if self.failures:
            return FAIL, "; ".join(self.failures[:4])
        if self.unknowns:
            return UNKNOWN, "; ".join(self.unknowns[:4])
        return PASS, ok_detail


# -- shared fixtures ----------------------------------------------------------


def _cycle(m: int) -> DigitalImage:
    return build.simple_closed_curve(m).image


def _small_bases() -> List[Tuple[str, DigitalImage]]:
    bases: List[Tuple[str, DigitalImage]] = [
        (f"cycle-{m}", _cycle(m)) for m in range(4, 9)
    ]
    bases.append(("interval-[0,3]", build.interval(0, 3).image))
    bases.append(("box-[2,2]-c1", build.box([2, 2], 1).image))
    bases.append(("box-[2,2]-c2", build.box([2, 2], 2).image))
    bases.append(("box-[3,2]-c1", build.box([3, 2], 1).image))
    return bases


# -- the independent oracle ----------------------------------------------------


def _limits(prop: str, params: Dict[str, int]) -> Tuple[int, int]:
    """The (m, n) of a query: freezing is (0,0)-limiting, s-cold (0,s)."""
    if prop == "freezing":
        return 0, 0
    if prop == "s_cold":
        return 0, params["s"]
    if prop == "limiting":
        return params["m"], params["n"]
    raise ValueError(f"no (m, n) for property {prop!r}")


def naive_distances(image: DigitalImage) -> List[List[float]]:
    """All pairwise distances by Floyd–Warshall over `neighbors`, math.inf
    between components: the oracle's metric, apart from DigitalImage's."""
    n = image.n
    dist = [[0 if x == y else math.inf for y in range(n)] for x in range(n)]
    for x in range(n):
        for y in image.neighbors(x):
            dist[x][y] = 1
    for k in range(n):
        for x in range(n):
            for y in range(n):
                dist[x][y] = min(dist[x][y], dist[x][k] + dist[k][y])
    return dist


def naive_verdict(
    image: DigitalImage,
    prop: str,
    subset: Iterable[int],
    params: Optional[Dict[str, int]] = None,
) -> str:
    """Decide a freezing / s_cold / limiting query by plain enumeration.

    Each is an (m,n)-limiting query: is there a continuous map moving every
    member by at most m and some vertex by more than n?  Vertices are
    assigned in id order, candidates filtered only by continuity against
    already-assigned neighbors; no bitsets, no ordering heuristics, no
    propagation.  Distances come from `naive_distances` (Floyd–Warshall),
    not from the engine's balls nor DigitalImage's rings.  Usable on small
    images only.
    """
    m, radius = _limits(prop, params or {})
    n = image.n
    members = set(subset)
    dm = naive_distances(image)
    domains = [
        [v for v in range(n) if dm[x][v] <= m] if x in members else list(range(n))
        for x in range(n)
    ]
    escape = [{v for v in range(n) if dm[x][v] > radius} for x in range(n)]
    assignment: List[int] = [0] * n

    def rec(x: int) -> bool:
        if x == n:
            return any(assignment[v] in escape[v] for v in range(n))
        for v in domains[x]:
            ok = True
            for y in image.neighbors(x):
                if y < x:
                    fy = assignment[y]
                    if v != fy and (1 << fy) & image.closed_neighborhood_bits(v) == 0:
                        ok = False
                        break
            if ok:
                assignment[x] = v
                if rec(x + 1):
                    return True
        return False

    return FAILS if rec(0) else HOLDS


# -- rows ----------------------------------------------------------------------


def row_cone_freezing(scale, budget, seed) -> Tuple[str, str]:
    checks = _Checks()
    for name, base in _small_bases():
        if not build.satisfies_not_small(base):
            continue
        cx = build.cone(base)
        base_ids = sorted(cx.set_named("X_base"))
        checks.expect_verdict(
            is_freezing(cx.image, base_ids, budget),
            HOLDS,
            f"{name}: base freezes the cone",
        )
        checks.expect_necessary(cx.image, base_ids, base_ids, budget, f"{name} base")
    return checks.outcome("base is a minimal freezing set for each cone")


def row_suspension_transfer(scale, budget, seed) -> Tuple[str, str]:
    checks = _Checks()
    base = build.interval(0, 3)
    sx = build.suspension(base.image)
    u = min(sx.set_named("U"))
    low = min(sx.set_named("L"))
    endpoints = sorted(base.set_named("corners"))
    checks.expect_verdict(
        is_minimal_freezing(sx.image, endpoints + [u, low], budget),
        HOLDS,
        "endpoints + poles are minimal freezing for the suspension",
    )
    checks.expect_verdict(
        is_freezing(sx.image, [endpoints[0], u, low], budget),
        FAILS,
        "a non-freezing base set stays non-freezing with poles added",
    )
    return checks.outcome("freezing transfers across the suspension")


def row_poles_necessity(scale, budget, seed) -> Tuple[str, str]:
    checks = _Checks()
    for m in range(4, 9):
        sx = build.suspension(_cycle(m))
        u = min(sx.set_named("U"))
        low = min(sx.set_named("L"))
        omitted = checks.expect_necessary(
            sx.image, range(sx.image.n), [u, low], budget, f"S cycle-{m}"
        )
        for pole, other in ((u, low), (low, u)):
            witness = omitted[pole].witness
            if witness is not None:
                checks.expect(
                    witness.assignment[pole] == other,
                    f"S cycle-{m}: the witness sends pole {pole} to {other}",
                )
    return checks.outcome("both poles belong to every freezing set of SX")


def row_diameter(scale, budget, seed) -> Tuple[str, str]:
    checks = _Checks()
    for name, base in _small_bases():
        checks.expect(
            build.cone(base).image.diameter() <= 2, f"diam(C {name}) <= 2"
        )
        checks.expect(
            build.suspension(base).image.diameter() <= 2, f"diam(S {name}) <= 2"
        )
    return checks.outcome("cones and suspensions have diameter at most 2")


def row_dominating_bound(scale, budget, seed) -> Tuple[str, str]:
    checks = _Checks()
    images = [
        ("cycle-8", _cycle(8)),
        ("box-[2,2]-c1", build.box([2, 2], 1).image),
        ("cone-cycle-6", build.cone(_cycle(6)).image),
    ]
    rng = random.Random(seed)
    for name, image in images:
        dominating: List[List[int]] = [list(range(image.n))]
        while len(dominating) < 12:
            cand = [x for x in range(image.n) if rng.random() < 0.5]
            if cand and image.is_dominating(cand):
                dominating.append(cand)
        maps = [random_continuous_map(image, (), seed=seed + k) for k in range(200)]
        for f in maps:
            full = max_displacement(f)
            for d_set in dominating:
                bound = max_displacement(f, d_set) + 2
                if full > bound:
                    checks.expect(False, f"{name}: displacement bound violated")
                    break
    return checks.outcome("f is an (m+2)-map whenever f|D is an m-map on a dominating D")


def row_pyramid(scale, budget, seed) -> Tuple[str, str]:
    checks = _Checks()
    for n in range(1, scale + 1):
        p = build.pyramid(n)
        ring = sorted(p.set_named(f"T_{n}"))
        checks.expect_verdict(
            is_minimal_freezing(p.image, ring, budget),
            HOLDS,
            f"P_{n}: T_{n} is minimal freezing",
        )
        checks.expect_necessary(p.image, range(p.image.n), ring, budget, f"P_{n}")
    return checks.outcome("the base ring is the only minimal freezing set")


def row_solid_pyramid(scale, budget, seed) -> Tuple[str, str]:
    checks = _Checks()
    for n in range(1, scale + 1):
        q = build.solid_pyramid(n)
        subset = sorted(q.set_named("U") | q.set_named(f"W_{n}"))
        checks.expect_verdict(
            is_minimal_freezing(q.image, subset, budget),
            HOLDS,
            f"Q_{n}: apex + base square is minimal freezing",
        )
        checks.expect_necessary(q.image, range(q.image.n), subset, budget, f"Q_{n}")
    return checks.outcome("apex plus base square is minimal freezing for each Q_n")


def row_bipyramid(scale, budget, seed) -> Tuple[str, str]:
    checks = _Checks()
    for n in range(1, scale + 1):
        h = build.bipyramid(n)
        subset = sorted(h.set_named("U") | h.set_named("L") | h.set_named(f"T_{n}"))
        checks.expect_verdict(
            is_freezing(h.image, subset, budget),
            HOLDS,
            f"H_{n}: poles + equator freeze the bipyramid",
        )
    return checks.outcome("poles plus the equator ring freeze each H_n")


def row_solid_bipyramid(scale, budget, seed) -> Tuple[str, str]:
    checks = _Checks()
    for n in range(1, scale + 1):
        k = build.solid_bipyramid(n)
        subset = sorted(k.set_named("U") | k.set_named("L") | k.set_named(f"T_{n}"))
        checks.expect_verdict(
            is_minimal_freezing(k.image, subset, budget),
            HOLDS,
            f"K_{n}: poles + equator ring is minimal freezing",
        )
    return checks.outcome("poles plus the equator ring is minimal freezing for each K_n")


def row_box_theorems(scale, budget, seed) -> Tuple[str, str]:
    checks = _Checks()
    b2 = build.box([2, 2], 1)
    checks.expect_verdict(
        is_freezing(b2.image, sorted(b2.set_named("corners")), budget),
        HOLDS,
        "corners freeze [0,2]^2 under c_1",
    )
    b3 = build.box([2, 2, 2], 1)
    checks.expect_verdict(
        is_freezing(b3.image, sorted(b3.set_named("corners")), budget),
        HOLDS,
        "corners freeze [0,2]^3 under c_1",
    )
    b2c2 = build.box([2, 2], 2)
    checks.expect_verdict(
        is_minimal_freezing(b2c2.image, sorted(b2c2.set_named("Bd")), budget),
        HOLDS,
        "Bd is minimal freezing for [0,2]^2 under c_2",
    )
    return checks.outcome("box corner and boundary freezing theorems hold")


def row_cold_limiting(scale, budget, seed) -> Tuple[str, str]:
    checks = _Checks()
    for m in range(4, 9):
        cx = build.cone(_cycle(m))
        base = sorted(cx.set_named("X_base"))
        u = min(cx.set_named("U"))
        with_u = enumerate_continuous_self_maps(cx.image, base, budget=budget)
        plus = enumerate_continuous_self_maps(cx.image, base + [u], budget=budget)
        checks.expect(
            with_u.exact and plus.exact and with_u.count == plus.count == 1,
            f"cone cycle-{m}: every map fixing the base fixes the apex",
        )
        checks.expect_verdict(
            is_limiting(
                cx.image, [x for x in range(cx.image.n) if x != u], 1, 1, budget
            ),
            HOLDS,
            f"cone cycle-{m}: the apex is redundant in (1,1)-limiting sets",
        )
        sx = build.suspension(_cycle(m))
        su = min(sx.set_named("U"))
        sl = min(sx.set_named("L"))
        sbase = sorted(sx.set_named("X_base"))
        base_fixers = enumerate_continuous_self_maps(sx.image, sbase, budget=budget)
        checks.expect(
            base_fixers.exact and base_fixers.count == 4,
            f"suspension cycle-{m}: base-fixing maps keep both poles on poles",
        )
        limit = is_limiting(
            sx.image, [x for x in range(sx.image.n) if x != su], 1, 1, budget
        )
        checks.expect_verdict(
            limit, FAILS, f"suspension cycle-{m}: dropping U breaks (1,1)-limiting"
        )
        if limit.witness is not None:
            checks.expect(
                max_displacement(limit.witness) == 2
                and limit.witness.assignment[su] == sl,
                f"suspension cycle-{m}: witness displaces U exactly 2 (to L)",
            )
    return checks.outcome("cold and limiting pole theorems hold on cycle bases")


def _oracle_queries() -> List[Tuple[str, DigitalImage, str, List[int], Dict[str, int]]]:
    queries = []
    for m in range(4, 9):
        cx = build.cone(_cycle(m))
        base = sorted(cx.set_named("X_base"))
        queries.append((f"cone-{m} base", cx.image, "freezing", base, {}))
        queries.append((f"cone-{m} base-1", cx.image, "freezing", base[1:], {}))
        sx = build.suspension(_cycle(m))
        sbase = sorted(sx.set_named("X_base"))
        su = min(sx.set_named("U"))
        sl = min(sx.set_named("L"))
        queries.append(
            (f"susp-{m} full", sx.image, "freezing", sbase + [su, sl], {})
        )
        queries.append((f"susp-{m} 0-cold", sx.image, "s_cold", sbase, {"s": 0}))
        queries.append(
            (
                f"susp-{m} limiting",
                sx.image,
                "limiting",
                [x for x in range(sx.image.n) if x != su],
                {"m": 1, "n": 1},
            )
        )
    b2 = build.box([2, 2], 1)
    queries.append(("box c1 corners", b2.image, "freezing", sorted(b2.set_named("corners")), {}))
    queries.append(("box c1 Bd", b2.image, "freezing", sorted(b2.set_named("Bd")), {}))
    queries.append(("box c1 corners 1-cold", b2.image, "s_cold", sorted(b2.set_named("corners")), {"s": 1}))
    b2c2 = build.box([2, 2], 2)
    bd = sorted(b2c2.set_named("Bd"))
    queries.append(("box c2 Bd", b2c2.image, "freezing", bd, {}))
    queries.append(("box c2 Bd-1", b2c2.image, "freezing", bd[1:], {}))
    p1 = build.pyramid(1)
    t1 = sorted(p1.set_named("T_1"))
    queries.append(("P_1 ring", p1.image, "freezing", t1, {}))
    queries.append(("P_1 ring-1", p1.image, "freezing", t1[1:], {}))
    q1 = build.solid_pyramid(1)
    queries.append(("Q_1 base only", q1.image, "freezing", sorted(q1.set_named("W_1")), {}))
    h1 = build.bipyramid(1)
    queries.append(
        (
            "H_1 poles+ring",
            h1.image,
            "freezing",
            sorted(h1.set_named("U") | h1.set_named("L") | h1.set_named("T_1")),
            {},
        )
    )
    k1 = build.solid_bipyramid(1)
    full = sorted(k1.set_named("U") | k1.set_named("L") | k1.set_named("T_1"))
    queries.append(("K_1 poles+ring", k1.image, "freezing", full, {}))
    queries.append(
        (
            "K_1 no lower pole",
            k1.image,
            "freezing",
            sorted(k1.set_named("U") | k1.set_named("T_1")),
            {},
        )
    )
    return queries


def row_oracle_equivalence(scale, budget, seed) -> Tuple[str, str]:
    checks = _Checks()
    for label, image, prop, subset, params in _oracle_queries():
        checks.expect_verdict(
            is_limiting(image, subset, *_limits(prop, params), budget),
            naive_verdict(image, prop, subset, params),
            label,
        )
    return checks.outcome("engine verdicts match plain enumeration on every query")


def _lattice_symmetries(image: DigitalImage) -> List[Mapping]:
    """The automorphisms of a lattice image among the signed coordinate
    permutations of its bounding box: those that map the point set onto
    itself and that `is_isomorphism` accepts."""
    index = {p: i for i, p in enumerate(image.coords)}
    lo, hi = zip(*[(min(c), max(c)) for c in zip(*index)])
    d = len(lo)
    found = []
    for perm, flips in product(permutations(range(d)), product((False, True), repeat=d)):
        moved = [
            tuple(
                hi[k] - (p[j] - lo[j]) if flip else lo[k] + (p[j] - lo[j])
                for k, (j, flip) in enumerate(zip(perm, flips))
            )
            for p in image.coords
        ]
        if all(q in index for q in moved):
            f = Mapping(image, image, tuple(index[q] for q in moved))
            if is_isomorphism(f):
                found.append(f)
    return found


def row_invariance(scale, budget, seed) -> Tuple[str, str]:
    checks = _Checks()
    b2 = build.box([2, 2], 1)
    corners = sorted(b2.set_named("corners"))
    p2 = build.pyramid(2)
    ring = sorted(p2.set_named("T_2"))
    partial = [x for x in ring if p2.image.coords[x] != (2, 2, 0)]
    cases = [
        ("box", b2.image, [corners, corners[1:], sorted(b2.set_named("Bd"))], [corners]),
        ("pyramid", p2.image, [ring, partial], []),
    ]
    for name, image, freezing_sets, cold_sets in cases:
        symmetries = _lattice_symmetries(image)
        checks.expect(len(symmetries) == 8, f"{name}: 8 symmetries found")
        for idx, iso in enumerate(symmetries):
            for prop, decide, subsets in (
                ("freezing", lambda s: is_freezing(image, s, budget), freezing_sets),
                ("cold", lambda s: is_s_cold(image, s, 1, budget), cold_sets),
            ):
                for subset in subsets:
                    moved = sorted(push_forward(subset, iso))
                    checks.expect(
                        decide(subset).verdict == decide(moved).verdict,
                        f"{name} symmetry {idx} preserves {prop} verdicts",
                    )
    return checks.outcome("freezing and cold verdicts are isomorphism-invariant")


ROWS: List[Tuple[int, str, Callable]] = [
    (1, "Cone freezing: the base is a minimal freezing set", row_cone_freezing),
    (2, "Suspension transfer of (minimal) freezing sets", row_suspension_transfer),
    (3, "Both poles are necessary in suspension freezing sets", row_poles_necessity),
    (4, "Cone/suspension diameter at most 2", row_diameter),
    (5, "Dominating-set displacement bound (m -> m+2)", row_dominating_bound),
    (6, "Pyramid: base ring is the only minimal freezing set", row_pyramid),
    (7, "Solid pyramid: apex + base square minimal freezing", row_solid_pyramid),
    (8, "Bipyramid: poles + equator ring freeze", row_bipyramid),
    (9, "Solid bipyramid: poles + equator ring minimal freezing", row_solid_bipyramid),
    (10, "Box corners / boundary freezing theorems", row_box_theorems),
    (11, "Cold and (1,1)-limiting pole theorems", row_cold_limiting),
    (12, "Engine verdicts match the naive oracle on every query", row_oracle_equivalence),
    (13, "Verdicts invariant under image isomorphisms", row_invariance),
]


def run_suite(
    scale: int = 2,
    budget: SearchBudget = DEFAULT_BUDGET,
    seed: int = 0,
    only: Optional[Sequence[int]] = None,
) -> List[SuiteRow]:
    if scale not in (1, 2):
        raise ValueError("scale must be 1 or 2")
    rows: List[SuiteRow] = []
    for number, title, fn in ROWS:
        if only is not None and number not in only:
            continue
        t0 = time.monotonic()
        try:
            status, detail = fn(scale, budget, seed)
        except TimeoutError as exc:
            status, detail = "unknown", str(exc)
        rows.append(
            SuiteRow(number, title, status, detail, (time.monotonic() - t0) * 1000)
        )
    return rows
