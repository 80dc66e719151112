"""The theorem-instance suite: one row per acceptance check, decided exactly.

Each row replays a general theorem at desk scale (n = 1 or 2).  A theorem
instance is one claim, (label, image, members, property, params, expected):
a named set of an image is or is not freezing, s-cold, (m,n)-limiting or
minimal freezing.  Generators yield each row's claims, and `_table_row` makes
the row that asks them through `_ask`.  `_ask` calls the decider a property
names, read as this module's global at call time, so a patched decider
reaches every row that asks it.  Expected None means "whatever
`naive_verdict` says": row 12 cross-checks the engine against that plain
enumerator, kept independent of the bitset search.  Rows 3, 11 and 13 add
their own checks on the reports of the claims they ask.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from functools import partial
from itertools import permutations, product
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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


# One theorem instance: (label, image, members, prop, params, expected).  The
# members of image have prop (freezing, s_cold, limiting or minimal_freezing)
# with params iff expected is HOLDS; None expects what `naive_verdict` says.
_Claim = Tuple[str, DigitalImage, List[int], str, Dict[str, int], Optional[str]]


def _ask(image, members, prop, params, budget) -> VerificationReport:
    """The one call from the suite to a decider: the one prop names."""
    if prop == "freezing":
        return is_freezing(image, members, budget)
    if prop == "s_cold":
        return is_s_cold(image, members, params["s"], budget)
    if prop == "limiting":
        return is_limiting(image, members, params["m"], params["n"], budget)
    if prop == "minimal_freezing":
        return is_minimal_freezing(image, members, budget)
    raise ValueError(f"no decider for property {prop!r}")


class _Checks:
    """Accumulates expectations; any False fails the row, and any verdict
    left unknown makes it unknown."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.unknowns: List[str] = []

    def expect(self, ok: bool, label: str) -> None:
        if not ok:
            self.failures.append(label)

    def ask(self, claim: _Claim, budget: SearchBudget) -> VerificationReport:
        """Ask claim and expect its verdict; returns the report."""
        label, image, members, prop, params, expected = claim
        report = _ask(image, members, prop, params, budget)
        if expected is None:
            expected = naive_verdict(image, prop, members, params)
        if report.verdict == UNKNOWN:
            self.unknowns.append(f"{label} (budget exhausted)")
        else:
            self.expect(report.verdict == expected, label)
        return report

    def outcome(self, ok_detail: str) -> Tuple[str, str]:
        if self.failures:
            return FAIL, "; ".join(self.failures[:4])
        if self.unknowns:
            return UNKNOWN, "; ".join(self.unknowns[:4])
        return PASS, ok_detail


def _table_row(claims: Callable[[int], Iterable[_Claim]], ok_detail: str) -> Callable:
    """The suite row that asks every claim claims(scale) yields."""

    def row(scale, budget, seed) -> Tuple[str, str]:
        checks = _Checks()
        for claim in claims(scale):
            checks.ask(claim, budget)
        return checks.outcome(ok_detail)

    return row


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


def _named(c: build.NamedComplex, *names: str) -> List[int]:
    """The sorted union of c's named sets."""
    return sorted(set().union(*(c.set_named(name) for name in names)))


def _all_but(image: DigitalImage, x: int) -> List[int]:
    return [y for y in range(image.n) if y != x]


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


# -- claim generators ---------------------------------------------------------


def _necessary(name: str, image: DigitalImage, within, members) -> Iterator[_Claim]:
    """For each x of members: within minus {x} does not freeze image."""
    kept = list(within)
    for x in members:
        rest = [y for y in kept if y != x]
        yield (f"{name}: vertex {x} is necessary", image, rest, "freezing", {}, FAILS)


def _cone_claims(scale: int) -> Iterator[_Claim]:
    for name, base in _small_bases():
        if build.satisfies_not_small(base):
            cx = build.cone(base)
            ids = _named(cx, "X_base")
            yield (f"{name}: base freezes the cone", cx.image, ids, "freezing", {}, HOLDS)
            yield from _necessary(f"{name} base", cx.image, ids, ids)


def _suspension_claims(scale: int) -> Iterator[_Claim]:
    base = build.interval(0, 3)
    sx = build.suspension(base.image)
    poles = _named(sx, "U", "L")
    ends = _named(base, "corners")
    label = "endpoints + poles are minimal freezing for the suspension"
    yield (label, sx.image, ends + poles, "minimal_freezing", {}, HOLDS)
    label = "a non-freezing base set stays non-freezing with poles added"
    yield (label, sx.image, ends[:1] + poles, "freezing", {}, FAILS)


def _pyramid_claims(builder, letter, sets, prop, necessity, what, scale) -> Iterator[_Claim]:
    """Claims on builder(n), n = 1..scale: the union of the named sets has
    prop and, if necessity, needs each member to freeze.  "{n}" in a set
    name or in what stands for n."""
    for n in range(1, scale + 1):
        c = builder(n)
        members = _named(c, *(name.format(n=n) for name in sets))
        yield (f"{letter}_{n}: {what.format(n=n)}", c.image, members, prop, {}, HOLDS)
        if necessity:
            yield from _necessary(f"{letter}_{n}", c.image, range(c.image.n), members)


def _box_claims(scale: int) -> Iterator[_Claim]:
    for extents, u, name, prop, label in (
        ([2, 2], 1, "corners", "freezing", "corners freeze [0,2]^2 under c_1"),
        ([2, 2, 2], 1, "corners", "freezing", "corners freeze [0,2]^3 under c_1"),
        ([2, 2], 2, "Bd", "minimal_freezing", "Bd is minimal freezing for [0,2]^2 under c_2"),
    ):
        b = build.box(extents, u)
        yield (label, b.image, _named(b, name), prop, {}, HOLDS)


def _oracle_claims(scale: int) -> Iterator[_Claim]:
    """Queries small enough for `naive_verdict`, each expected to get its
    answer."""
    for m in range(4, 9):
        cx = build.cone(_cycle(m))
        base = _named(cx, "X_base")
        yield (f"cone-{m} base", cx.image, base, "freezing", {}, None)
        yield (f"cone-{m} base-1", cx.image, base[1:], "freezing", {}, None)
        sx = build.suspension(_cycle(m))
        yield (f"susp-{m} full", sx.image, _named(sx, "X_base", "U", "L"), "freezing", {}, None)
        yield (f"susp-{m} 0-cold", sx.image, _named(sx, "X_base"), "s_cold", {"s": 0}, None)
        no_u = _all_but(sx.image, min(sx.set_named("U")))
        yield (f"susp-{m} limiting", sx.image, no_u, "limiting", {"m": 1, "n": 1}, None)
    b2 = build.box([2, 2], 1)
    corners = _named(b2, "corners")
    yield ("box c1 corners", b2.image, corners, "freezing", {}, None)
    yield ("box c1 Bd", b2.image, _named(b2, "Bd"), "freezing", {}, None)
    yield ("box c1 corners 1-cold", b2.image, corners, "s_cold", {"s": 1}, None)
    shrunk = (("box c2 Bd", build.box([2, 2], 2), "Bd"), ("P_1 ring", build.pyramid(1), "T_1"))
    for label, c, name in shrunk:
        members = _named(c, name)
        yield (label, c.image, members, "freezing", {}, None)
        yield (f"{label}-1", c.image, members[1:], "freezing", {}, None)
    q1 = build.solid_pyramid(1)
    yield ("Q_1 base only", q1.image, _named(q1, "W_1"), "freezing", {}, None)
    h1 = build.bipyramid(1)
    yield ("H_1 poles+ring", h1.image, _named(h1, "U", "L", "T_1"), "freezing", {}, None)
    k1 = build.solid_bipyramid(1)
    yield ("K_1 poles+ring", k1.image, _named(k1, "U", "L", "T_1"), "freezing", {}, None)
    yield ("K_1 no lower pole", k1.image, _named(k1, "U", "T_1"), "freezing", {}, None)


# Rows 6-9: builder, letter, named sets and property of the claimed set,
# whether each member is claimed necessary, the claim, and the row's detail.
_PYRAMID_ROWS = [
    (build.pyramid, "P", ["T_{n}"], "minimal_freezing", True,
     "T_{n} is minimal freezing", "the base ring is the only minimal freezing set"),
    (build.solid_pyramid, "Q", ["U", "W_{n}"], "minimal_freezing", True,
     "apex + base square is minimal freezing",
     "apex plus base square is minimal freezing for each Q_n"),
    (build.bipyramid, "H", ["U", "L", "T_{n}"], "freezing", False,
     "poles + equator freeze the bipyramid", "poles plus the equator ring freeze each H_n"),
    (build.solid_bipyramid, "K", ["U", "L", "T_{n}"], "minimal_freezing", False,
     "poles + equator ring is minimal freezing",
     "poles plus the equator ring is minimal freezing for each K_n"),
]
row_pyramid, row_solid_pyramid, row_bipyramid, row_solid_bipyramid = [
    _table_row(partial(_pyramid_claims, *entry[:-1]), entry[-1])
    for entry in _PYRAMID_ROWS
]


def row_poles_necessity(scale, budget, seed) -> Tuple[str, str]:
    checks = _Checks()
    for m in range(4, 9):
        sx = build.suspension(_cycle(m))
        u = min(sx.set_named("U"))
        low = min(sx.set_named("L"))
        claims = _necessary(f"S cycle-{m}", sx.image, range(sx.image.n), [u, low])
        for claim, pole, other in zip(claims, (u, low), (low, u)):
            witness = checks.ask(claim, budget).witness
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


def row_cold_limiting(scale, budget, seed) -> Tuple[str, str]:
    checks = _Checks()
    for m in range(4, 9):
        cx = build.cone(_cycle(m))
        base = _named(cx, "X_base")
        u = min(cx.set_named("U"))
        with_u = enumerate_continuous_self_maps(cx.image, base, budget=budget)
        plus = enumerate_continuous_self_maps(cx.image, base + [u], budget=budget)
        checks.expect(
            with_u.exact and plus.exact and with_u.count == plus.count == 1,
            f"cone cycle-{m}: every map fixing the base fixes the apex",
        )
        label = f"cone cycle-{m}: the apex is redundant in (1,1)-limiting sets"
        claim = (label, cx.image, _all_but(cx.image, u), "limiting", {"m": 1, "n": 1}, HOLDS)
        checks.ask(claim, budget)
        sx = build.suspension(_cycle(m))
        su = min(sx.set_named("U"))
        sl = min(sx.set_named("L"))
        base_fixers = enumerate_continuous_self_maps(sx.image, _named(sx, "X_base"), budget=budget)
        checks.expect(
            base_fixers.exact and base_fixers.count == 4,
            f"suspension cycle-{m}: base-fixing maps keep both poles on poles",
        )
        label = f"suspension cycle-{m}: dropping U breaks (1,1)-limiting"
        claim = (label, sx.image, _all_but(sx.image, su), "limiting", {"m": 1, "n": 1}, FAILS)
        witness = checks.ask(claim, budget).witness
        if witness is not None:
            checks.expect(
                max_displacement(witness) == 2 and witness.assignment[su] == sl,
                f"suspension cycle-{m}: witness displaces U exactly 2 (to L)",
            )
    return checks.outcome("cold and limiting pole theorems hold on cycle bases")


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
    corners = _named(b2, "corners")
    p2 = build.pyramid(2)
    ring = _named(p2, "T_2")
    ring_less = [x for x in ring if p2.image.coords[x] != (2, 2, 0)]
    freezing = [("freezing", {}, s) for s in (corners, corners[1:], _named(b2, "Bd"))]
    cases = [  # (image name, image, [(property, params, subset)])
        ("box", b2.image, freezing + [("s_cold", {"s": 1}, corners)]),
        ("pyramid", p2.image, [("freezing", {}, ring), ("freezing", {}, ring_less)]),
    ]
    for name, image, queries in cases:
        symmetries = _lattice_symmetries(image)
        checks.expect(len(symmetries) == 8, f"{name}: 8 symmetries found")
        for idx, iso in enumerate(symmetries):
            for prop, params, subset in queries:
                moved = sorted(push_forward(subset, iso))
                verdict = _ask(image, subset, prop, params, budget).verdict
                checks.expect(
                    verdict == _ask(image, moved, prop, params, budget).verdict,
                    f"{name} symmetry {idx} preserves {prop} verdicts",
                )
    return checks.outcome("freezing and cold verdicts are isomorphism-invariant")


ROWS: List[Tuple[int, str, Callable]] = [
    (1, "Cone freezing: the base is a minimal freezing set",
     _table_row(_cone_claims, "base is a minimal freezing set for each cone")),
    (2, "Suspension transfer of (minimal) freezing sets",
     _table_row(_suspension_claims, "freezing transfers across the suspension")),
    (3, "Both poles are necessary in suspension freezing sets", row_poles_necessity),
    (4, "Cone/suspension diameter at most 2", row_diameter),
    (5, "Dominating-set displacement bound (m -> m+2)", row_dominating_bound),
    (6, "Pyramid: base ring is the only minimal freezing set", row_pyramid),
    (7, "Solid pyramid: apex + base square minimal freezing", row_solid_pyramid),
    (8, "Bipyramid: poles + equator ring freeze", row_bipyramid),
    (9, "Solid bipyramid: poles + equator ring minimal freezing", row_solid_bipyramid),
    (10, "Box corners / boundary freezing theorems",
     _table_row(_box_claims, "box corner and boundary freezing theorems hold")),
    (11, "Cold and (1,1)-limiting pole theorems", row_cold_limiting),
    (12, "Engine verdicts match the naive oracle on every query",
     _table_row(_oracle_claims, "engine verdicts match plain enumeration on every query")),
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
