"""The theorem-instance suite: one row per acceptance check, decided exactly.

Each row replays a general theorem at desk scale: the pyramid rows 6-9 ask
n = 1..scale, for a scale from 1 to 8, and the other rows ignore the scale.
A row is a generator of checks, run by `_row`.  A check is a claim or a
fact.  A claim, (label, image, members, property, params, expected), says
that a named set of an image is or is not freezing, s-cold, (m,n)-limiting
or minimal freezing.  A fact, (label, ok), is one the row computes itself.
`_row` asks each claim through `_ask` and sends the report back into the
generator, so a row checks a witness with `(yield claim).witness`.  `_ask`
calls the decider a property names, read as this module's global at call
time, so a patched decider reaches every row that asks it.  Expected None
means "whatever `naive_verdict` says": row 12 cross-checks the engine
against that plain enumerator, kept independent of the bitset search.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from itertools import permutations, product
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import constructions as build
from .graph import DigitalImage, bits
from .maps import Mapping, is_isomorphism, max_displacement, push_forward
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


def _row(checks: Callable[[int, SearchBudget], Iterator], ok_detail: str) -> Callable:
    """The suite row that runs the generator checks(scale, budget): it sends
    each claim's report back, and None for a fact.  A false fact or a wrong
    verdict fails the row; else any verdict left unknown makes it unknown."""

    def row(scale: int, budget: SearchBudget) -> Tuple[str, str]:
        failures: List[str] = []
        unknowns: List[str] = []
        row_checks = checks(scale, budget)
        report = None
        while True:
            try:
                check = row_checks.send(report)
            except StopIteration:
                break
            if len(check) == 2:
                label, ok = check
                report = None
            else:
                label, image, members, prop, params, expected = check
                report = _ask(image, members, prop, params, budget)
                if expected is None:
                    expected = naive_verdict(image, prop, members, params)
                if report.verdict == UNKNOWN:
                    unknowns.append(f"{label} (budget exhausted)")
                ok = report.verdict in (expected, UNKNOWN)
            if not ok:
                failures.append(label)
        if failures:
            return FAIL, "; ".join(failures[:4])
        if unknowns:
            return UNKNOWN, "; ".join(unknowns[:4])
        return PASS, ok_detail

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


def _cone_claims(scale: int, budget: SearchBudget) -> Iterator[_Claim]:
    for name, base in _small_bases():
        if build.satisfies_not_small(base):
            cx = build.cone(base)
            ids = _named(cx, "X_base")
            yield (f"{name}: base freezes the cone", cx.image, ids, "freezing", {}, HOLDS)
            yield from _necessary(f"{name} base", cx.image, ids, ids)


def _suspension_claims(scale: int, budget: SearchBudget) -> Iterator[_Claim]:
    base = build.interval(0, 3)
    sx = build.suspension(base.image)
    poles = _named(sx, "U", "L")
    ends = _named(base, "corners")
    label = "endpoints + poles are minimal freezing for the suspension"
    yield (label, sx.image, ends + poles, "minimal_freezing", {}, HOLDS)
    label = "a non-freezing base set stays non-freezing with poles added"
    yield (label, sx.image, ends[:1] + poles, "freezing", {}, FAILS)


def _pyramid_claims(
    builder, letter, sets, prop, necessity, what, scale, budget
) -> Iterator[_Claim]:
    """Claims on builder(n), n = 1..scale: the union of the named sets has
    prop and, if necessity, needs each member to freeze.  "{n}" in a set
    name or in what stands for n."""
    for n in range(1, scale + 1):
        c = builder(n)
        members = _named(c, *(name.format(n=n) for name in sets))
        yield (f"{letter}_{n}: {what.format(n=n)}", c.image, members, prop, {}, HOLDS)
        if necessity:
            yield from _necessary(f"{letter}_{n}", c.image, range(c.image.n), members)


def _box_claims(scale: int, budget: SearchBudget) -> Iterator[_Claim]:
    for extents, u, name, prop, label in (
        ([2, 2], 1, "corners", "freezing", "corners freeze [0,2]^2 under c_1"),
        ([2, 2, 2], 1, "corners", "freezing", "corners freeze [0,2]^3 under c_1"),
        ([2, 2], 2, "Bd", "minimal_freezing", "Bd is minimal freezing for [0,2]^2 under c_2"),
    ):
        b = build.box(extents, u)
        yield (label, b.image, _named(b, name), prop, {}, HOLDS)


def _oracle_claims(scale: int, budget: SearchBudget) -> Iterator[_Claim]:
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
    _row(partial(_pyramid_claims, *entry[:-1]), entry[-1])
    for entry in _PYRAMID_ROWS
]


def _poles_checks(scale: int, budget: SearchBudget) -> Iterator:
    for m in range(4, 9):
        sx = build.suspension(_cycle(m))
        u = min(sx.set_named("U"))
        low = min(sx.set_named("L"))
        claims = _necessary(f"S cycle-{m}", sx.image, range(sx.image.n), [u, low])
        for claim, pole, other in zip(claims, (u, low), (low, u)):
            witness = (yield claim).witness
            if witness is not None:
                label = f"S cycle-{m}: the witness sends pole {pole} to {other}"
                yield label, witness.assignment[pole] == other


def _diameter_facts(scale: int, budget: SearchBudget) -> Iterator[Tuple[str, bool]]:
    for name, base in _small_bases():
        yield f"diam(C {name}) <= 2", build.cone(base).image.diameter() <= 2
        yield f"diam(S {name}) <= 2", build.suspension(base).image.diameter() <= 2


def _dominating_claims(scale: int, budget: SearchBudget) -> Iterator[_Claim]:
    """If f|D is an m-map for a dominating D, f is an (m+2)-map: every
    dominating set of each image is (m, m+2)-limiting, for m = 0 and 1.  A
    set that does not dominate need not be."""
    images = [
        ("cycle-8", _cycle(8)),
        ("box-[2,2]-c1", build.box([2, 2], 1).image),
        ("cone-cycle-6", build.cone(_cycle(6)).image),
    ]
    for name, image in images:
        for mask in range(1 << image.n):
            members = list(bits(mask))
            if image.is_dominating(members):
                for m in (0, 1):
                    label = f"{name}: dominating {members} is ({m},{m + 2})-limiting"
                    yield (label, image, members, "limiting", {"m": m, "n": m + 2}, HOLDS)
    label = "cycle-8: the non-dominating [0, 4] is not (0,2)-limiting"
    yield (label, _cycle(8), [0, 4], "limiting", {"m": 0, "n": 2}, FAILS)


def _cold_limiting_checks(scale: int, budget: SearchBudget) -> Iterator:
    for m in range(4, 9):
        cx = build.cone(_cycle(m))
        base = _named(cx, "X_base")
        u = min(cx.set_named("U"))
        with_u = enumerate_continuous_self_maps(cx.image, base, budget=budget)
        plus = enumerate_continuous_self_maps(cx.image, base + [u], budget=budget)
        label = f"cone cycle-{m}: every map fixing the base fixes the apex"
        yield label, with_u.exact and plus.exact and with_u.count == plus.count == 1
        label = f"cone cycle-{m}: the apex is redundant in (1,1)-limiting sets"
        yield (label, cx.image, _all_but(cx.image, u), "limiting", {"m": 1, "n": 1}, HOLDS)
        sx = build.suspension(_cycle(m))
        su = min(sx.set_named("U"))
        sl = min(sx.set_named("L"))
        base_fixers = enumerate_continuous_self_maps(sx.image, _named(sx, "X_base"), budget=budget)
        label = f"suspension cycle-{m}: base-fixing maps keep both poles on poles"
        yield label, base_fixers.exact and base_fixers.count == 4
        label = f"suspension cycle-{m}: dropping U breaks (1,1)-limiting"
        claim = (label, sx.image, _all_but(sx.image, su), "limiting", {"m": 1, "n": 1}, FAILS)
        witness = (yield claim).witness
        if witness is not None:
            label = f"suspension cycle-{m}: witness displaces U exactly 2 (to L)"
            yield label, max_displacement(witness) == 2 and witness.assignment[su] == sl


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


def _invariance_checks(scale: int, budget: SearchBudget) -> Iterator:
    """Each set keeps its verdict when a symmetry of its image moves it."""
    b2 = build.box([2, 2], 1)
    corners = _named(b2, "corners")
    p2 = build.pyramid(2)
    ring = _named(p2, "T_2")
    ring_less = [x for x in ring if p2.image.coords[x] != (2, 2, 0)]
    cases = [  # (image name, image, [(set name, property, params, set, verdict)])
        ("box", b2.image, [
            ("corners", "freezing", {}, corners, HOLDS),
            ("corners[1:]", "freezing", {}, corners[1:], FAILS),
            ("Bd", "freezing", {}, _named(b2, "Bd"), HOLDS),
            ("corners", "s_cold", {"s": 1}, corners, HOLDS),
        ]),
        ("pyramid", p2.image, [
            ("T_2", "freezing", {}, ring, HOLDS),
            ("T_2 - (2,2,0)", "freezing", {}, ring_less, FAILS),
        ]),
    ]
    for name, image, sets in cases:
        symmetries = _lattice_symmetries(image)
        yield f"{name}: 8 symmetries found", len(symmetries) == 8
        for idx, iso in enumerate(symmetries):
            for set_name, prop, params, members, verdict in sets:
                label = f"{name} symmetry {idx} keeps the {prop} verdict of {set_name}"
                moved = sorted(push_forward(members, iso))
                yield (label, image, moved, prop, params, verdict)


ROWS: List[Tuple[int, str, Callable]] = [
    (1, "Cone freezing: the base is a minimal freezing set",
     _row(_cone_claims, "base is a minimal freezing set for each cone")),
    (2, "Suspension transfer of (minimal) freezing sets",
     _row(_suspension_claims, "freezing transfers across the suspension")),
    (3, "Both poles are necessary in suspension freezing sets",
     _row(_poles_checks, "both poles belong to every freezing set of SX")),
    (4, "Cone/suspension diameter at most 2",
     _row(_diameter_facts, "cones and suspensions have diameter at most 2")),
    (5, "Dominating-set displacement bound (m -> m+2)",
     _row(_dominating_claims, "f is an (m+2)-map whenever f|D is an m-map on a dominating D")),
    (6, "Pyramid: base ring is the only minimal freezing set", row_pyramid),
    (7, "Solid pyramid: apex + base square minimal freezing", row_solid_pyramid),
    (8, "Bipyramid: poles + equator ring freeze", row_bipyramid),
    (9, "Solid bipyramid: poles + equator ring minimal freezing", row_solid_bipyramid),
    (10, "Box corners / boundary freezing theorems",
     _row(_box_claims, "box corner and boundary freezing theorems hold")),
    (11, "Cold and (1,1)-limiting pole theorems",
     _row(_cold_limiting_checks, "cold and limiting pole theorems hold on cycle bases")),
    (12, "Engine verdicts match the naive oracle on every query",
     _row(_oracle_claims, "engine verdicts match plain enumeration on every query")),
    (13, "Verdicts invariant under image isomorphisms",
     _row(_invariance_checks, "freezing and cold verdicts are isomorphism-invariant")),
]


def run_suite(
    scale: int = 2,
    budget: SearchBudget = DEFAULT_BUDGET,
    only: Optional[Sequence[int]] = None,
) -> List[SuiteRow]:
    if not 1 <= scale <= 8:
        raise ValueError("scale must be an integer from 1 to 8")
    rows: List[SuiteRow] = []
    for number, title, fn in ROWS:
        if only is not None and number not in only:
            continue
        t0 = time.monotonic()
        try:
            status, detail = fn(scale, budget)
        except TimeoutError as exc:
            status, detail = "unknown", str(exc)
        rows.append(
            SuiteRow(number, title, status, detail, (time.monotonic() - t0) * 1000)
        )
    return rows
