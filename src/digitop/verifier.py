"""Exhaustive decision procedures for freezing, s-cold, (m,n)-limiting and
minimal-freezing queries.

All three properties reduce to one counterexample search: find a continuous
self-map f whose values stay inside per-vertex candidate sets (singletons for
pointwise-fixed vertices, displacement balls for bounded ones) such that some
vertex escapes its allowed displacement ball.  The search is a complete
depth-first assignment over bitset domains: arc-consistency propagation
(AC-3) to a fixpoint at every node, a viability check that cuts subtrees in
which no vertex can still escape, and branching on values in vertex-id order.

The paper's unique-path and pulling lemmas are not engine rules, because
the arc-consistency fixpoint already implies both:

  unique path  on a unique geodesic x = v_0..v_k = y with x and y fixed,
               dom(v_i) lies in B(x,i) ∩ B(y,k-i), which is {v_i};
  pulling      if x is pinned to v with v_i > x_i > y_i for a neighbour y,
               every point of N*(v) has coordinate i >= v_i - 1 >= x_i > y_i.

Exceeding the node or wall-clock budget yields the distinguished verdict
"unknown", never a guess.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .graph import DigitalImage, DisconnectedImageError
from .maps import Mapping, fixed_points, is_continuous, max_displacement

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"

FOUND = "found"
NONE = "none"


@dataclass(frozen=True)
class SearchBudget:
    """Node-count and wall-clock ceilings; exceeding either aborts to unknown."""

    max_nodes: int = 100_000_000
    max_millis: int = 120_000

    def __post_init__(self) -> None:
        if self.max_nodes < 1 or self.max_millis < 1:
            raise ValueError("budget ceilings must be positive")


DEFAULT_BUDGET = SearchBudget()


class _BudgetExceeded(Exception):
    pass


class _CapExceeded(Exception):
    pass


@dataclass
class SearchResult:
    status: str  # found | none | unknown
    witness: Optional[Mapping]
    nodes: int
    elapsed_ms: float
    stats: Dict[str, int]


@dataclass
class VerificationReport:
    property: str
    params: Dict[str, int]
    subset: FrozenSet[int]
    verdict: str  # holds | fails | unknown
    witness: Optional[Mapping]
    detail: Optional[str]
    nodes_expanded: int
    elapsed_ms: float
    pruning_stats: Dict[str, int]
    budget: SearchBudget = DEFAULT_BUDGET


@dataclass
class MapCount:
    count: int
    exact: bool  # False when the cap was exceeded


@dataclass
class MinimalSearchResult:
    status: str  # found | unknown
    members: Optional[FrozenSet[int]]
    nodes: int


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _SelfMapSearch:
    """Complete DFS over continuous self-maps with bitset domains."""

    def __init__(
        self,
        image: DigitalImage,
        domains: Sequence[int],
        escape: Optional[Sequence[int]],
        budget: SearchBudget,
        count_cap: Optional[int] = None,
    ) -> None:
        self.img = image
        self.n = image.n
        self.full = (1 << self.n) - 1
        self.domains0 = list(domains)
        self.escape = list(escape) if escape is not None else None
        self.budget = budget
        self.count_cap = count_cap
        self.count = 0
        self.nodes = 0
        # The benchmark reports one figure per key, so the key set is fixed.
        # unique_path_forced and pulling_filtered are always 0: arc
        # consistency implies both rules (see the module docstring).
        self.stats: Dict[str, int] = {
            "unique_path_forced": 0,
            "pulling_filtered": 0,
            "viability_pruned": 0,
            "wipeouts": 0,
        }
        self._union_memo: Dict[int, int] = {}
        anchors = [x for x in range(self.n) if self.domains0[x] != self.full]
        self._layer = self._bfs_layers(anchors)

    def _bfs_layers(self, anchors: List[int]) -> List[int]:
        layer = [self.n + 1] * self.n
        frontier = sorted(anchors) if anchors else ([0] if self.n else [])
        for x in frontier:
            layer[x] = 0
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for x in frontier:
                for y in self.img.neighbors(x):
                    if layer[y] > depth:
                        layer[y] = depth
                        nxt.append(y)
            frontier = nxt
        return layer

    # -- propagation -------------------------------------------------------

    def _union_nbhd(self, mask: int) -> int:
        cached = self._union_memo.get(mask)
        if cached is None:
            cached = 0
            for v in _bits(mask):
                cached |= self.img.closed_neighborhood_bits(v)
            self._union_memo[mask] = cached
        return cached

    def _propagate(self, dom: List[int], queue: List[int]) -> bool:
        """Arc consistency to fixpoint: dom(y) &= N*(dom(x)) along each edge."""
        while queue:
            x = queue.pop()
            dx = dom[x]
            if dx == 0:
                self.stats["wipeouts"] += 1
                return False
            allowed = self._union_nbhd(dx)
            for y in self.img.neighbors(x):
                ny = dom[y] & allowed
                if ny != dom[y]:
                    if ny == 0:
                        self.stats["wipeouts"] += 1
                        return False
                    dom[y] = ny
                    queue.append(y)
        return True

    def _viable(self, dom: List[int]) -> bool:
        """In counterexample mode: can any completion still escape?"""
        if self.escape is None:
            return True
        esc = self.escape
        for x in range(self.n):
            if dom[x] & esc[x]:
                return True
        self.stats["viability_pruned"] += 1
        return False

    # -- search ------------------------------------------------------------

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            raise _BudgetExceeded
        if self.nodes % 256 == 0:
            if (time.monotonic() - self._t0) * 1000 > self.budget.max_millis:
                raise _BudgetExceeded

    def _pick(self, dom: List[int]) -> Optional[int]:
        best = None
        best_key = None
        for x in range(self.n):
            dx = dom[x]
            if dx & (dx - 1):
                key = (self._layer[x], dx.bit_count(), x)
                if best_key is None or key < best_key:
                    best, best_key = x, key
        return best

    def _dfs(self, dom: List[int]) -> Optional[Tuple[int, ...]]:
        self._tick()
        if not self._viable(dom):
            return None
        x = self._pick(dom)
        if x is None:
            # Leaf: every domain is a singleton; AC fixpoint => continuous.
            if self.escape is None:
                self.count += 1
                if self.count_cap is not None and self.count > self.count_cap:
                    raise _CapExceeded
                return None
            assignment = tuple(d.bit_length() - 1 for d in dom)
            for v, e in zip(assignment, self.escape):
                if (1 << v) & e:
                    return assignment
            return None
        for v in _bits(dom[x]):
            nd = dom.copy()
            nd[x] = 1 << v
            if self._propagate(nd, [x]):
                res = self._dfs(nd)
                if res is not None:
                    return res
        return None

    def run(self) -> SearchResult:
        self._t0 = time.monotonic()
        status = NONE
        witness = None
        try:
            dom = list(self.domains0)
            if self._propagate(dom, list(range(self.n))):
                found = self._dfs(dom)
                if found is not None:
                    status = FOUND
                    witness = Mapping(self.img, self.img, found)
        except _BudgetExceeded:
            status = UNKNOWN
        except _CapExceeded:
            status = FOUND  # count cap exceeded; caller inspects .count
        elapsed = (time.monotonic() - self._t0) * 1000
        return SearchResult(status, witness, self.nodes, elapsed, dict(self.stats))


# -- domain builders ---------------------------------------------------------


def _check_subset(image: DigitalImage, subset: Iterable[int]) -> List[int]:
    members = sorted(set(subset))
    for x in members:
        image.check_vertex(x)
    return members


def _ball_masks(image: DigitalImage, r: int) -> List[int]:
    dm = image._distance_matrix()
    return [
        sum(1 << v for v in range(image.n) if dm[x][v] <= r) for x in range(image.n)
    ]


def _require_connected(image: DigitalImage) -> None:
    if not image.is_connected():
        raise DisconnectedImageError("this query requires a connected image")


def _freezing_search(
    image: DigitalImage,
    subset: Iterable[int],
    budget: SearchBudget,
) -> SearchResult:
    _require_connected(image)
    members = _check_subset(image, subset)
    full = (1 << image.n) - 1
    domains = [full] * image.n
    for x in members:
        domains[x] = 1 << x
    escape = [full & ~(1 << x) for x in range(image.n)]
    return _SelfMapSearch(image, domains, escape, budget).run()


def find_counterexample_freezing(
    image: DigitalImage,
    subset: Iterable[int],
    budget: SearchBudget = DEFAULT_BUDGET,
) -> SearchResult:
    """Search for a continuous non-identity self-map fixing `subset`."""
    members = _check_subset(image, subset)
    result = _freezing_search(image, members, budget)
    if result.status == FOUND:
        _check_witness_freezing(image, members, result.witness)
    return result


def _check_witness_freezing(image, members, witness) -> None:
    if (
        not is_continuous(witness)
        or not set(members) <= fixed_points(witness)
        or witness.assignment == tuple(range(image.n))
    ):  # pragma: no cover - internal soundness guard
        raise RuntimeError("search produced an invalid freezing witness")


def _report(
    prop: str,
    params: Dict[str, int],
    subset: Iterable[int],
    result: SearchResult,
    budget: SearchBudget,
    detail: Optional[str] = None,
) -> VerificationReport:
    verdict = {FOUND: FAILS, NONE: HOLDS, UNKNOWN: UNKNOWN}[result.status]
    return VerificationReport(
        property=prop,
        params=dict(params),
        subset=frozenset(subset),
        verdict=verdict,
        witness=result.witness,
        detail=detail,
        nodes_expanded=result.nodes,
        elapsed_ms=result.elapsed_ms,
        pruning_stats=result.stats,
        budget=budget,
    )


def is_freezing(
    image: DigitalImage,
    subset: Iterable[int],
    budget: SearchBudget = DEFAULT_BUDGET,
) -> VerificationReport:
    """Holds iff the identity is the only continuous self-map fixing subset."""
    members = _check_subset(image, subset)
    result = find_counterexample_freezing(image, members, budget)
    return _report("freezing", {}, members, result, budget)


def is_s_cold(
    image: DigitalImage,
    subset: Iterable[int],
    s: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> VerificationReport:
    """Holds iff every continuous map fixing subset displaces nothing past s."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    _require_connected(image)
    members = _check_subset(image, subset)
    full = (1 << image.n) - 1
    domains = [full] * image.n
    for x in members:
        domains[x] = 1 << x
    balls = _ball_masks(image, s)
    escape = [full & ~balls[x] for x in range(image.n)]
    result = _SelfMapSearch(image, domains, escape, budget).run()
    if result.status == FOUND:
        w = result.witness
        if (
            not is_continuous(w)
            or not set(members) <= fixed_points(w)
            or max_displacement(w) <= s
        ):  # pragma: no cover
            raise RuntimeError("search produced an invalid cold witness")
    return _report("s_cold", {"s": s}, members, result, budget)


def is_limiting(
    image: DigitalImage,
    subset: Iterable[int],
    m: int,
    n: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> VerificationReport:
    """Holds iff every continuous m-map on subset is an n-map on all of X."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be nonnegative")
    _require_connected(image)
    members = _check_subset(image, subset)
    full = (1 << image.n) - 1
    m_balls = _ball_masks(image, m)
    domains = [full] * image.n
    for x in members:
        domains[x] = m_balls[x]
    n_balls = _ball_masks(image, n)
    escape = [full & ~n_balls[x] for x in range(image.n)]
    result = _SelfMapSearch(image, domains, escape, budget).run()
    if result.status == FOUND:
        w = result.witness
        if (
            not is_continuous(w)
            or max_displacement(w, members) > m
            or max_displacement(w) <= n
        ):  # pragma: no cover
            raise RuntimeError("search produced an invalid limiting witness")
    return _report("limiting", {"m": m, "n": n}, members, result, budget)


def is_minimal_freezing(
    image: DigitalImage,
    subset: Iterable[int],
    budget: SearchBudget = DEFAULT_BUDGET,
) -> VerificationReport:
    """Holds iff subset is freezing and no single-vertex deletion is.

    Single deletions suffice: supersets of freezing sets are freezing, so any
    freezing proper subset extends to some one-vertex deletion.  A failing
    verdict carries either a non-identity witness (subset is not freezing) or
    the removable vertex in `detail` (subset is freezing but not minimal).
    """
    members = _check_subset(image, subset)
    base = find_counterexample_freezing(image, members, budget)
    nodes = base.nodes
    elapsed = base.elapsed_ms
    stats = dict(base.stats)
    if base.status == FOUND:
        return _report(
            "minimal_freezing", {}, members, base, budget, detail="not a freezing set"
        )
    if base.status == UNKNOWN:
        return _report("minimal_freezing", {}, members, base, budget)
    for a in members:
        sub = find_counterexample_freezing(
            image, [x for x in members if x != a], budget
        )
        nodes += sub.nodes
        elapsed += sub.elapsed_ms
        for k, v in sub.stats.items():
            stats[k] = stats.get(k, 0) + v
        if sub.status == UNKNOWN:
            return VerificationReport(
                "minimal_freezing", {}, frozenset(members), UNKNOWN, None,
                f"sub-query for deletion of {a} exhausted the budget",
                nodes, elapsed, stats, budget,
            )
        if sub.status == NONE:
            return VerificationReport(
                "minimal_freezing", {}, frozenset(members), FAILS, None,
                f"vertex {a} is removable: the set stays freezing without it",
                nodes, elapsed, stats, budget,
            )
    return VerificationReport(
        "minimal_freezing", {}, frozenset(members), HOLDS, None, None,
        nodes, elapsed, stats, budget,
    )


def search_minimal_freezing(
    image: DigitalImage,
    seed_set: Optional[Iterable[int]] = None,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> MinimalSearchResult:
    """Greedy deletion from a freezing seed down to a minimal freezing set.

    The seed defaults to Bd(X) for coordinate-backed images, else all of X.
    One pass in id order removes each vertex whose deletion leaves a freezing
    set.  A vertex b kept because S - {b} is not freezing stays unremovable
    once more vertices go: a subset of a non-freezing set is not freezing.
    So the result admits no single deletion, hence is minimal, and it is the
    set that restarting the scan from the lowest id after every removal finds.
    """
    _require_connected(image)
    if seed_set is None:
        if image.is_coordinate_backed:
            from .lattice import c1_boundary

            d = len(image.coords[0])
            boundary = c1_boundary([p for p in image.coords], d)
            current = sorted(image.vertex_at(p) for p in boundary)
        else:
            current = list(range(image.n))
    else:
        current = _check_subset(image, seed_set)
    check = find_counterexample_freezing(image, current, budget)
    nodes = check.nodes
    if check.status == UNKNOWN:
        return MinimalSearchResult(UNKNOWN, None, nodes)
    if check.status == FOUND:
        raise ValueError("seed set is not a freezing set")
    for a in list(current):
        sub = find_counterexample_freezing(
            image, [x for x in current if x != a], budget
        )
        nodes += sub.nodes
        if sub.status == UNKNOWN:
            return MinimalSearchResult(UNKNOWN, None, nodes)
        if sub.status == NONE:
            current.remove(a)
    return MinimalSearchResult(FOUND, frozenset(current), nodes)


def enumerate_continuous_self_maps(
    image: DigitalImage,
    fixed: Iterable[int] = (),
    cap: int = 10**9,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> MapCount:
    """Exact count of continuous self-maps fixing `fixed` pointwise.

    Counts leaves of the same complete search used by the deciders (arc
    consistency removes no continuous map), so this doubles as the
    brute-force oracle for validating them.
    """
    if image.n > 64:
        raise ValueError("enumeration is guarded to images with <= 64 vertices")
    if cap < 1:
        raise ValueError("cap must be positive")
    members = _check_subset(image, fixed)
    full = (1 << image.n) - 1
    domains = [full] * image.n
    for x in members:
        domains[x] = 1 << x
    search = _SelfMapSearch(image, domains, None, budget, count_cap=cap)
    result = search.run()
    if result.status == UNKNOWN:
        raise _budget_error()
    return MapCount(count=search.count, exact=search.count <= cap)


def _budget_error() -> Exception:
    return TimeoutError("enumeration exhausted its search budget")
