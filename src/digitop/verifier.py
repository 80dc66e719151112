"""Exhaustive decision procedures for freezing, s-cold, (m,n)-limiting and
minimal-freezing queries.

Every query is one (m,n)-limiting search: find a continuous self-map f with
f(x) in B(x,m) for each member x of the set and f(v) outside B(v,n) for some
vertex v.  The set is (m,n)-limiting iff no such f exists.  A freezing set is
a (0,0)-limiting set and an s-cold set a (0,s)-limiting set, so those
deciders only name the property in their reports.  Balls are r dilations of
{x} by closed neighbourhoods (`DigitalImage.dilate`); no distance matrix is
built.

The search is a complete depth-first assignment over bitset domains, with an
explicit stack rather than recursion: arc-consistency propagation (AC-3) to
a fixpoint at every node, a viability check that cuts subtrees in which no
vertex can still escape, and branching on values in vertex-id order.

The paper's unique-path and pulling lemmas are not engine rules, because
the arc-consistency fixpoint already implies both:

  unique path  on a unique geodesic x = v_0..v_k = y with x and y fixed,
               dom(v_i) lies in B(x,i) ∩ B(y,k-i), which is {v_i};
  pulling      if x is pinned to v with v_i > x_i > y_i for a neighbour y,
               every point of N*(v) has coordinate i >= v_i - 1 >= x_i > y_i.

Exceeding the node or wall-clock budget yields the distinguished verdict
"unknown", never a guess.  The clock is read at every node and at every new
neighbourhood union, so root propagation keeps the budget too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .graph import DigitalImage, DisconnectedImageError, bits
from .maps import Mapping, is_continuous

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
        # A vertex's layer is its distance from the constrained vertices
        # (from vertex 0 if none is), n + 1 where unreachable.
        anchors = sum(1 << x for x, dx in enumerate(self.domains0) if dx != self.full)
        self._layer = [self.n + 1] * self.n
        for depth, ring in enumerate(image.rings(anchors or (1 if self.n else 0))):
            for x in bits(ring):
                self._layer[x] = depth

    # -- propagation -------------------------------------------------------

    def _union_nbhd(self, mask: int) -> int:
        cached = self._union_memo.get(mask)
        if cached is None:
            if time.monotonic() > self._deadline:
                raise _BudgetExceeded
            cached = self._union_memo[mask] = self.img.dilate(mask)
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
        if self.nodes > self.budget.max_nodes or time.monotonic() > self._deadline:
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

    def _leaf_escapes(self, dom: List[int]) -> bool:
        """Every domain is a singleton, so by the AC fixpoint the map is
        continuous.  Enumeration counts it; the search asks if it escapes."""
        if self.escape is None:
            self.count += 1
            if self.count_cap is not None and self.count > self.count_cap:
                raise _CapExceeded
            return False
        return any(d & e for d, e in zip(dom, self.escape))

    def _dfs(self, dom: List[int]) -> Optional[Tuple[int, ...]]:
        """Expand `dom`, then its children in value order, depth first.  Each
        stack entry is (parent domains, branching vertex, values left)."""
        stack: List[Tuple[List[int], int, Iterator[int]]] = []
        while True:
            self._tick()
            if self._viable(dom):
                x = self._pick(dom)
                if x is not None:
                    stack.append((dom, x, bits(dom[x])))
                elif self._leaf_escapes(dom):
                    return tuple(d.bit_length() - 1 for d in dom)
            while True:
                if not stack:
                    return None
                parent, x, values = stack[-1]
                v = next(values, None)
                if v is None:
                    stack.pop()
                    continue
                dom = parent.copy()
                dom[x] = 1 << v
                if self._propagate(dom, [x]):
                    break

    def run(self) -> SearchResult:
        self._t0 = time.monotonic()
        self._deadline = self._t0 + self.budget.max_millis / 1000
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


# -- the (m,n)-limiting decider -----------------------------------------------


def _check_subset(image: DigitalImage, subset: Iterable[int]) -> List[int]:
    members = sorted(set(subset))
    for x in members:
        image.check_vertex(x)
    return members


def _balls(image: DigitalImage, r: int) -> List[int]:
    """B(x,r) for every x, as r dilations of {x} by closed neighbourhoods.
    Each step dilates only the vertices the previous step added."""
    balls = []
    for x in range(image.n):
        ball = frontier = 1 << x
        for _ in range(r):
            frontier = image.dilate(frontier) & ~ball
            if not frontier:
                break
            ball |= frontier
        balls.append(ball)
    return balls


def _require_connected(image: DigitalImage) -> None:
    if not image.is_connected():
        raise DisconnectedImageError("this query requires a connected image")


def _limiting_search(
    image: DigitalImage,
    members: List[int],
    m: int,
    n: int,
    budget: SearchBudget,
) -> SearchResult:
    """Search for a continuous self-map that moves each of the (checked)
    members by at most m and some vertex by more than n."""
    _require_connected(image)
    full = (1 << image.n) - 1
    m_balls = _balls(image, m)
    n_balls = m_balls if n == m else _balls(image, n)
    domains = [full] * image.n
    for x in members:
        domains[x] = m_balls[x]
    escape = [full & ~ball for ball in n_balls]
    result = _SelfMapSearch(image, domains, escape, budget).run()
    w = result.witness
    if result.status == FOUND and (
        not is_continuous(w)
        or any(not (1 << w.assignment[x]) & m_balls[x] for x in members)
        or all((1 << v) & ball for v, ball in zip(w.assignment, n_balls))
    ):  # pragma: no cover - internal soundness guard
        raise RuntimeError(f"search produced an invalid ({m},{n})-limiting witness")
    return result


_VERDICT = {FOUND: FAILS, NONE: HOLDS, UNKNOWN: UNKNOWN}


def _report(
    prop: str,
    params: Dict[str, int],
    members: Iterable[int],
    result: SearchResult,
    budget: SearchBudget,
    verdict: Optional[str] = None,
    detail: Optional[str] = None,
) -> VerificationReport:
    """The report of `result`, whose status gives the verdict unless one is
    passed."""
    return VerificationReport(
        property=prop,
        params=dict(params),
        subset=frozenset(members),
        verdict=verdict or _VERDICT[result.status],
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
    """Holds iff the identity is the only continuous self-map fixing subset,
    that is, iff subset is (0,0)-limiting."""
    members = _check_subset(image, subset)
    result = _limiting_search(image, members, 0, 0, budget)
    return _report("freezing", {}, members, result, budget)


def is_s_cold(
    image: DigitalImage,
    subset: Iterable[int],
    s: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> VerificationReport:
    """Holds iff every continuous map fixing subset displaces nothing past s,
    that is, iff subset is (0,s)-limiting."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    members = _check_subset(image, subset)
    result = _limiting_search(image, members, 0, s, budget)
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
    members = _check_subset(image, subset)
    result = _limiting_search(image, members, m, n, budget)
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
    The report counts the nodes, time and stats of every search it ran.
    """
    prop = "minimal_freezing"
    members = _check_subset(image, subset)
    total = _limiting_search(image, members, 0, 0, budget)
    if total.status != NONE:
        detail = "not a freezing set" if total.status == FOUND else None
        return _report(prop, {}, members, total, budget, detail=detail)
    for a in members:
        sub = _limiting_search(image, [x for x in members if x != a], 0, 0, budget)
        total.nodes += sub.nodes
        total.elapsed_ms += sub.elapsed_ms
        for k, v in sub.stats.items():
            total.stats[k] += v
        if sub.status == UNKNOWN:
            detail = f"sub-query for deletion of {a} exhausted the budget"
            return _report(prop, {}, members, total, budget, UNKNOWN, detail)
        if sub.status == NONE:
            detail = f"vertex {a} is removable: the set stays freezing without it"
            return _report(prop, {}, members, total, budget, FAILS, detail)
    return _report(prop, {}, members, total, budget)


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
    check = _limiting_search(image, current, 0, 0, budget)
    nodes = check.nodes
    if check.status == UNKNOWN:
        return MinimalSearchResult(UNKNOWN, None, nodes)
    if check.status == FOUND:
        raise ValueError("seed set is not a freezing set")
    for a in list(current):
        sub = _limiting_search(image, [x for x in current if x != a], 0, 0, budget)
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
