"""Exhaustive decision procedures for freezing, s-cold, (m,n)-limiting and
minimal-freezing queries.

Every query is one (m,n)-limiting search: find a continuous self-map f with
f(x) in B(x,m) for each member x of the set and f(v) outside B(v,n) for some
vertex v.  The set is (m,n)-limiting iff no such f exists.  A freezing set is
a (0,0)-limiting set and an s-cold set a (0,s)-limiting set, so those
deciders only name the property in their reports.  Balls grow one
neighbourhood at a time until the radius or the diameter is reached.

The engine is one walk, `_SelfMapSearch.leaves`: root propagation, then a
depth-first search over bitset domains on an explicit stack, with arc
consistency (AC-3) to a fixpoint at every node and a viability check that
cuts subtrees in which no vertex can still leave its n-ball.  Propagation
keeps a first-in first-out worklist that holds each vertex at most once:
revising x intersects every neighbour's domain with N*(dom(x)), and a
narrowed neighbour joins the worklist unless it is waiting there.  It starts
from the vertices whose domain is not full (at the root) or from the
branching vertex (at a node): a full domain dilates to the full set and
narrows nothing.  The fixpoint does not depend on the revision order.  It
branches on the first vertex, in id order, whose domain is not a singleton,
and tries its values in ascending order.  At a leaf every domain is a
singleton, so the fixpoint makes it a continuous map.  Deciding takes the
first leaf and enumeration counts leaves.  The search keeps only balls: a
member's B(x,m) and the B(v,n) that some vertex must leave, one shared list
when n == m.

A limiting search first tries the root's lowest-value completion: the map
sending each vertex to the lowest value left in its domain after root
propagation.  If it escapes and is continuous, it is the witness, found in
one node.  It is the first leaf of the walk, which tries values in
ascending order: arc consistency never removes a value of a solution inside
the domains, so every node on the walk's lowest-value path still contains
it, stays viable and propagates without a wipeout, and its lowest values
are the completion's.  So only the node and revision counts change.
Enumeration does not try it: it wants every leaf.

Every witness is checked again before it is returned, and a bad one raises
RuntimeError: it must be continuous, keep each member x in B(x,m) and send
some v outside B(v,n).  Continuity is checked only at the vertices the
witness moves, N(x) into N*(f(x)) for each moved x.  An edge between two
fixed vertices maps to itself, and adjacency is symmetric, so an edge with a
moved endpoint is checked at that endpoint: this is the all-edge definition
of `maps.is_continuous`, at the cost of the moved vertices' edges.

The paper's unique-path and pulling lemmas are not engine rules, because
the arc-consistency fixpoint already implies both:

  unique path  on a unique geodesic x = v_0..v_k = y with x and y fixed,
               dom(v_i) lies in B(x,i) ∩ B(y,k-i), which is {v_i};
  pulling      if x is pinned to v with v_i > x_i > y_i for a neighbour y,
               every point of N*(v) has coordinate i >= v_i - 1 >= x_i > y_i.

Each query runs all its searches through one `_SelfMapSearch`, so a
minimality check spends one budget on S and every S - {a}.  Exceeding it
yields the verdict "unknown", never a guess.  The clock starts with the
query and is read at every growth step of the balls, at every node and at
every revision, so building the balls and root propagation keep the budget
too.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from itertools import compress, islice
from operator import and_, ne
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .graph import DigitalImage, DisconnectedImageError, bits
from .lattice import c1_boundary
from .maps import Mapping

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"

FOUND = "found"


@dataclass(frozen=True)
class SearchBudget:
    """Node-count and wall-clock ceilings; exceeding either aborts to unknown."""

    max_nodes: int = 100_000_000
    max_millis: int = 120_000

    def __post_init__(self) -> None:
        if self.max_nodes < 1 or self.max_millis < 1:
            raise ValueError("budget ceilings must be positive")


DEFAULT_BUDGET = SearchBudget()


class _BudgetExceeded(TimeoutError):
    """Out of nodes or time: deciders answer unknown, other callers raise."""

    deleting: Optional[int] = None  # the member whose deletion ran out, if any

    def __init__(self) -> None:
        super().__init__("search exhausted its budget")


@dataclass
class VerificationReport:
    property: str
    params: Dict[str, int]
    subset: FrozenSet[int]
    verdict: str  # holds | fails | unknown
    witness: Optional[Mapping]
    detail: Optional[str]
    nodes_expanded: int
    revisions: int  # arc revisions, root propagation included
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
    """One query's complete DFS over continuous self-maps with bitset
    domains: its searches share one deadline, node count, stats and memo.  A
    limiting query calls `limit`, which sets the balls `reach` and `far`:
    each member x must map into reach[x], and some vertex v outside far[v]."""

    def __init__(self, image: DigitalImage, budget: SearchBudget) -> None:
        self.t0 = time.monotonic()
        self._deadline = self.t0 + budget.max_millis / 1000
        self.img = image
        self.n = image.n
        self.budget = budget
        self.reach: Sequence[int] = ()
        self.far: Optional[Sequence[int]] = None  # None: not a limiting search
        self.nodes = 0
        self.revisions = 0  # arc revisions: one per vertex taken off the queue
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

    def limit(self, m: int, n: int) -> None:
        """Make this an (m,n)-limiting search: members move at most m, and
        some vertex must move more than n.  The balls are built on the
        query's clock; raises _BudgetExceeded."""
        self.reach = _balls(self.img, m, self._deadline)
        self.far = self.reach if n == m else _balls(self.img, n, self._deadline)

    # -- propagation -------------------------------------------------------

    def _union_nbhd(self, mask: int) -> int:
        cached = self._union_memo.get(mask)
        if cached is None:
            cached = self._union_memo[mask] = self.img.dilate(mask)
        return cached

    def _propagate(self, dom: List[int], narrowed: Iterable[int]) -> bool:
        """Arc consistency to fixpoint: dom(y) &= N*(dom(x)) along each edge,
        revising the narrowed vertices first-in first-out, each queued at
        most once.  Every queued domain is non-empty: one is narrowed only
        to non-empty.  Reads the clock once per revision."""
        adj = self.img._adj
        queue = deque(narrowed)
        queued = bytearray(self.n)
        for x in queue:
            queued[x] = 1
        revisions = 0
        try:
            while queue:
                if time.monotonic() > self._deadline:
                    raise _BudgetExceeded
                revisions += 1
                x = queue.popleft()
                queued[x] = 0
                allowed = self._union_nbhd(dom[x])
                for y in adj[x]:
                    ny = dom[y] & allowed
                    if ny != dom[y]:
                        if ny == 0:
                            self.stats["wipeouts"] += 1
                            return False
                        dom[y] = ny
                        if not queued[y]:
                            queued[y] = 1
                            queue.append(y)
            return True
        finally:
            self.revisions += revisions

    def _viable(self, dom: List[int]) -> bool:
        """In a limiting search: can some vertex still leave its n-ball?"""
        if self.far is None:
            return True
        for dx, ball in zip(dom, self.far):
            if dx & ball != dx:
                return True
        self.stats["viability_pruned"] += 1
        return False

    # -- search ------------------------------------------------------------

    def _tick(self) -> None:
        """Count one more node, if it fits under the node cap in time."""
        if self.nodes >= self.budget.max_nodes or time.monotonic() > self._deadline:
            raise _BudgetExceeded
        self.nodes += 1

    def _pick(self, dom: List[int], start: int) -> int:
        """The first vertex from `start` whose domain is not a singleton."""
        for x in range(start, self.n):
            dx = dom[x]
            if dx & (dx - 1):
                return x
        return self.n

    def _continuous_at(self, f: Sequence[int], xs: Iterable[int]) -> bool:
        """Whether the map f keeps the edges at the vertices xs: f(y) lies in
        N*(f(x)) for each x in xs and each neighbour y of x.  The values of
        f are read unchecked, so they must be vertex ids."""
        adj, nbhd = self.img._adj, self.img._nbhd_bits
        for x in xs:
            around = nbhd[f[x]]
            for y in adj[x]:
                if not around >> f[y] & 1:
                    return False
        return True

    def _lowest_completion(self, dom: List[int]) -> Optional[Tuple[int, ...]]:
        """The map sending each vertex to the lowest value in its domain, if
        it escapes and is continuous, else None.  `dom` is a fixpoint, so an
        edge with a singleton endpoint is already consistent and only the
        edges at non-singleton domains are checked."""
        low = [d & -d for d in dom]  # the lowest value, as a bit
        if all(map(and_, low, self.far)):
            return None
        leaf = tuple(lx.bit_length() - 1 for lx in low)
        free = compress(range(self.n), map(ne, dom, low))
        return leaf if self._continuous_at(leaf, free) else None

    def leaves(self, domains: Sequence[int]) -> Iterator[Tuple[int, ...]]:
        """Every viable leaf within `domains`, depth first, children in
        ascending order; raises _BudgetExceeded when the budget runs out.  It
        branches in id order: a stack entry is (parent domains, branching
        vertex x, values left), and since domains only shrink along a path, a
        child resumes the scan at x + 1.  A limiting search first tries the
        root's lowest-value completion, and yields only it when it escapes
        and is continuous: it is then the walk's first leaf (see the module
        docstring), and a limiting search wants no other."""
        dom = list(domains)
        full = (1 << self.n) - 1
        if not self._propagate(dom, [x for x, dx in enumerate(dom) if dx != full]):
            return
        stack: List[Tuple[List[int], int, Iterator[int]]] = []
        start = 0
        probe = self.far is not None  # at the root of a limiting search
        while True:
            self._tick()
            if self._viable(dom):
                x = self._pick(dom, start)
                if x == self.n:
                    yield tuple(d.bit_length() - 1 for d in dom)
                elif probe and (leaf := self._lowest_completion(dom)) is not None:
                    yield leaf
                    return
                else:
                    stack.append((dom, x, bits(dom[x])))
            probe = False
            while True:
                if not stack:
                    return
                parent, x, left = stack[-1]
                v = next(left, None)
                if v is None:
                    stack.pop()
                    continue
                dom = parent.copy()
                dom[x] = 1 << v
                if self._propagate(dom, [x]):
                    start = x + 1
                    break

    def counterexample(self, members: List[int]) -> Optional[Mapping]:
        """A continuous self-map sending each member x into reach[x] and some
        vertex v outside far[v], or None; raises _BudgetExceeded.  It is the
        first leaf: a leaf with every v inside far[v] is not viable.  A leaf
        that is not such a map raises RuntimeError.  Its continuity is
        checked at the vertices it moves: an edge whose ends are both fixed
        maps to itself."""
        domains = [(1 << self.n) - 1] * self.n
        for x in members:
            domains[x] = self.reach[x]
        leaf = next(self.leaves(domains), None)
        if leaf is None:
            return None
        w = Mapping(self.img, self.img, leaf)  # checks that values are ids
        moved = compress(range(self.n), map(ne, leaf, range(self.n)))
        if (
            not self._continuous_at(leaf, moved)
            or any(not (1 << leaf[x]) & self.reach[x] for x in members)
            or all((1 << v) & ball for v, ball in zip(leaf, self.far))
        ):
            raise RuntimeError("search produced an invalid limiting witness")
        return w


# -- the (m,n)-limiting decider -----------------------------------------------


def _check_subset(image: DigitalImage, subset: Iterable[int]) -> List[int]:
    members = sorted(set(subset))
    for x in members:
        image.check_vertex(x)
    return members


def _balls(image: DigitalImage, r: int, deadline: float) -> List[int]:
    """B(x,r) for every x: B(x,t+1) is the OR of B(y,t) over y in N*(x), one
    OR per edge and step, and the steps stop once no ball grows.  Raises
    _BudgetExceeded past `deadline`, which is read once per step."""
    xs = range(image.n)
    balls = [image.closed_neighborhood_bits(x) if r else 1 << x for x in xs]
    around = [image.neighbors(x) for x in xs] if r > 1 else []
    for _ in range(r - 1):
        if time.monotonic() > deadline:
            raise _BudgetExceeded
        grown = []
        for ball, nbrs in zip(balls, around):
            for y in nbrs:
                ball |= balls[y]
            grown.append(ball)
        if grown == balls:
            break
        balls = grown
    return balls


def _require_connected(image: DigitalImage) -> None:
    if not image.is_connected():
        raise DisconnectedImageError("this query requires a connected image")


def _removable(search: _SelfMapSearch, members: List[int]) -> Iterator[int]:
    """The members, in id order, whose deletion from the members kept so far
    leaves a freezing set; a member yielded is no longer kept.  A member kept
    because its deletion is not freezing stays unremovable once more go: a
    subset of a non-freezing set is not freezing.  When the budget runs out,
    the exception names the member whose deletion was being decided."""
    kept = list(members)
    for a in members:
        rest = [x for x in kept if x != a]
        try:
            freezing = search.counterexample(rest) is None
        except _BudgetExceeded as exc:
            exc.deleting = a
            raise
        if freezing:
            kept = rest
            yield a


def _decide(
    image: DigitalImage,
    prop: str,
    params: Dict[str, int],
    subset: Iterable[int],
    m: int,
    n: int,
    budget: SearchBudget,
) -> VerificationReport:
    """The one query path: an (m,n)-limiting search for subset, and for a
    minimal_freezing query of a freezing subset the first removable member.
    The report reads its counters from the query's one search."""
    members = _check_subset(image, subset)
    search = _SelfMapSearch(image, budget)
    _require_connected(image)
    witness = detail = None
    try:
        search.limit(m, n)
        witness = search.counterexample(members)
        verdict = HOLDS if witness is None else FAILS
        if prop == "minimal_freezing" and witness is not None:
            detail = "not a freezing set"
        elif prop == "minimal_freezing":
            for a in _removable(search, members):
                verdict = FAILS
                detail = f"vertex {a} is removable: the set stays freezing without it"
                break
    except _BudgetExceeded as exc:
        verdict = UNKNOWN
        if exc.deleting is not None:
            detail = f"sub-query for deletion of {exc.deleting} exhausted the budget"
    return VerificationReport(
        property=prop,
        params=params,
        subset=frozenset(members),
        verdict=verdict,
        witness=witness,
        detail=detail,
        nodes_expanded=search.nodes,
        revisions=search.revisions,
        elapsed_ms=(time.monotonic() - search.t0) * 1000,
        pruning_stats=dict(search.stats),
        budget=budget,
    )


def is_freezing(
    image: DigitalImage,
    subset: Iterable[int],
    budget: SearchBudget = DEFAULT_BUDGET,
) -> VerificationReport:
    """Holds iff the identity is the only continuous self-map fixing subset,
    that is, iff subset is (0,0)-limiting."""
    return _decide(image, "freezing", {}, subset, 0, 0, budget)


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
    return _decide(image, "s_cold", {"s": s}, subset, 0, s, budget)


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
    return _decide(image, "limiting", {"m": m, "n": n}, subset, m, n, budget)


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
    All the searches run through one search object, so they spend one budget
    and the report counts their nodes, time and stats once.
    """
    return _decide(image, "minimal_freezing", {}, subset, 0, 0, budget)


def search_minimal_freezing(
    image: DigitalImage,
    seed_set: Optional[Iterable[int]] = None,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> MinimalSearchResult:
    """Greedy deletion from a freezing seed down to a minimal freezing set.

    The seed defaults to Bd(X) for coordinate-backed images, else all of X.
    One pass in id order removes each vertex whose deletion leaves a freezing
    set (see `_removable`), so the result admits no single deletion, hence is
    minimal, and it is the set that restarting the scan from the lowest id
    after every removal finds.  All the searches spend one budget.
    """
    search = _SelfMapSearch(image, budget)
    _require_connected(image)
    if seed_set is None and image.is_coordinate_backed:
        boundary = c1_boundary(image.coords, image.dimension)
        seed_set = [image.vertex_at(p) for p in boundary]
    members = _check_subset(image, range(image.n) if seed_set is None else seed_set)
    try:
        search.limit(0, 0)
        if search.counterexample(members) is not None:
            raise ValueError("seed set is not a freezing set")
        removed = set(_removable(search, members))
    except _BudgetExceeded:
        return MinimalSearchResult(UNKNOWN, None, search.nodes)
    return MinimalSearchResult(FOUND, frozenset(members) - removed, search.nodes)


def enumerate_continuous_self_maps(
    image: DigitalImage,
    fixed: Iterable[int] = (),
    cap: int = 10**9,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> MapCount:
    """Exact count of continuous self-maps fixing `fixed` pointwise.

    Counts leaves of the same complete search used by the deciders (arc
    consistency removes no continuous map), so this doubles as the
    brute-force oracle for validating them.  Stops after cap + 1 leaves;
    raises TimeoutError when the budget runs out first.
    """
    if image.n > 64:
        raise ValueError("enumeration is guarded to images with <= 64 vertices")
    if cap < 1:
        raise ValueError("cap must be positive")
    domains = [(1 << image.n) - 1] * image.n
    for x in _check_subset(image, fixed):
        domains[x] = 1 << x
    leaves = _SelfMapSearch(image, budget).leaves(domains)
    count = sum(1 for _ in islice(leaves, cap + 1))
    return MapCount(count=count, exact=count <= cap)
