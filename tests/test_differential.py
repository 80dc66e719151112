"""Differential tests: the engine against the naive oracle on random graphs.

Every verdict of `is_freezing`, `is_s_cold` and `is_limiting` on a random
connected graph must equal `suite.naive_verdict`, and every `fails` witness
is re-checked with `digitop.maps`, as is every seeded random map.  The
metric of `DigitalImage` (dilation rings, distance, diameter, connectivity,
domination) and the engine's displacement balls must agree with
`suite.naive_distances`, the oracle's own breadth-first search, on connected
and disconnected graphs.  The cone and suspension theorems are replayed on
random bases.  The engine's arc-consistency fixpoint, domains and
wipeout alike, must equal a naive one that revises every edge until
nothing changes, and its viability check must equal the definition: some
domain still holds a value outside its vertex's n-ball.  Switching off the
root's lowest-value completion must change no answer and can only add
nodes, on graphs of up to 11 vertices that no oracle reads.  The witness
guard, which checks continuity only at the vertices a leaf moves, must
reject exactly the leaves that `maps.is_continuous` rejects, or that move
nothing.  The oracle's query graphs have at most 8 vertices and degree at
most 3: the oracle enumerates continuous maps vertex by vertex, so this
bounds its work by 8 * 4^7 maps per query (a star on 8 vertices alone has
more than 2 million).
"""

import math
from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from digitop.constructions import (
    box,
    cone,
    pyramid,
    satisfies_not_small,
    solid_pyramid,
    suspension,
)
from digitop.graph import DigitalImage, DisconnectedImageError
from digitop.maps import (
    Mapping,
    fixed_points,
    is_continuous,
    max_displacement,
)
from digitop.suite import _small_bases, naive_distances, naive_verdict
from digitop.verifier import (
    DEFAULT_BUDGET,
    FAILS,
    HOLDS,
    _balls,
    _SelfMapSearch,
    is_freezing,
    is_limiting,
    is_minimal_freezing,
    is_s_cold,
    search_minimal_freezing,
)
from randmaps import random_continuous_map

MAX_VERTICES = 8
MAX_DEGREE = 3

bounded = settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def connected_queries(draw, max_vertices=MAX_VERTICES, max_degree=MAX_DEGREE):
    """A connected graph with a random subset of its vertices."""
    n = draw(st.integers(1, max_vertices))
    degree = [0] * n
    edges = set()

    def add(a, b):
        if a != b and (min(a, b), max(a, b)) not in edges:
            if degree[a] < max_degree and degree[b] < max_degree:
                edges.add((min(a, b), max(a, b)))
                degree[a] += 1
                degree[b] += 1

    for v in range(1, n):
        # v - 1 has degree 1 when v joins, so a parent always exists.
        add(draw(st.sampled_from([u for u in range(v) if degree[u] < max_degree])), v)
    vertex = st.integers(0, n - 1)
    for a, b in draw(st.lists(st.tuples(vertex, vertex), max_size=n)):
        add(a, b)
    subset = sorted(draw(st.sets(vertex)))
    return DigitalImage(n, edges), subset


@bounded
@given(connected_queries())
def test_freezing_matches_naive_oracle(query):
    image, subset = query
    report = is_freezing(image, subset)
    assert report.verdict == naive_verdict(image, "freezing", subset)
    if report.verdict == FAILS:
        f = report.witness
        assert is_continuous(f)
        assert set(subset) <= fixed_points(f)
        assert f.assignment != tuple(range(image.n))


@bounded
@given(connected_queries(), st.integers(0, 2))
def test_s_cold_matches_naive_oracle(query, s):
    image, subset = query
    report = is_s_cold(image, subset, s)
    assert report.verdict == naive_verdict(image, "s_cold", subset, {"s": s})
    if report.verdict == FAILS:
        f = report.witness
        assert is_continuous(f)
        assert set(subset) <= fixed_points(f)
        assert max_displacement(f) > s


@bounded
@given(connected_queries(), st.integers(0, 2), st.integers(0, 2))
def test_limiting_matches_naive_oracle(query, m, n):
    image, subset = query
    report = is_limiting(image, subset, m, n)
    assert report.verdict == naive_verdict(image, "limiting", subset, {"m": m, "n": n})
    if report.verdict == FAILS:
        f = report.witness
        assert is_continuous(f)
        assert max_displacement(f, subset) <= m
        assert max_displacement(f) > n


@bounded
@given(connected_queries(), st.integers(0, 2**32))
def test_random_maps_are_continuous_fix_their_set_and_repeat_per_seed(query, seed):
    image, fixed = query
    f = random_continuous_map(image, fixed, seed)
    assert is_continuous(f)
    assert set(fixed) <= fixed_points(f)
    assert random_continuous_map(image, fixed, seed) == f


def _limiting_answers(image, subset, m, n):
    """(answer, nodes) of the limiting, minimal-freezing and minimal-search
    queries on subset; an answer is the verdict, witness and detail, or the
    found set."""
    out = []
    for report in (is_limiting(image, subset, m, n), is_minimal_freezing(image, subset)):
        witness = report.witness and report.witness.assignment
        out.append(((report.verdict, witness, report.detail), report.nodes_expanded))
    found = search_minimal_freezing(image)
    out.append(((found.status, found.members), found.nodes))
    return out


@bounded
@given(connected_queries(max_vertices=11, max_degree=10), st.integers(0, 2), st.integers(0, 2))
def test_the_root_completion_changes_no_answer(query, m, n):
    """The root's lowest-value completion, when it escapes, is the walk's
    first leaf: the same answers come without it, in no fewer nodes."""
    image, subset = query
    probed = _limiting_answers(image, subset, m, n)
    with patch.object(_SelfMapSearch, "_lowest_completion", lambda self, dom: None):
        walked = _limiting_answers(image, subset, m, n)
    for (answer, nodes), (walked_answer, walked_nodes) in zip(probed, walked):
        assert answer == walked_answer
        assert nodes <= walked_nodes


@bounded
@given(connected_queries(), st.integers(0, 2**32), st.data())
def test_the_witness_guard_equals_the_all_edge_continuity_check(query, seed, data):
    """The guard in `counterexample` reads only the edges at the vertices a
    leaf moves, since an edge between two fixed vertices maps to itself.  Fed
    a continuous map, and the same map with one vertex re-assigned, a
    freezing search with no members must reject the leaf exactly when
    `maps.is_continuous` does or when the leaf moves nothing."""
    image, fixed = query
    f = random_continuous_map(image, fixed, seed).assignment
    vertex = st.integers(0, image.n - 1)
    x, v = data.draw(vertex), data.draw(vertex)
    for leaf in (f, f[:x] + (v,) + f[x + 1:]):
        search = _SelfMapSearch(image, DEFAULT_BUDGET)
        search.limit(0, 0)
        search.leaves = lambda domains, leaf=leaf: iter([leaf])
        valid = is_continuous(Mapping(image, image, leaf)) and leaf != tuple(range(image.n))
        if valid:
            assert search.counterexample([]).assignment == leaf
        else:
            with pytest.raises(RuntimeError, match="invalid limiting witness"):
                search.counterexample([])


def naive_arc_consistency(image, domains):
    """The fixpoint of dom(y) &= N*(dom(x)) over every edge, read from the
    adjacency alone and revised edge by edge until nothing changes; None if
    a domain empties."""
    dom = list(domains)
    closed = [_mask([v, *image.neighbors(v)]) for v in range(image.n)]
    changed = True
    while changed:
        changed = False
        for x, y in image.edges:
            for a, b in ((x, y), (y, x)):
                allowed = 0
                for v in range(image.n):
                    if dom[a] >> v & 1:
                        allowed |= closed[v]
                if dom[b] & ~allowed:
                    dom[b] &= allowed
                    changed = True
                    if not dom[b]:
                        return None
    return dom


@st.composite
def domain_queries(draw):
    """A connected query graph with a non-empty domain per vertex, often full."""
    image, _ = draw(connected_queries())
    full = (1 << image.n) - 1
    domain = st.one_of(st.just(full), st.integers(1, full))
    return image, [draw(domain) for _ in range(image.n)]


@bounded
@given(domain_queries())
def test_propagation_reaches_the_naive_fixpoint(query):
    """Root propagation starts only from the narrowed domains: a full one
    dilates to the full set, so revising it narrows nothing."""
    image, domains = query
    full = (1 << image.n) - 1
    dom = list(domains)
    search = _SelfMapSearch(image, DEFAULT_BUDGET)
    consistent = search._propagate(dom, [x for x, dx in enumerate(dom) if dx != full])
    expected = naive_arc_consistency(image, domains)
    assert consistent == (expected is not None)
    if consistent:
        assert dom == expected


@bounded
@given(domain_queries(), st.integers(0, 2), st.integers(0, 2))
def test_viability_matches_the_complement_definition(query, m, n):
    """The search keeps the n-balls, not their complements: domains are
    viable iff some domain meets the complement of its vertex's n-ball."""
    image, domains = query
    dist = naive_distances(image)
    far = [_mask(v for v in range(image.n) if dist[x][v] <= n) for x in range(image.n)]
    viable = any(d & ~b for d, b in zip(domains, far))
    search = _SelfMapSearch(image, DEFAULT_BUDGET)
    search.limit(m, n)
    assert search._viable(domains) == viable
    assert search.stats["viability_pruned"] == (not viable)


def _mask(vertices):
    return sum(1 << v for v in vertices)


def _check_metric(image, subset):
    """Every metric query of `image` against `naive_distances`."""
    n = image.n
    dist = naive_distances(image)
    # r = 10**6 runs in time only if the balls stop growing at the diameter.
    for r in (0, 1, 2, 3, n, 10**6):
        assert _balls(image, r, math.inf) == [
            _mask(v for v in range(n) if dist[x][v] <= r) for x in range(n)
        ]
    sources = [[x] for x in range(n)] + ([subset] if subset else [])
    for source in sources:
        gap = [min(dist[x][v] for x in source) for v in range(n)]
        far = max(g for g in gap if g < math.inf)
        # islice keeps a rings() that never empties from hanging the test.
        assert list(islice(image.rings(_mask(source)), n + 1)) == [
            _mask(v for v in range(n) if gap[v] == k) for k in range(far + 1)
        ]
    for x in range(n):
        for y in range(n):
            assert image.distance(x, y) == dist[x][y]
    connected = all(d < math.inf for d in dist[0]) if n else True
    assert image.is_connected() == connected
    if connected and n:
        assert image.diameter() == max(max(row) for row in dist)
    elif n:
        with pytest.raises(DisconnectedImageError):
            image.diameter()
    covered = set(subset).union(*(image.neighbors(x) for x in subset))
    assert image.is_dominating(subset) == (len(covered) == n)


@st.composite
def graphs(draw):
    """Any graph on at most 8 vertices, often disconnected, with a subset."""
    n = draw(st.integers(1, MAX_VERTICES))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    edges = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    return DigitalImage(n, edges), sorted(draw(st.sets(vertex)))


def test_balls_match_distances_on_suite_images():
    images = [image for _, image in _small_bases()]
    images += [cone(image).image for image in images[:3]]
    images += [suspension(image).image for image in images[:3]]
    images += [pyramid(2).image, solid_pyramid(2).image, box([2, 2, 2], 1).image]
    images += [DigitalImage(0, []), DigitalImage(3, [(0, 1)])]
    for image in images:
        _check_metric(image, list(range(0, image.n, 3)))


@bounded
@given(graphs())
def test_balls_match_distances_on_random_graphs(query):
    _check_metric(*query)


@bounded
@given(connected_queries())
def test_cone_over_a_base_that_is_not_small_is_frozen_minimally_by_it(query):
    """If no closed neighbourhood covers X, X is a minimal freezing set of
    CX.  The cone has at most 9 vertices, so the oracle checks it too."""
    base, _ = query
    if not satisfies_not_small(base):
        return
    cx = cone(base)
    members = sorted(cx.named_sets["X_base"])
    assert is_minimal_freezing(cx.image, members).verdict == HOLDS
    assert naive_verdict(cx.image, "freezing", members) == HOLDS
    for x in members:
        rest = [y for y in members if y != x]
        assert naive_verdict(cx.image, "freezing", rest) == FAILS


@bounded
@given(connected_queries())
def test_suspension_poles_lie_in_every_freezing_set(query):
    """SX minus either pole is not freezing, for every base X."""
    base, _ = query
    sx = suspension(base)
    for pole in ("U", "L"):
        (p,) = sx.named_sets[pole]
        rest = [v for v in range(sx.image.n) if v != p]
        report = is_freezing(sx.image, rest)
        assert report.verdict == FAILS
        f = report.witness
        assert is_continuous(f)
        assert set(rest) <= fixed_points(f)
        assert f.assignment[p] != p
        if sx.image.n <= 9:
            assert naive_verdict(sx.image, "freezing", rest) == FAILS
