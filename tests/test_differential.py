"""Differential tests: the engine against the naive oracle on random graphs.

Every verdict of `is_freezing`, `is_s_cold` and `is_limiting` on a random
connected graph must equal `suite.naive_verdict`, and every `fails` witness
is re-checked with `digitop.maps`.  The engine's displacement balls, grown
by dilation, must equal the balls read off `DigitalImage.distance`.  Graphs
have at most 8 vertices and degree at most 3: the oracle enumerates
continuous maps vertex by vertex, so this bounds its work by 8 * 4^7 maps
per query (a star on 8 vertices alone has more than 2 million).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from digitop.constructions import box, cone, pyramid, solid_pyramid, suspension
from digitop.graph import DigitalImage
from digitop.maps import fixed_points, is_continuous, max_displacement
from digitop.suite import _small_bases, naive_verdict
from digitop.verifier import FAILS, _balls, is_freezing, is_limiting, is_s_cold

MAX_VERTICES = 8
MAX_DEGREE = 3

bounded = settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def connected_queries(draw):
    """A connected graph with a random subset of its vertices."""
    n = draw(st.integers(1, MAX_VERTICES))
    degree = [0] * n
    edges = set()

    def add(a, b):
        if a != b and (min(a, b), max(a, b)) not in edges:
            if degree[a] < MAX_DEGREE and degree[b] < MAX_DEGREE:
                edges.add((min(a, b), max(a, b)))
                degree[a] += 1
                degree[b] += 1

    for v in range(1, n):
        # v - 1 has degree 1 when v joins, so a parent always exists.
        add(draw(st.sampled_from([u for u in range(v) if degree[u] < MAX_DEGREE])), v)
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


def _distance_balls(image, r):
    return [
        sum(1 << v for v in range(image.n) if image.distance(x, v) <= r)
        for x in range(image.n)
    ]


def test_balls_match_distances_on_suite_images():
    images = [image for _, image in _small_bases()]
    images += [cone(image).image for image in images[:3]]
    images += [suspension(image).image for image in images[:3]]
    images += [pyramid(2).image, solid_pyramid(2).image, box([2, 2, 2], 1).image]
    for image in images:
        for r in range(4):
            assert _balls(image, r) == _distance_balls(image, r)


@bounded
@given(connected_queries(), st.integers(0, 3))
def test_balls_match_distances_on_random_graphs(query, r):
    image, _ = query
    assert _balls(image, r) == _distance_balls(image, r)
