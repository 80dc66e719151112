import math
import random
import time
from itertools import combinations
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitop.constructions import (
    box,
    cone,
    interval,
    pyramid,
    simple_closed_curve,
    solid_bipyramid,
    solid_pyramid,
    suspension,
)
from digitop.graph import (
    DigitalImage,
    DisconnectedImageError,
    UnknownVertexError,
)
from digitop.lattice import MAX_COORD, DimensionMismatchError
from adjacency import cu_adjacent
from geodesics import unique_shortest_path


@pytest.fixture(scope="module")
def cycle4():
    return simple_closed_curve(4).image


def test_rejects_bad_edges():
    with pytest.raises(ValueError):
        DigitalImage(2, [(0, 0)])
    with pytest.raises(UnknownVertexError):
        DigitalImage(2, [(0, 5)])


def test_rejects_duplicate_points():
    with pytest.raises(ValueError):
        DigitalImage.from_points([(0, 0), (0, 0)], u=1)


@st.composite
def point_sets(draw):
    """Distinct points of Z^1..Z^4 in any order, each coordinate near 0 or
    within 4 of ±MAX_COORD, with an index u of their dimension."""
    d = draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(-2, 2)] * d)
    points = draw(st.permutations(sorted(draw(st.sets(point, min_size=1, max_size=30)))))
    shift = draw(st.tuples(*[st.sampled_from([0, MAX_COORD - 2, 2 - MAX_COORD])] * d))
    return [tuple(map(add, p, shift)) for p in points], draw(st.integers(1, d))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(point_sets())
def test_from_points_edges_equal_pairwise_cu_adjacency(case):
    points, u = case
    expected = {
        (i, j)
        for i, j in combinations(range(len(points)), 2)
        if cu_adjacent(points[i], points[j], u)
    }
    assert DigitalImage.from_points(points, u).edges == expected


def test_from_points_checks_its_input_on_every_point_set():
    assert DigitalImage.from_points([], u=1).n == 0
    with pytest.raises(ValueError, match="got u=0"):
        DigitalImage.from_points([], u=0)
    with pytest.raises(ValueError, match="require 1 <= u <= 2, got u=0"):
        DigitalImage.from_points([(0, 0)], u=0)
    with pytest.raises(ValueError, match="require 1 <= u <= 2, got u=3"):
        DigitalImage.from_points([(0, 0)], u=3)
    with pytest.raises(DimensionMismatchError, match="expected dimension 2"):
        DigitalImage.from_points([(0, 0), (1, 0, 0)], u=1)
    with pytest.raises(ValueError, match="coordinate magnitude exceeds"):
        DigitalImage.from_points([(0, 0), (0, -MAX_COORD - 1)], u=1)


def _build_seconds(points, u):
    start = time.perf_counter()
    image = DigitalImage.from_points(points, u)
    return image, time.perf_counter() - start


def test_from_points_does_not_walk_all_offsets_in_high_dimension():
    # Under c_d a point has up to 3^d - 1 candidate neighbours; the index
    # must only look up prefixes that some point has.
    two, seconds = _build_seconds([(0,) * 20, (1,) * 20], 20)
    assert two.edges == {(0, 1)} and seconds < 1
    rng = random.Random(12)
    cube = sorted({tuple(rng.randint(0, 1) for _ in range(12)) for _ in range(200)})
    dense, seconds = _build_seconds(cube, 12)
    # Distinct 0/1 points differ by 1 in 1..12 coordinates: all c_12-adjacent.
    assert len(dense.edges) == len(cube) * (len(cube) - 1) // 2 and seconds < 1


def test_neighborhood_contains_self(cycle4):
    for v in range(4):
        hood = frozenset((v,) + cycle4.neighbors(v))
        assert v in hood
        assert len(hood) == 3
        assert len(hood) - 1 == len(cycle4.neighbors(v))


def test_neighborhood_singleton():
    single = DigitalImage(1, [])
    assert frozenset((0,) + single.neighbors(0)) == frozenset({0})


def test_neighborhood_cone_apex(cycle4):
    cx = cone(cycle4)
    apex = min(cx.named_sets["U"])
    assert frozenset((apex,) + cx.image.neighbors(apex)) == frozenset(range(cx.image.n))


def test_unknown_vertex(cycle4):
    with pytest.raises(UnknownVertexError):
        cycle4.neighbors(9)


def test_distance_box_c1_and_c2():
    b1 = box([2, 2], 1).image
    assert b1.distance(b1.vertex_at((0, 0)), b1.vertex_at((2, 2))) == 4
    b2 = box([2, 2], 2).image
    assert b2.distance(b2.vertex_at((0, 0)), b2.vertex_at((2, 2))) == 2


def test_distance_suspension_poles(cycle4):
    sx = suspension(cycle4)
    u = min(sx.named_sets["U"])
    low = min(sx.named_sets["L"])
    assert sx.image.distance(u, low) == 2


def test_distance_infinite_when_disconnected():
    two = DigitalImage(2, [])
    assert two.distance(0, 1) == math.inf
    assert not two.is_connected()


def test_pyramid_connectivity_by_adjacency():
    """Under c_1 the pyramid splits into its rings; c_3 joins them."""
    points = pyramid(2).image.coords
    assert not DigitalImage.from_points(points, u=1).is_connected()
    assert DigitalImage.from_points(points, u=3).is_connected()


def test_empty_image_is_connected():
    assert DigitalImage(0, []).is_connected()


def test_diameter():
    assert cone(simple_closed_curve(8).image).image.diameter() == 2
    assert DigitalImage(1, []).diameter() == 0
    assert interval(0, 3).image.diameter() == 3
    with pytest.raises(DisconnectedImageError):
        DigitalImage(2, []).diameter()


def test_is_dominating(cycle4):
    cx = cone(cycle4)
    assert cx.image.is_dominating(cx.named_sets["U"])
    c8 = simple_closed_curve(8).image
    assert not c8.is_dominating({0})
    assert c8.is_dominating(range(8))


def test_unique_shortest_path_q2_lateral_edge():
    q2 = solid_pyramid(2)
    img = q2.image
    path = unique_shortest_path(
        img, img.vertex_at((2, 2, 0)), img.vertex_at((0, 0, 2))
    )
    assert path is not None
    assert [img.coords[v] for v in path] == [(2, 2, 0), (1, 1, 1), (0, 0, 2)]
    assert set(path) == set(q2.named_sets["RF"])


def test_unique_shortest_path_absent_on_unit_square():
    b = box([1, 1], 1).image
    assert unique_shortest_path(b, b.vertex_at((0, 0)), b.vertex_at((1, 1))) is None


def test_unique_shortest_path_trivial_and_disconnected(cycle4):
    assert unique_shortest_path(cycle4, 2, 2) == (2,)
    with pytest.raises(DisconnectedImageError):
        unique_shortest_path(DigitalImage(2, []), 0, 1)


def _all_small_images():
    yield box([2, 2], 1).image
    yield box([2, 2], 2).image
    yield simple_closed_curve(6).image
    yield cone(simple_closed_curve(5).image).image
    yield suspension(interval(0, 3).image).image
    yield pyramid(1).image
    yield solid_pyramid(2).image


def test_metric_axioms_on_small_images():
    for img in _all_small_images():
        for x, y in combinations(range(img.n), 2):
            d = img.distance(x, y)
            assert d >= 1
            assert d == img.distance(y, x)
        for x in range(img.n):
            assert img.distance(x, x) == 0
        for x, y, z in combinations(range(img.n), 3):
            assert img.distance(x, z) <= img.distance(x, y) + img.distance(y, z)


def test_coordinate_lower_bounds():
    """Each c_u step moves every coordinate by at most 1, and a c_1 step
    changes exactly one, so graph distance dominates the Chebyshev gap and,
    under c_1, the Manhattan gap."""
    for u in (1, 2):
        img = box([2, 2], u).image
        for x, y in combinations(range(img.n), 2):
            px, py = img.coords[x], img.coords[y]
            d = img.distance(x, y)
            assert d >= max(abs(a - b) for a, b in zip(px, py))
            if u == 1:
                assert d >= sum(abs(a - b) for a, b in zip(px, py))


def test_vertex_at_unknown_point():
    b = box([2, 2], 1).image
    with pytest.raises(KeyError):
        b.vertex_at((9, 9))


def _per_bit_union(img, mask):
    grown = mask
    for x in range(img.n):
        if mask >> x & 1:
            grown |= img.closed_neighborhood_bits(x)
    return grown


def _masks_around_the_switch(img, rng):
    """Random masks with as many bits as the per-bit path takes at most,
    one more, and any number, plus the empty and the full mask."""
    switch = img._per_bit_max
    yield 0
    yield (1 << img.n) - 1
    for k in (switch, switch + 1, rng.randint(0, img.n)):
        if k <= img.n:
            yield sum(1 << x for x in rng.sample(range(img.n), k))


@st.composite
def graphs_with_difference_classes(draw):
    """A run of edges (a, a + d), more than 2 when n allows, so that d gets
    a shift pair, plus random edges, which mostly fall in small classes."""
    n = draw(st.integers(0, 40))
    edges = set()
    if n >= 2:
        d = draw(st.integers(1, n - 1))
        low = st.integers(0, n - 1 - d)
        edges |= {(a, a + d) for a in draw(st.sets(low, min_size=min(3, n - d)))}
        vertex = st.integers(0, n - 1)
        edges |= {(a, b) for a, b in draw(st.lists(st.tuples(vertex, vertex), max_size=n)) if a != b}
    return DigitalImage(n, edges)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(graphs_with_difference_classes(), st.randoms(use_true_random=False))
def test_dilate_equals_the_per_bit_union(img, rng):
    for mask in _masks_around_the_switch(img, rng):
        assert img.dilate(mask) == _per_bit_union(img, mask)


def test_dilate_on_paper_images():
    c12 = simple_closed_curve(12).image
    images = [
        cone(c12).image,  # the apex edges differ in id by 1..12: residual
        suspension(c12).image,
        c12,  # one class of 11 edges plus the wrap edge (0, 11)
        solid_bipyramid(4).image,  # K_4
        box([28, 28], 2).image,
        box([6, 6, 6], 3).image,
        DigitalImage(0, []),
        DigitalImage(1, []),
    ]
    assert c12._shifts == [(1, (1 << 11) - 1)] and c12._residual_support == 1 | 1 << 11
    rng = random.Random(0)
    for img in images:
        for _ in range(20):
            for mask in _masks_around_the_switch(img, rng):
                assert img.dilate(mask) == _per_bit_union(img, mask)
