import math
from itertools import combinations

import pytest

from digitop.constructions import (
    box,
    cone,
    interval,
    pyramid,
    simple_closed_curve,
    solid_pyramid,
    suspension,
)
from digitop.graph import (
    DigitalImage,
    DisconnectedImageError,
    UnknownVertexError,
)
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


def test_neighborhood_contains_self(cycle4):
    for v in range(4):
        hood = cycle4.neighborhood(v)
        assert v in hood
        assert len(hood) == 3
        assert len(hood) - 1 == cycle4.degree(v)


def test_neighborhood_singleton():
    single = DigitalImage(1, [])
    assert single.neighborhood(0) == frozenset({0})


def test_neighborhood_cone_apex(cycle4):
    cx = cone(cycle4)
    apex = min(cx.named_sets["U"])
    assert cx.image.neighborhood(apex) == frozenset(range(cx.image.n))


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
