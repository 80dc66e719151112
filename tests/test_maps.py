from itertools import combinations

import pytest

import digitop
from digitop.constructions import (
    box,
    cone,
    interval,
    pyramid,
    simple_closed_curve,
    suspension,
)
from digitop.graph import DigitalImage, DisconnectedImageError
from digitop.maps import (
    Mapping,
    fixed_points,
    is_continuous,
    is_isomorphism,
    max_displacement,
    push_forward,
)
from geodesics import unique_shortest_path
from pulling import check_pulling
from randmaps import random_continuous_map


def test_mapping_validation():
    img = interval(0, 2).image
    with pytest.raises(ValueError):
        Mapping(img, img, (0, 1))
    with pytest.raises(Exception):
        Mapping(img, img, (0, 1, 7))


def test_identity_and_constant_are_continuous():
    img = pyramid(1).image
    assert is_continuous(Mapping(img, img, tuple(range(img.n))))
    assert is_continuous(Mapping(img, img, tuple([3] * img.n)))


def test_discontinuous_stretch():
    img = interval(0, 2).image
    f = Mapping(img, img, (0, 2, 2))
    assert not is_continuous(f)


def test_fixed_points():
    p2 = pyramid(2).image
    assert fixed_points(Mapping(p2, p2, tuple(range(p2.n)))) == frozenset(range(25))
    cx = cone(simple_closed_curve(8).image)
    apex = min(cx.named_sets["U"])
    values = list(range(cx.image.n))
    values[0] = apex
    f = Mapping(cx.image, cx.image, tuple(values))
    assert is_continuous(f)
    assert fixed_points(f) == frozenset(range(cx.image.n)) - {0}
    c4 = simple_closed_curve(4).image
    assert fixed_points(Mapping(c4, c4, (1, 1, 1, 1))) == frozenset({1})


def test_fixed_points_requires_self_map():
    a = interval(0, 1).image
    b = interval(0, 2).image
    with pytest.raises(ValueError):
        fixed_points(Mapping(a, b, (0, 1)))


def test_max_displacement():
    sx = suspension(simple_closed_curve(8).image)
    u, low = min(sx.named_sets["U"]), min(sx.named_sets["L"])
    values = list(range(sx.image.n))
    values[u] = low
    f = Mapping(sx.image, sx.image, tuple(values))
    assert is_continuous(f)
    assert max_displacement(f, {u}) == 2
    assert max_displacement(f) == 2
    assert max_displacement(Mapping(sx.image, sx.image, tuple(range(sx.image.n)))) == 0
    assert max_displacement(f, set()) == 0


def test_max_displacement_rotation():
    c8 = simple_closed_curve(8).image
    rot = Mapping(c8, c8, tuple((v + 1) % 8 for v in range(8)))
    assert max_displacement(rot) == 1


def test_max_displacement_needs_connected():
    img = DigitalImage(2, [])
    with pytest.raises(DisconnectedImageError):
        max_displacement(Mapping(img, img, tuple(range(img.n))))


def test_projection_is_isomorphism():
    """Dropping the third coordinate carries (P_2, c_3) onto ([-2,2]^2, c_2)."""
    p2 = pyramid(2).image
    flat = DigitalImage.from_points(
        sorted({(a, b) for a, b, _ in p2.coords}), u=2
    )
    f = Mapping(p2, flat, tuple(flat.vertex_at(p[:2]) for p in p2.coords))
    assert is_isomorphism(f)


def test_isomorphism_negatives():
    edge = DigitalImage(2, [(0, 1)])
    assert not is_isomorphism(Mapping(edge, edge, (0, 0)))
    b = box([2, 2], 1).image
    swap = Mapping(b, b, tuple(b.vertex_at((q, p)) for p, q in b.coords))
    assert is_isomorphism(swap)


def test_push_forward():
    b = box([2, 2], 1)
    img = b.image
    swap = Mapping(img, img, tuple(img.vertex_at((q, p)) for p, q in img.coords))
    assert push_forward(b.named_sets["corners"], swap) == b.named_sets["corners"]
    assert push_forward(set(), swap) == frozenset()

    p2 = pyramid(2)
    flat = DigitalImage.from_points(
        sorted({(a, b_) for a, b_, _ in p2.image.coords}), u=2
    )
    proj = Mapping(
        p2.image, flat, tuple(flat.vertex_at(p[:2]) for p in p2.image.coords)
    )
    image_of_ring = push_forward(p2.named_sets["T_2"], proj)
    boundary = {
        v for v in range(flat.n) if max(map(abs, flat.coords[v])) == 2
    }
    assert image_of_ring == boundary


def test_random_maps_are_continuous_and_seeded():
    c8 = simple_closed_curve(8).image
    maps = [random_continuous_map(c8, seed=s) for s in range(100)]
    assert all(is_continuous(f) for f in maps)
    assert len({f.assignment for f in maps}) > 1
    again = [random_continuous_map(c8, seed=s) for s in range(100)]
    assert [f.assignment for f in maps] == [g.assignment for g in again]


def test_random_map_respects_fixed_set():
    cx = cone(simple_closed_curve(6).image)
    f = random_continuous_map(cx.image, fixed=cx.named_sets["X_base"], seed=3)
    assert cx.named_sets["X_base"] <= fixed_points(f)


def test_random_map_all_fixed_is_identity():
    img = box([2, 2], 1).image
    f = random_continuous_map(img, fixed=range(img.n), seed=7)
    assert f.assignment == tuple(range(img.n))


def test_every_exported_name_resolves():
    assert all(hasattr(digitop, name) for name in digitop.__all__)


def test_composition_preserves_continuity():
    img = box([2, 2], 2).image
    for s in range(20):
        f = random_continuous_map(img, seed=s)
        g = random_continuous_map(img, seed=100 + s)
        g_after_f = tuple(g.assignment[v] for v in f.assignment)
        assert is_continuous(Mapping(img, img, g_after_f))


def test_continuous_maps_are_nonexpansive():
    for img in (simple_closed_curve(6).image, box([2, 2], 1).image):
        for s in range(20):
            f = random_continuous_map(img, seed=s)
            for x, y in combinations(range(img.n), 2):
                fd = img.distance(f.assignment[x], f.assignment[y])
                assert fd <= img.distance(x, y)


def test_unique_path_fixed_point_oracle():
    # Two fixed endpoints of a unique shortest path pin the whole path.
    img = box([3, 3], 1).image
    for s in range(30):
        f = random_continuous_map(img, seed=s)
        fix = fixed_points(f)
        for x, y in combinations(sorted(fix), 2):
            path = unique_shortest_path(img, x, y)
            if path is not None:
                assert set(path) <= fix


def test_dominating_set_displacement_oracle():
    img = cone(simple_closed_curve(6).image).image
    dominating = [frozenset({6}), frozenset(range(img.n)), frozenset({0, 3, 6})]
    for members in dominating:
        assert img.is_dominating(members)
    for s in range(30):
        f = random_continuous_map(img, seed=s)
        for members in dominating:
            assert max_displacement(f) <= max_displacement(f, members) + 2


def test_check_pulling():
    q2 = DigitalImage.from_points(
        sorted((a, b) for a in range(4) for b in range(4)), u=1
    )
    assert check_pulling(Mapping(q2, q2, tuple(range(q2.n))))
    for s in range(50):
        assert check_pulling(random_continuous_map(q2, seed=s))


def test_check_pulling_preconditions():
    img = interval(0, 2).image
    with pytest.raises(ValueError):
        check_pulling(Mapping(img, img, (0, 2, 2)))
    abstract = simple_closed_curve(4).image
    with pytest.raises(ValueError):
        check_pulling(Mapping(abstract, abstract, tuple(range(abstract.n))))
