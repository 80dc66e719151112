from itertools import product

import pytest

from digitop.constructions import (
    bipyramid,
    box,
    cone,
    interval,
    pyramid,
    simple_closed_curve,
    solid_bipyramid,
    solid_pyramid,
    satisfies_not_small,
    suspension,
)
from digitop.graph import DigitalImage
from digitop.lattice import c1_boundary


def test_interval():
    assert interval(0, 0).image.n == 1
    i03 = interval(0, 3).image
    assert (i03.n, len(i03.edges)) == (4, 3)
    i = interval(-2, 2).image
    assert i.n == 5 and i.diameter() == 4
    with pytest.raises(ValueError):
        interval(1, 0)
    for a, b in ((-2, 2), (5, 5)):
        nc = interval(a, b)
        assert nc.set_named("Bd") == nc.set_named("corners") == {0, b - a}
        assert {nc.image.coords[x] for x in nc.set_named("Bd")} == c1_boundary(nc.image.coords, 1)


def test_box():
    b = box([2, 2], 1)
    assert b.image.n == 9
    assert len(b.image.edges) == 12
    assert len(b.named_sets["corners"]) == 4
    assert len(b.named_sets["Bd"]) == 8
    assert len(box([2, 2], 2).image.edges) == 20
    tiny = box([1], 1).image
    assert (tiny.n, len(tiny.edges)) == (2, 1)
    with pytest.raises(ValueError):
        box([2, 2], 3)


@pytest.mark.parametrize("extents", [[1], [4], [1, 1], [1, 3], [3, 2], [2, 1, 3], [3, 3, 3]])
def test_box_bd_and_corners_match_their_definitions(extents):
    for u in range(1, len(extents) + 1):
        nc = box(extents, u)
        image = nc.image
        bd = c1_boundary(image.coords, len(extents))
        assert nc.set_named("Bd") == {image.vertex_at(p) for p in bd}
        ends = product(*[(0, m) for m in extents])
        assert nc.set_named("corners") == {image.vertex_at(p) for p in ends}


def test_simple_closed_curve():
    c4 = simple_closed_curve(4).image
    assert c4.n == 4 and all(len(c4.neighbors(v)) == 2 for v in range(4))
    assert simple_closed_curve(8).image.diameter() == 4
    c5 = simple_closed_curve(5).image
    assert all(len(frozenset((v,) + c5.neighbors(v))) == 3 for v in range(5))
    with pytest.raises(ValueError):
        simple_closed_curve(3)


def test_cone():
    single = cone(DigitalImage(1, []))
    assert (single.image.n, len(single.image.edges)) == (2, 1)
    wheel = cone(simple_closed_curve(4).image)
    assert (wheel.image.n, len(wheel.image.edges)) == (5, 8)
    assert cone(simple_closed_curve(8).image).image.diameter() == 2
    apex = min(wheel.named_sets["U"])
    assert wheel.image.coords[apex] is None
    assert wheel.image.labels[apex] == "U"
    assert wheel.named_sets["X_base"] == frozenset(range(4))


def test_suspension():
    path = suspension(DigitalImage(1, []))
    assert (path.image.n, len(path.image.edges)) == (3, 2)
    sx = suspension(simple_closed_curve(4).image)
    assert (sx.image.n, len(sx.image.edges)) == (6, 12)
    u, low = min(sx.named_sets["U"]), min(sx.named_sets["L"])
    assert sx.image.distance(u, low) == 2
    assert low not in frozenset((u,) + sx.image.neighbors(u))
    assert sx.image.diameter() == 2


def test_cone_and_suspension_preserve_base():
    base = simple_closed_curve(6).image
    for built in (cone(base), suspension(base)):
        induced = {
            (a, b) for a, b in built.image.edges if a < base.n and b < base.n
        }
        assert induced == set(base.edges)


def test_pyramid_counts():
    assert pyramid(1).image.n == 9
    p2 = pyramid(2)
    assert p2.image.n == 25
    assert len(p2.named_sets["T_2"]) == 16
    corners = {p2.image.coords[v] for v in p2.named_sets["T_2_prime"]}
    assert corners == {(-2, -2, 0), (2, -2, 0), (2, 2, 0), (-2, 2, 0)}
    assert p2.image.coords[min(p2.named_sets["U"])] == (0, 0, 2)
    with pytest.raises(ValueError):
        pyramid(0)


def test_solid_pyramid_counts():
    assert solid_pyramid(1).image.n == 10
    q2 = solid_pyramid(2)
    assert q2.image.n == 35
    w2 = {q2.image.coords[v] for v in q2.named_sets["W_2"]}
    assert w2 == {(a, b, 0) for a in range(-2, 3) for b in range(-2, 3)}
    assert len(w2) == 25


def test_bipyramid_counts():
    assert bipyramid(1).image.n == 10
    h2 = bipyramid(2)
    assert h2.image.n == 34
    assert h2.image.coords[min(h2.named_sets["L"])] == (0, 0, -2)
    for n in (1, 2, 3):
        h = bipyramid(n)
        assert h.image.distance(min(h.named_sets["U"]), min(h.named_sets["L"])) == 2 * n


def test_solid_bipyramid_counts():
    assert solid_bipyramid(1).image.n == 11
    k2 = solid_bipyramid(2)
    assert k2.image.n == 45
    poles_and_ring = k2.named_sets["U"] | k2.named_sets["L"] | k2.named_sets["T_2"]
    assert len(poles_and_ring) == 18


def test_pyramid_lateral_and_base_edges():
    p2 = pyramid(2)
    img = p2.image
    for name in ("LR", "LF", "RF", "RR"):
        members = p2.named_sets[name]
        assert len(members) == 3
        assert min(p2.named_sets["U"]) in members
    for pair in (("LR", "LF"), ("LF", "RF"), ("RF", "RR"), ("RR", "LR")):
        shared = p2.named_sets[pair[0]] & p2.named_sets[pair[1]]
        assert shared == p2.named_sets["U"]
    for name in ("BL", "BF", "BR", "BB"):
        assert len(p2.named_sets[name]) == 5
        assert all(img.coords[v][2] == 0 for v in p2.named_sets[name])


def test_t_levels_restrict_w_levels():
    for n in (1, 2):
        p = pyramid(n)
        q = solid_pyramid(n)
        for i in range(n + 1):
            t_pts = {p.image.coords[v] for v in p.named_sets[f"T_{i}"]}
            w_pts = {q.image.coords[v] for v in q.named_sets[f"W_{i}"]}
            assert t_pts == {w for w in w_pts if max(abs(w[0]), abs(w[1])) == i}


def test_rings_are_almost_simple_closed_curves():
    """Each T_i (i >= 1) is c_3-connected, and under c_1 it is a plain
    cycle: every ring vertex has exactly 2 c_1-neighbors in the ring."""
    for n in (1, 2, 3):
        p = pyramid(n)
        img = p.image
        for i in range(1, n + 1):
            ring = sorted(p.named_sets[f"T_{i}"])
            points = [img.coords[v] for v in ring]
            sub_c3 = DigitalImage.from_points(points, u=3)
            assert sub_c3.is_connected()
            sub_c1 = DigitalImage.from_points(points, u=1)
            assert all(len(sub_c1.neighbors(v)) == 2 for v in range(sub_c1.n))


def test_mirror_symmetry_is_involution():
    for build in (bipyramid, solid_bipyramid):
        nc = build(2)
        img = nc.image
        flip = {v: img.vertex_at((a, b, -c)) for v, (a, b, c) in enumerate(img.coords)}
        assert all(flip[flip[v]] == v for v in flip)
        flipped_edges = {tuple(sorted((flip[a], flip[b]))) for a, b in img.edges}
        assert flipped_edges == set(img.edges)
        fixed = {v for v in flip if flip[v] == v}
        assert fixed == {v for v in range(img.n) if img.coords[v][2] == 0}


def test_satisfies_not_small():
    assert satisfies_not_small(simple_closed_curve(8).image)
    assert not satisfies_not_small(DigitalImage(1, []))
    assert not satisfies_not_small(DigitalImage(2, [(0, 1)]))


def test_named_sets_are_subsets():
    for nc in (pyramid(2), solid_pyramid(2), bipyramid(2), solid_bipyramid(2)):
        for members in nc.named_sets.values():
            assert all(0 <= v < nc.image.n for v in members)


_FACES = {"U", "LR", "LF", "RF", "RR", "BL", "BF", "BR", "BB", "L", "F", "R", "B", "Bd"}
_RINGS = {"T_0", "T_1", "T_2", "T_0_prime", "T_1_prime", "T_2_prime"}


@pytest.mark.parametrize(
    "builder, names",
    [
        (pyramid, _FACES | _RINGS),
        (solid_pyramid, _FACES | _RINGS | {"W_0", "W_1", "W_2"}),
        (bipyramid, {"U", "L", "T_2", "upper", "lower", "Bd"}),
        (solid_bipyramid, {"U", "L", "T_2", "W_2", "upper", "lower", "Bd"}),
    ],
)
def test_pyramid_family_named_sets(builder, names):
    assert set(builder(2).named_sets) == names
    for n in (0, -1):
        with pytest.raises(ValueError, match="requires n >= 1"):
            builder(n)
