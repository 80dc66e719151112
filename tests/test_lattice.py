from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from digitop.constructions import box
from digitop.graph import DigitalImage
from digitop.lattice import (
    DimensionMismatchError,
    c1_boundary,
    check_point,
)
from adjacency import c1_neighbors, cu_adjacent, naive_c1_boundary


def test_cu_adjacent_examples():
    assert not cu_adjacent((0, 0), (1, 1), 1)
    assert cu_adjacent((0, 0), (1, 1), 2)
    assert not cu_adjacent((3,), (3,), 1)
    assert not cu_adjacent((0, 0, 0), (0, 2, 0), 3)


def test_cu_adjacent_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        cu_adjacent((0, 0), (0, 0, 0), 1)


def test_cu_adjacent_rejects_u_out_of_range():
    assert cu_adjacent((0, 0), (1, 1), 2)
    with pytest.raises(ValueError, match="require 1 <= u <= 2, got u=0"):
        cu_adjacent((0, 0), (0, 1), 0)
    with pytest.raises(ValueError, match="require 1 <= u <= 2, got u=3"):
        cu_adjacent((0, 0), (0, 1), 3)


def test_non_integer_coordinates_raise():
    # int() would truncate 1.7 to 1 and silently build an edge (0,)-(1,).
    with pytest.raises(TypeError):
        check_point((0, 1.7), 2)
    with pytest.raises(TypeError):
        DigitalImage.from_points([(0,), (1.7,)], 1)
    with pytest.raises(TypeError):
        cu_adjacent((0, 0), (0.5, 0), 1)
    image = box([2, 2], 1).image
    assert image.vertex_at((1, 0)) == 3
    with pytest.raises(TypeError):
        image.vertex_at((1.5, 0))


def projection(p: Sequence[int], i: int) -> int:
    """The i-th coordinate of p, 1-based."""
    pt = check_point(p)
    if not 1 <= i <= len(pt):
        raise IndexError(f"projection index {i} out of range for dimension {len(pt)}")
    return pt[i - 1]


def test_projection():
    assert projection((5, -2, 7), 2) == -2
    assert projection((0,), 1) == 0
    assert projection((-3, 3, 0), 3) == 0
    with pytest.raises(IndexError):
        projection((1, 2), 3)
    with pytest.raises(IndexError):
        projection((1, 2), 0)


def _neighbor_count(d, u):
    origin = tuple([0] * d)
    count = 0

    def walk(prefix):
        nonlocal count
        if len(prefix) == d:
            if cu_adjacent(origin, tuple(prefix), u):
                count += 1
            return
        for delta in (-1, 0, 1):
            walk(prefix + [delta])

    walk([])
    return count


def test_named_neighbor_counts():
    """c_1 in Z^1 gives 2 neighbors; in Z^2, 4 (c_1) and 8 (c_2)."""
    assert _neighbor_count(1, 1) == 2
    assert _neighbor_count(2, 1) == 4
    assert _neighbor_count(2, 2) == 8


def test_z3_neighbor_counts():
    # Enumerating the 26 displacement vectors: c_1 allows exactly one
    # coordinate to change, so a Z^3 point has 6 c_1-neighbors, then 18
    # for c_2 and 26 for c_3.
    assert _neighbor_count(3, 1) == 6
    assert _neighbor_count(3, 2) == 18
    assert _neighbor_count(3, 3) == 26


def test_c1_neighbors_matches_adjacency():
    p = (4, -1, 2)
    nbrs = set(c1_neighbors(p))
    assert len(nbrs) == 6
    assert all(cu_adjacent(p, q, 1) for q in nbrs)


def test_c1_boundary_square():
    square = [(a, b) for a in range(3) for b in range(3)]
    bd = c1_boundary(square, 2)
    assert bd == set(square) - {(1, 1)}
    assert len(bd) == 8


def test_c1_boundary_singleton_and_cube():
    assert c1_boundary([(0, 0)], 2) == {(0, 0)}
    cube = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    bd = c1_boundary(cube, 3)
    assert len(bd) == 26
    assert (1, 1, 1) not in bd


def test_c1_boundary_empty():
    assert c1_boundary([], 2) == set()


def test_c1_boundary_subset_of_input():
    points = [(0, 0), (1, 0), (5, 5)]
    assert c1_boundary(points, 2) <= set(points)


@st.composite
def point_lists(draw):
    """Points of Z^1..Z^4 with negative coordinates, in any order, repeats
    allowed, the empty list included, with their dimension."""
    d = draw(st.integers(1, 4))
    return draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=40)), d


@settings(derandomize=True, deadline=None, max_examples=300)
@given(point_lists())
def test_c1_boundary_equals_the_neighbour_oracle(case):
    points, d = case
    assert c1_boundary(points, d) == naive_c1_boundary(points, d)


def test_check_point_rejects_huge_coordinates():
    check_point((2**30, 0), 2)
    with pytest.raises(ValueError):
        check_point((2**30 + 1, 0), 2)


points2 = st.tuples(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
)


@given(points2, points2, st.integers(min_value=1, max_value=2))
def test_adjacency_is_symmetric(p, q, u):
    assert cu_adjacent(p, q, u) == cu_adjacent(q, p, u)


@given(points2, points2)
def test_adjacency_monotone_in_u(p, q):
    if cu_adjacent(p, q, 1):
        assert cu_adjacent(p, q, 2)


@given(points2)
def test_never_self_adjacent(p):
    assert not cu_adjacent(p, p, 2)
