import json
from itertools import product
from pathlib import Path

import pytest
from click.testing import CliRunner

from digitop.cli import main
from digitop.constructions import (
    box,
    cone,
    interval,
    pyramid,
    simple_closed_curve,
    solid_pyramid,
    suspension,
)
from digitop.graph import DigitalImage, DisconnectedImageError
from digitop.lattice import c1_boundary
from digitop.maps import Mapping, fixed_points, is_continuous, max_displacement
from digitop.verifier import (
    FAILS,
    FOUND,
    HOLDS,
    NONE,
    UNKNOWN,
    SearchBudget,
    enumerate_continuous_self_maps,
    find_counterexample_freezing,
    is_freezing,
    is_limiting,
    is_minimal_freezing,
    is_s_cold,
    search_minimal_freezing,
)


def brute_force_count(image, fixed=frozenset()):
    """Plain product-space filter, independent of the search engine."""
    count = 0
    for values in product(range(image.n), repeat=image.n):
        if any(values[x] != x for x in fixed):
            continue
        if is_continuous(Mapping(image, image, values)):
            count += 1
    return count


def test_enumeration_matches_brute_force_on_paths():
    assert enumerate_continuous_self_maps(interval(0, 1).image).count == 4
    assert enumerate_continuous_self_maps(interval(0, 2).image).count == 17
    for nc in (interval(0, 1), interval(0, 2), interval(0, 3)):
        engine = enumerate_continuous_self_maps(nc.image)
        assert engine.exact
        assert engine.count == brute_force_count(nc.image)


def test_enumeration_matches_brute_force_on_cycles():
    c4 = simple_closed_curve(4).image
    assert enumerate_continuous_self_maps(c4).count == brute_force_count(c4)
    assert enumerate_continuous_self_maps(c4, fixed=range(4)).count == 1


def test_enumeration_cap():
    result = enumerate_continuous_self_maps(interval(0, 2).image, cap=5)
    assert not result.exact
    assert result.count > 5


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_continuous_self_maps(DigitalImage(65, []))


def test_freezing_cone_base():
    cx = cone(simple_closed_curve(8).image)
    base = sorted(cx.named_sets["X_base"])
    report = is_freezing(cx.image, base)
    assert report.verdict == HOLDS
    assert report.witness is None
    result = find_counterexample_freezing(cx.image, base[1:])
    assert result.status == FOUND
    f = result.witness
    assert is_continuous(f)
    assert set(base[1:]) <= fixed_points(f)
    assert f.assignment[base[0]] != base[0]


def test_freezing_corners_c2_fail():
    b2 = box([2, 2], 2)
    report = is_freezing(b2.image, b2.named_sets["corners"])
    assert report.verdict == FAILS
    f = report.witness
    assert is_continuous(f)
    assert b2.named_sets["corners"] <= fixed_points(f)
    assert f.assignment != tuple(range(b2.image.n))


def test_freezing_pyramid_ring():
    p2 = pyramid(2)
    assert is_freezing(p2.image, p2.named_sets["T_2"]).verdict == HOLDS


def test_freezing_solid_pyramid():
    q2 = solid_pyramid(2)
    a = q2.named_sets["U"] | q2.named_sets["W_2"]
    assert is_freezing(q2.image, a).verdict == HOLDS
    report = is_freezing(q2.image, q2.named_sets["W_2"])
    assert report.verdict == FAILS
    apex = min(q2.named_sets["U"])
    assert report.witness.assignment[apex] != apex


def test_s_cold():
    cx = cone(simple_closed_curve(8).image)
    assert is_s_cold(cx.image, range(cx.image.n), 0).verdict == HOLDS
    assert is_s_cold(cx.image, cx.named_sets["X_base"], 1).verdict == HOLDS
    sx = suspension(simple_closed_curve(8).image)
    report = is_s_cold(sx.image, sx.named_sets["X_base"], 0)
    assert report.verdict == FAILS
    assert max_displacement(report.witness) > 0
    with pytest.raises(ValueError):
        is_s_cold(cx.image, [0], -1)


def test_limiting():
    cx = cone(simple_closed_curve(6).image)
    assert is_limiting(cx.image, [], 0, 2).verdict == HOLDS
    assert is_limiting(cx.image, range(cx.image.n), 0, 0).verdict == HOLDS
    sx = suspension(simple_closed_curve(8).image)
    u = min(sx.named_sets["U"])
    rest = [v for v in range(sx.image.n) if v != u]
    report = is_limiting(sx.image, rest, 1, 1)
    assert report.verdict == FAILS
    f = report.witness
    assert max_displacement(f, rest) <= 1
    assert max_displacement(f) == 2


def test_minimal_freezing():
    p2 = pyramid(2)
    assert is_minimal_freezing(p2.image, p2.named_sets["T_2"]).verdict == HOLDS
    b1 = box([2, 2], 1)
    report = is_minimal_freezing(b1.image, b1.named_sets["Bd"])
    assert report.verdict == FAILS
    assert "removable" in report.detail
    not_freezing = is_minimal_freezing(b1.image, b1.named_sets["corners"] - {0})
    assert not_freezing.verdict == FAILS
    assert not_freezing.witness is not None


def test_search_minimal_freezing():
    edge = DigitalImage(2, [(0, 1)])
    result = search_minimal_freezing(edge)
    assert result.status == FOUND
    assert result.members == frozenset({0, 1})

    b1 = box([2, 2], 1)
    found = search_minimal_freezing(b1.image, b1.named_sets["Bd"])
    assert found.members == b1.named_sets["corners"]

    p2 = pyramid(2)
    assert search_minimal_freezing(p2.image).members == p2.named_sets["T_2"]

    with pytest.raises(ValueError):
        search_minimal_freezing(b1.image, b1.named_sets["corners"] - {0})


def _restart_minimal(image, seed_set):
    """Reference: after each removal, rescan from the lowest id."""
    current = sorted(seed_set)
    while True:
        for a in current:
            rest = [x for x in current if x != a]
            if find_counterexample_freezing(image, rest).status == NONE:
                current = rest
                break
        else:
            return frozenset(current)


def test_single_pass_minimal_search_matches_restart_loop():
    images = [pyramid(2), pyramid(3), solid_pyramid(2)]
    images += [box(extents, u) for extents in ([1, 1], [2, 2]) for u in (1, 2)]
    for nc in images:
        image = nc.image
        bd = c1_boundary(list(image.coords), len(image.coords[0]))
        seed = [image.vertex_at(p) for p in bd]
        found = search_minimal_freezing(image)
        assert found.status == FOUND
        assert found.members == _restart_minimal(image, seed)


BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_pruning_stats_keys_match_benchmark(tmp_path):
    # The benchmark's traced run reports one `verifier.stats.<key>` figure per
    # pruning_stats key, so the key set is part of its interface.
    prefix = "verifier.stats."
    declared = {
        metric["name"][len(prefix):]
        for metric in json.loads(BENCHMARK.read_text())["per_layer"]
        if metric["name"].startswith(prefix)
    }
    q2 = solid_pyramid(2)
    w2 = q2.named_sets["W_2"]
    b1 = box([2, 2], 1)
    sx = suspension(simple_closed_curve(8).image)
    u = min(sx.named_sets["U"])
    reports = [
        is_freezing(q2.image, w2),
        is_freezing(q2.image, w2 | q2.named_sets["U"]),
        is_s_cold(sx.image, sx.named_sets["X_base"], 0),
        is_limiting(sx.image, [x for x in range(sx.image.n) if x != u], 1, 1),
        is_minimal_freezing(b1.image, b1.named_sets["Bd"]),
        is_minimal_freezing(b1.image, b1.named_sets["corners"]),
    ]
    runner = CliRunner()
    doc = tmp_path / "q2.json"
    built = runner.invoke(main, ["build", "solid-pyramid", "--n", "2", "--out", str(doc)])
    assert built.exit_code == 0, built.output
    verified = runner.invoke(
        main, ["--quiet", "verify", "freezing", "--image", str(doc), "--set", "W_2",
               "--out", str(tmp_path / "report.json")]
    )
    assert verified.exit_code == 1, verified.output
    cli_stats = json.loads((tmp_path / "report.json").read_text())["pruning_stats"]
    for stats in [r.pruning_stats for r in reports] + [cli_stats]:
        assert set(stats) == declared
        assert all(type(v) is int for v in stats.values())


def test_freezing_monotone_under_supersets():
    b1 = box([2, 2], 1)
    corners = b1.named_sets["corners"]
    assert is_freezing(b1.image, corners).verdict == HOLDS
    for extra in range(b1.image.n):
        assert is_freezing(b1.image, corners | {extra}).verdict == HOLDS


def test_reports_are_deterministic():
    q2 = solid_pyramid(2)
    first = is_freezing(q2.image, q2.named_sets["W_2"])
    second = is_freezing(q2.image, q2.named_sets["W_2"])
    assert first.witness.assignment == second.witness.assignment
    assert first.nodes_expanded == second.nodes_expanded


def test_budget_exhaustion_is_unknown():
    q2 = solid_pyramid(2)
    starved = is_freezing(
        q2.image, q2.named_sets["W_2"], SearchBudget(max_nodes=1)
    )
    assert starved.verdict == UNKNOWN
    assert starved.witness is None


def test_disconnected_rejected():
    img = DigitalImage(3, [(0, 1)])
    with pytest.raises(DisconnectedImageError):
        is_freezing(img, [0])


def test_invalid_subset_rejected():
    img = interval(0, 2).image
    with pytest.raises(Exception):
        is_freezing(img, [0, 9])


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SearchBudget(max_millis=0)
