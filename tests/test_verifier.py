import json
import time
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
    UNKNOWN,
    SearchBudget,
    enumerate_continuous_self_maps,
    is_freezing,
    is_limiting,
    is_minimal_freezing,
    is_s_cold,
    search_minimal_freezing,
)
from digitop.suite import naive_verdict


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


def test_enumeration_out_of_budget_raises_timeout():
    with pytest.raises(TimeoutError):
        enumerate_continuous_self_maps(
            interval(0, 2).image, budget=SearchBudget(max_nodes=3)
        )


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_continuous_self_maps(DigitalImage(65, []))


def test_freezing_cone_base():
    cx = cone(simple_closed_curve(8).image)
    base = sorted(cx.named_sets["X_base"])
    report = is_freezing(cx.image, base)
    assert report.verdict == HOLDS
    assert report.witness is None
    result = is_freezing(cx.image, base[1:])
    assert result.verdict == FAILS
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
            if is_freezing(image, rest).verdict == HOLDS:
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


def _assert_freezing_witness(image, members, report):
    f = report.witness
    assert is_continuous(f)
    assert set(members) <= fixed_points(f)
    assert f.assignment != tuple(range(image.n))


def test_long_witness_on_cycle_does_not_recurse():
    # The witness assigns every vertex, one DFS node each: 1,199 levels deep.
    c = simple_closed_curve(1200).image
    report = is_freezing(c, [0, 1])
    assert report.verdict == FAILS
    assert report.nodes_expanded == 1199
    _assert_freezing_witness(c, [0, 1], report)


def test_long_witness_on_box_does_not_recurse():
    b = box([32, 32], 1)
    corner = min(b.named_sets["corners"])
    report = is_freezing(b.image, [corner])
    assert report.verdict == FAILS
    assert report.nodes_expanded == 1089
    _assert_freezing_witness(b.image, [corner], report)


def test_a_radius_past_the_diameter_is_answered_within_the_budget():
    # Balls are built before the search clock starts; they stop growing at
    # the diameter, so a huge m, n or s costs no more than the diameter.
    # Each query's time is the best of three runs, so one load spike on a
    # shared host does not fail it; a radius walked past the diameter is
    # slow in every run.
    budget = SearchBudget(max_millis=50)
    slack_ms = 250
    c8 = simple_closed_curve(8).image
    b = box([32, 32], 1)
    corner = min(b.named_sets["corners"])
    for query, verdict in (
        (lambda: is_s_cold(c8, [0], 10**6, budget), HOLDS),
        (lambda: is_limiting(c8, [0], 1, 10**6, budget), HOLDS),
        (lambda: is_limiting(c8, [0], 10**6, 3, budget), FAILS),
        (lambda: is_s_cold(b.image, [corner], 1000, budget), HOLDS),
    ):
        times_ms = []
        for _ in range(3):
            t0 = time.monotonic()
            report = query()
            times_ms.append((time.monotonic() - t0) * 1000)
            assert report.verdict == verdict
        assert min(times_ms) <= budget.max_millis + slack_ms


def test_time_budget_is_kept_in_root_propagation_and_search():
    # Unbudgeted, the freezing query searches C_3000 for about 4.5 s, and
    # the s-cold query spends 280-390 ms in root propagation on C_12000
    # before it answers holds at the root.
    budget = SearchBudget(max_millis=50)
    slack_ms = 250
    c3000 = simple_closed_curve(3000).image
    c12000 = simple_closed_curve(12000).image
    for query in (
        lambda: is_freezing(c3000, [0, 1], budget),
        lambda: is_s_cold(c12000, [0, 4000, 8000], 1, budget),
    ):
        t0 = time.monotonic()
        report = query()
        elapsed_ms = (time.monotonic() - t0) * 1000
        assert report.verdict == UNKNOWN
        assert elapsed_ms <= budget.max_millis + slack_ms


def test_node_cap_counts_only_expanded_nodes():
    # The refutation of {0,1} on C_400 expands 399 nodes, one per vertex.
    c = simple_closed_curve(400).image
    assert is_freezing(c, [0, 1]).nodes_expanded == 399
    for cap, verdict in ((50, UNKNOWN), (398, UNKNOWN), (399, FAILS)):
        report = is_freezing(c, [0, 1], SearchBudget(max_nodes=cap))
        assert report.verdict == verdict
        assert report.nodes_expanded == min(cap, 399)


def test_minimality_queries_spend_one_time_budget():
    # Unbudgeted, the minimality check takes about 0.3 s and the search 5 s.
    budget = SearchBudget(max_millis=50)
    slack_ms = 250
    q4 = solid_pyramid(4)
    t0 = time.monotonic()
    report = is_minimal_freezing(q4.image, q4.named_sets["U"] | q4.named_sets["W_4"], budget)
    assert report.verdict == UNKNOWN
    assert (time.monotonic() - t0) * 1000 <= budget.max_millis + slack_ms
    q6 = solid_pyramid(6).image
    t0 = time.monotonic()
    assert search_minimal_freezing(q6, None, budget).status == UNKNOWN
    assert (time.monotonic() - t0) * 1000 <= budget.max_millis + slack_ms


def test_minimality_queries_spend_one_node_budget():
    p2 = pyramid(2)
    report = is_minimal_freezing(p2.image, p2.named_sets["T_2"], SearchBudget(max_nodes=3))
    assert report.verdict == UNKNOWN
    assert report.nodes_expanded <= 3
    assert report.detail.startswith("sub-query for deletion of")
    starved = search_minimal_freezing(pyramid(4).image, None, SearchBudget(max_nodes=20))
    assert starved.status == UNKNOWN
    assert starved.members is None
    assert starved.nodes <= 20


def test_minimal_report_counts_each_search_once():
    # A minimal set's report covers the search for S and one for each S - {a}.
    p2, q2 = pyramid(2), solid_pyramid(2)
    for nc, members in (
        (p2, p2.named_sets["T_2"]),
        (q2, q2.named_sets["U"] | q2.named_sets["W_2"]),
    ):
        report = is_minimal_freezing(nc.image, members)
        assert report.verdict == HOLDS
        parts = [is_freezing(nc.image, members)]
        parts += [is_freezing(nc.image, members - {a}) for a in sorted(members)]
        assert report.nodes_expanded == sum(r.nodes_expanded for r in parts)
        for key, value in report.pruning_stats.items():
            assert value == sum(r.pruning_stats[key] for r in parts)


def test_a_wipeout_refutes_a_branch():
    # The smallest graph found where propagation empties a domain below the
    # root: the branch is dropped and the search goes on to a witness.
    edges = [(0, 1), (0, 3), (0, 6), (1, 2), (2, 4), (2, 6), (4, 5), (4, 6)]
    image = DigitalImage(7, edges)
    report = is_limiting(image, range(7), 1, 0)
    assert report.verdict == FAILS
    assert report.verdict == naive_verdict(image, "limiting", range(7), {"m": 1, "n": 0})
    assert report.pruning_stats["wipeouts"] >= 1
    assert report.nodes_expanded == 6
    f = report.witness
    assert is_continuous(f)
    assert max_displacement(f) == 1
