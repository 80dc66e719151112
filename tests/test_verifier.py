import json
import math
import time
from itertools import product
from pathlib import Path

import pytest
from click.testing import CliRunner

from digitop.cli import main
from digitop.constructions import (
    bipyramid,
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
    DEFAULT_BUDGET,
    FAILS,
    FOUND,
    HOLDS,
    UNKNOWN,
    SearchBudget,
    _balls,
    _SelfMapSearch,
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
    # The upper half of H_2 does not freeze it, and the search needs 3 nodes
    # to show it: the root's lowest-value completion is the identity.
    h2 = bipyramid(2)
    assert is_freezing(h2.image, h2.named_sets["upper"]).nodes_expanded == 3
    starved = is_freezing(
        h2.image, h2.named_sets["upper"], SearchBudget(max_nodes=1)
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
    # The witness assigns each of the 1,198 free vertices, one DFS node
    # each: 1,198 levels deep.  With the two highest ids pinned, the root's
    # lowest-value completion is not continuous, so the search walks.
    c = simple_closed_curve(1200).image
    report = is_freezing(c, [1198, 1199])
    assert report.verdict == FAILS
    assert report.nodes_expanded == 1198
    _assert_freezing_witness(c, [1198, 1199], report)


def test_long_witness_on_box_does_not_recurse():
    # The far corner of [0,14]^3 under c_2: no branch is refuted on the way,
    # so the 1,148 nodes are 1,148 levels.  The root's lowest-value
    # completion is not continuous here.
    b = box([14, 14, 14], 2)
    corner = max(b.named_sets["corners"])
    report = is_freezing(b.image, [corner])
    assert report.verdict == FAILS
    assert report.nodes_expanded == 1148
    assert report.pruning_stats["wipeouts"] == report.pruning_stats["viability_pruned"] == 0
    _assert_freezing_witness(b.image, [corner], report)


def test_a_root_that_cannot_escape_is_pruned_in_one_node():
    # T_2 freezes P_2 at the root: propagation pins every vertex, so no
    # vertex can leave its 0-ball.  No map moves a vertex of C_8 past its
    # diameter, 4, so the empty set is 4-cold without any propagation.
    p2 = pyramid(2)
    c8 = simple_closed_curve(8).image
    for report in (is_freezing(p2.image, p2.named_sets["T_2"]), is_s_cold(c8, [], 4)):
        assert report.verdict == HOLDS
        assert report.nodes_expanded == 1
        assert report.pruning_stats["viability_pruned"] == 1


def test_the_search_keeps_only_the_balls():
    # reach holds B(x,m) and far B(v,n); with n == m they are one list, and
    # the search stores no other per-vertex list, so no complements.
    image = box([3, 3], 1).image
    for m, n in ((0, 0), (1, 1), (0, 2), (2, 1)):
        search = _SelfMapSearch(image, DEFAULT_BUDGET)
        search.limit(m, n)
        assert search.reach == _balls(image, m, math.inf)
        assert search.far == _balls(image, n, math.inf)
        assert (search.far is search.reach) == (m == n)
        per_vertex = [k for k, v in vars(search).items() if isinstance(v, list)]
        assert per_vertex == ["reach", "far"]


def test_the_witness_guard_raises_on_each_kind_of_invalid_leaf(monkeypatch):
    # A freezing search of C_8 with member 0 is fed three leaves, each wrong
    # in one way only: not continuous (4 jumps to 0), a member outside its
    # reach (a rotation moves 0), and no vertex outside its far ball (the
    # identity).  The guard in `counterexample` must reject each one.
    c8 = simple_closed_curve(8).image
    identity = tuple(range(8))
    jump = identity[:4] + (0,) + identity[5:]
    turn = tuple((v + 1) % 8 for v in range(8))
    assert not is_continuous(Mapping(c8, c8, jump))
    assert is_continuous(Mapping(c8, c8, turn))
    for leaf in (jump, turn, identity):
        search = _SelfMapSearch(c8, DEFAULT_BUDGET)
        search.limit(0, 0)
        monkeypatch.setattr(search, "leaves", lambda domains, leaf=leaf: iter([leaf]))
        with pytest.raises(RuntimeError, match="invalid limiting witness"):
            search.counterexample([0])


def test_the_root_completion_answers_in_one_node():
    # After root propagation the map sending each vertex to the lowest value
    # in its domain escapes and is continuous, so it is the witness: the one
    # node is the root.
    c = simple_closed_curve(1200).image
    b32 = box([32, 32], 1)
    b16 = box([16, 16], 2)
    corners16 = sorted(b16.named_sets["corners"])
    cases = [(c, [0, 1]), (b16.image, [x for x in corners16 if x != 288])]
    cases += [(b32.image, [corner]) for corner in sorted(b32.named_sets["corners"])]
    for image, members in cases:
        report = is_freezing(image, members)
        assert report.verdict == FAILS
        assert report.nodes_expanded == 1
        _assert_freezing_witness(image, members, report)


def _best_of_three_ms(query, verdict):
    """The least wall time of three calls to query, each of which must
    answer verdict: one load spike on a shared host cannot fail a bound on
    it, while a query that overruns its budget is slow in every run."""
    times_ms = []
    for _ in range(3):
        t0 = time.monotonic()
        answer = query()
        times_ms.append((time.monotonic() - t0) * 1000)
        assert answer == verdict
    return min(times_ms)


def test_a_radius_past_the_diameter_is_answered_within_the_budget():
    # Balls stop growing at the diameter, so a huge m, n or s costs no more
    # than the diameter.  They are built on the query's clock, which is read
    # once per growth step: box[100,100] under c_1 needs 198 steps, each
    # over 10,000 balls of 10,000 bits, so its budget runs out while the
    # balls grow and the report counts no node and no revision.
    budget = SearchBudget(max_millis=50)
    slack_ms = 250
    c8 = simple_closed_curve(8).image
    b = box([32, 32], 1)
    corner = min(b.named_sets["corners"])
    b100 = box([100, 100], 1)
    corners100 = sorted(b100.named_sets["corners"])
    for query, verdict in (
        (lambda: is_s_cold(c8, [0], 10**6, budget).verdict, HOLDS),
        (lambda: is_limiting(c8, [0], 1, 10**6, budget).verdict, HOLDS),
        (lambda: is_limiting(c8, [0], 10**6, 3, budget).verdict, FAILS),
        (lambda: is_s_cold(b.image, [corner], 1000, budget).verdict, HOLDS),
        (lambda: is_s_cold(b100.image, corners100, 10**6, budget).verdict, UNKNOWN),
    ):
        assert _best_of_three_ms(query, verdict) <= budget.max_millis + slack_ms
    starved = is_s_cold(b100.image, corners100, 10**6, budget)
    assert (starved.nodes_expanded, starved.revisions) == (0, 0)
    assert starved.elapsed_ms >= budget.max_millis


def test_time_budget_is_kept_in_root_propagation_and_search():
    # Unbudgeted, the freezing query searches C_3000 for 3.5-3.8 s, and the
    # s-cold query spends 0.95-1.0 s in root propagation on [0,24]^3 under
    # c_1 before it answers holds at the root (2-core x86-64, CPython 3.11):
    # several times the bound, so a propagation that never reads the clock
    # fails every run.
    budget = SearchBudget(max_millis=50)
    slack_ms = 250
    c3000 = simple_closed_curve(3000).image
    b24 = box([24, 24, 24], 1)
    corners = sorted(b24.named_sets["corners"])
    for query in (
        lambda: is_freezing(c3000, [2998, 2999], budget).verdict,
        lambda: is_s_cold(b24.image, corners, 1, budget).verdict,
    ):
        assert _best_of_three_ms(query, UNKNOWN) <= budget.max_millis + slack_ms


def test_node_cap_counts_only_expanded_nodes():
    # The refutation of {398,399} on C_400 expands 398 nodes, one per
    # vertex it assigns; {0,1} is refuted at the root.
    c = simple_closed_curve(400).image
    assert is_freezing(c, [398, 399]).nodes_expanded == 398
    for cap, verdict in ((50, UNKNOWN), (397, UNKNOWN), (398, FAILS)):
        report = is_freezing(c, [398, 399], SearchBudget(max_nodes=cap))
        assert report.verdict == verdict
        assert report.nodes_expanded == min(cap, 398)


def test_search_branches_on_the_lowest_free_vertex_id():
    # The search branches on the lowest vertex whose domain is not a
    # singleton, wherever the pinned vertices lie; these exact counts pin
    # that order.
    c600, c60 = simple_closed_curve(600).image, simple_closed_curve(60).image
    c400 = simple_closed_curve(400).image
    for report, nodes in (
        (is_freezing(c600, [300, 301]), 4),
        (is_s_cold(c60, [30, 31], 1), 4),
        (is_freezing(c400, [266, 267]), 134),
    ):
        assert report.verdict == FAILS
        assert report.nodes_expanded == nodes


def test_minimality_queries_spend_one_time_budget():
    # Unbudgeted, the minimality check on Q_8 takes 1.1-1.2 s and the search
    # on Q_7 0.8 s (best of three, 2-core x86-64, CPython 3.11): a budget
    # restarted for each sub-query overruns the bound in every run.
    budget = SearchBudget(max_millis=50)
    slack_ms = 250
    q8 = solid_pyramid(8)
    members = q8.named_sets["U"] | q8.named_sets["W_8"]
    q7 = solid_pyramid(7).image
    for query in (
        lambda: is_minimal_freezing(q8.image, members, budget).verdict,
        lambda: search_minimal_freezing(q7, None, budget).status,
    ):
        assert _best_of_three_ms(query, UNKNOWN) <= budget.max_millis + slack_ms


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


def test_reports_count_arc_revisions(tmp_path):
    # One revision per vertex taken off the propagation queue, root and
    # every node together; the counts are exact, like node counts.
    b60 = box([60, 60], 1)
    p2, q5 = pyramid(2), solid_pyramid(5)
    for report, nodes, revisions in (
        (is_s_cold(b60.image, b60.named_sets["corners"], 1), 1, 14_045),
        (is_minimal_freezing(p2.image, p2.named_sets["T_2"]), 31, 464),
        (is_minimal_freezing(q5.image, q5.named_sets["U"] | q5.named_sets["W_5"]),
         323, 52_335),
    ):
        assert report.verdict == HOLDS
        assert (report.nodes_expanded, report.revisions) == (nodes, revisions)
        assert "revisions" not in report.pruning_stats
    doc = tmp_path / "p2.json"
    runner = CliRunner()
    built = runner.invoke(main, ["build", "pyramid", "--n", "2", "--out", str(doc)])
    assert built.exit_code == 0, built.output
    verified = runner.invoke(
        main, ["--quiet", "verify", "minimal", "--image", str(doc), "--set", "T_2",
               "--out", str(tmp_path / "report.json")]
    )
    assert verified.exit_code == 0, verified.output
    printed = json.loads((tmp_path / "report.json").read_text())
    assert (printed["nodes_expanded"], printed["revisions"]) == (31, 464)


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
