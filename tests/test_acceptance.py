"""Acceptance suite: one test per theorem-instance criterion.

Each test replays the corresponding paper-suite row at scale 2 and prints a
single pass/fail line (visible with `pytest -s` or on failure).  Every
criterion must pass; `unknown` counts as a failure.  The last test judges
the suite itself: rows must fail when a decider gives wrong answers.
"""

import dataclasses

import pytest

from digitop import suite
from digitop.suite import ROWS, run_suite
from digitop.verifier import DEFAULT_BUDGET, FAILS, HOLDS, UNKNOWN


@pytest.fixture(scope="module")
def results():
    rows = run_suite(scale=2, budget=DEFAULT_BUDGET)
    return {row.number: row for row in rows}


def _check(results, number):
    row = results[number]
    ok = row.status == "pass"
    verdict = "pass" if ok else "FAIL"
    print(f"criterion {number:2d} [{verdict}] {row.title}: {row.status} ({row.detail})")
    assert ok, f"criterion {number}: {row.status} - {row.detail}"


def test_criterion_01_cone_freezing(results):
    _check(results, 1)


def test_criterion_02_suspension_transfer(results):
    _check(results, 2)


def test_criterion_03_poles_necessity(results):
    _check(results, 3)


def test_criterion_04_diameter_bound(results):
    _check(results, 4)


def test_criterion_05_dominating_bound(results):
    _check(results, 5)


def test_criterion_06_pyramid_minimal_freezing(results):
    _check(results, 6)


def test_criterion_07_solid_pyramid_minimal_freezing(results):
    _check(results, 7)


def test_criterion_08_bipyramid_freezing(results):
    _check(results, 8)


def test_criterion_09_solid_bipyramid_stretch(results):
    _check(results, 9)


def test_criterion_10_box_theorems(results):
    _check(results, 10)


def test_criterion_11_cold_and_limiting(results):
    _check(results, 11)


def test_criterion_12_oracle_equivalence(results):
    _check(results, 12)


def test_criterion_13_isomorphism_invariance(results):
    _check(results, 13)


def test_suite_covers_all_criteria():
    assert [number for number, _, _ in ROWS] == list(range(1, 14))


def test_pyramid_rows_pass_at_scale_4():
    # Rows 6-9 ask the pyramid families for n = 1..scale; the other rows
    # ignore the scale.
    rows = run_suite(scale=4, only=[6, 7, 8, 9])
    assert [(row.number, row.status) for row in rows] == [
        (6, "pass"), (7, "pass"), (8, "pass"), (9, "pass")
    ]


_DECIDERS = ("is_freezing", "is_s_cold", "is_limiting", "is_minimal_freezing")
_FLIP = {HOLDS: FAILS, FAILS: HOLDS, UNKNOWN: UNKNOWN}


@pytest.mark.parametrize(
    "deciders, wrong_verdict, must_fail",
    [
        (_DECIDERS, lambda verdict: HOLDS, {1, 2, 3, 5, 6, 7, 11, 12, 13}),
        (_DECIDERS, lambda verdict: FAILS, {1, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13}),
        (["is_minimal_freezing"], _FLIP.get, {2, 6, 7, 9, 10}),
        (["is_freezing"], _FLIP.get, {1, 2, 3, 6, 7, 8, 10, 12, 13}),
        (["is_limiting"], _FLIP.get, {5, 11, 12}),
        (["is_s_cold"], _FLIP.get, {12, 13}),
    ],
    ids=[
        "always-holds",
        "always-fails",
        "minimal-flipped",
        "freezing-flipped",
        "limiting-flipped",
        "s-cold-flipped",
    ],
)
def test_rows_catch_a_wrong_decider(monkeypatch, deciders, wrong_verdict, must_fail):
    # The judge of the suite itself: each decider the suite calls, made to
    # lie, must fail at least these rows at scale 1.  A holds answer carries
    # no witness.
    for name in deciders:

        def wrong(*args, decide=getattr(suite, name), **kwargs):
            report = decide(*args, **kwargs)
            verdict = wrong_verdict(report.verdict)
            witness = None if verdict == HOLDS else report.witness
            return dataclasses.replace(report, verdict=verdict, witness=witness)

        monkeypatch.setattr(suite, name, wrong)
    failing = {row.number for row in run_suite(scale=1) if row.status != "pass"}
    assert must_fail <= failing
