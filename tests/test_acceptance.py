"""Acceptance suite: one test per theorem-instance criterion.

Each test replays the corresponding paper-suite row at scale 2 and prints a
single pass/fail line (visible with `pytest -s` or on failure).  Every
criterion must pass; `unknown` counts as a failure.
"""

import pytest

from digitop.suite import ROWS, run_suite
from digitop.verifier import DEFAULT_BUDGET


@pytest.fixture(scope="module")
def results():
    rows = run_suite(scale=2, budget=DEFAULT_BUDGET, seed=0)
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
