import json

import pytest
from click.testing import CliRunner

from digitop.cli import main
from digitop.maps import fixed_points, is_continuous
from digitop.serialization import document_to_complex, witness_from_document


@pytest.fixture
def runner():
    return CliRunner()


def build(runner, tmp_path, name, *args):
    out = tmp_path / f"{name}.json"
    result = runner.invoke(main, ["--quiet", "build", *args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


def test_build_pyramid(runner, tmp_path):
    path = build(runner, tmp_path, "p2", "pyramid", "--n", "2")
    doc = json.loads(path.read_text())
    assert len(doc["vertices"]) == 25
    assert "T_2" in doc["named_sets"]


def test_build_suspension_over_cycle(runner, tmp_path):
    path = build(runner, tmp_path, "sx4", "suspension", "--base", "cycle", "--m", "4")
    doc = json.loads(path.read_text())
    assert len(doc["vertices"]) == 6
    assert set(doc["named_sets"]) >= {"U", "L", "X_base"}


def test_build_box(runner, tmp_path):
    path = build(runner, tmp_path, "b", "box", "--extents", "2,2", "--u", "1")
    doc = json.loads(path.read_text())
    assert len(doc["vertices"]) == 9
    assert set(doc["named_sets"]) == {"corners", "Bd"}


def test_build_bad_params(runner):
    result = runner.invoke(main, ["build", "pyramid"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["build", "cycle", "--m", "3"])
    assert result.exit_code == 2


def test_verify_exit_codes(runner, tmp_path):
    p2 = build(runner, tmp_path, "p2", "pyramid", "--n", "2")
    holds = runner.invoke(
        main, ["--quiet", "verify", "freezing", "--image", str(p2), "--set", "T_2"]
    )
    assert holds.exit_code == 0

    q2 = build(runner, tmp_path, "q2", "solid-pyramid", "--n", "2")
    fails = runner.invoke(
        main, ["verify", "freezing", "--image", str(q2), "--set", "W_2"]
    )
    assert fails.exit_code == 1
    report = json.loads(fails.output)
    assert report["verdict"] == "fails"

    starved = runner.invoke(
        main,
        [
            "--budget-nodes", "1", "--quiet",
            "verify", "freezing", "--image", str(q2), "--set", "W_2",
        ],
    )
    assert starved.exit_code == 3

    bad = runner.invoke(
        main, ["verify", "freezing", "--image", str(p2), "--set", "nope"]
    )
    assert bad.exit_code == 2


def test_verify_witness_revalidates(runner, tmp_path):
    q2 = build(runner, tmp_path, "q2", "solid-pyramid", "--n", "2")
    result = runner.invoke(
        main, ["verify", "freezing", "--image", str(q2), "--set", "W_2"]
    )
    doc = json.loads(result.output)
    nc = document_to_complex(json.loads(q2.read_text()))
    f = witness_from_document(doc, nc.image)
    assert is_continuous(f)
    assert nc.named_sets["W_2"] <= fixed_points(f)
    assert f.assignment != tuple(range(nc.image.n))


def test_verify_set_expressions(runner, tmp_path):
    sx = build(runner, tmp_path, "sx8", "suspension", "--base", "cycle", "--m", "8")
    limiting = runner.invoke(
        main,
        [
            "--quiet", "verify", "limiting",
            "--image", str(sx), "--set", "all-minus-U", "--m", "1", "--n", "1",
        ],
    )
    assert limiting.exit_code == 1

    union = runner.invoke(
        main,
        ["--quiet", "verify", "freezing", "--image", str(sx), "--set", "X_base+U+L"],
    )
    assert union.exit_code == 0

    ids_file = tmp_path / "ids.json"
    nc = document_to_complex(json.loads(sx.read_text()))
    ids_file.write_text(json.dumps(sorted(range(nc.image.n))))
    from_file = runner.invoke(
        main,
        ["--quiet", "verify", "freezing", "--image", str(sx), "--set", str(ids_file)],
    )
    assert from_file.exit_code == 0


def _assert_usage_error(result):
    # Exit status 1 means `fails`; bad input must exit 2 with one error line.
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert len([line for line in result.output.splitlines() if "Error" in line]) == 1


def test_verify_rejects_out_of_range_id(runner, tmp_path):
    b = build(runner, tmp_path, "b", "box", "--extents", "2,2", "--u", "1")
    ids = tmp_path / "ids.json"
    ids.write_text(json.dumps([0, 99]))
    _assert_usage_error(
        runner.invoke(main, ["verify", "freezing", "--image", str(b), "--set", str(ids)])
    )


def test_verify_rejects_non_integer_id(runner, tmp_path):
    b = build(runner, tmp_path, "b", "box", "--extents", "2,2", "--u", "1")
    ids = tmp_path / "ids.json"
    ids.write_text(json.dumps(["a"]))
    _assert_usage_error(
        runner.invoke(main, ["verify", "freezing", "--image", str(b), "--set", str(ids)])
    )


def test_verify_rejects_vertex_without_id(runner, tmp_path):
    b = build(runner, tmp_path, "b", "box", "--extents", "2,2", "--u", "1")
    doc = json.loads(b.read_text())
    del doc["vertices"][3]["id"]
    b.write_text(json.dumps(doc))
    _assert_usage_error(
        runner.invoke(main, ["verify", "freezing", "--image", str(b), "--set", "all"])
    )


def test_verify_rejects_negative_bounds(runner, tmp_path):
    b = build(runner, tmp_path, "b", "box", "--extents", "2,2", "--u", "1")
    query = ["--image", str(b), "--set", "corners"]
    _assert_usage_error(runner.invoke(main, ["verify", "cold", *query, "--s", "-1"]))
    _assert_usage_error(
        runner.invoke(main, ["verify", "limiting", *query, "--m", "-1", "--n", "0"])
    )


def test_verify_cold(runner, tmp_path):
    cx = build(runner, tmp_path, "cx8", "cone", "--base", "cycle", "--m", "8")
    result = runner.invoke(
        main,
        ["--quiet", "verify", "cold", "--image", str(cx), "--set", "X_base", "--s", "1"],
    )
    assert result.exit_code == 0


def test_minimal_command(runner, tmp_path):
    b1 = build(runner, tmp_path, "b1", "box", "--extents", "2,2", "--u", "1")
    result = runner.invoke(
        main, ["--quiet", "minimal", "--image", str(b1), "--set", "Bd"]
    )
    assert result.exit_code == 1  # corners are a proper freezing subset


def test_search_minimal(runner, tmp_path):
    b1 = build(runner, tmp_path, "b1", "box", "--extents", "2,2", "--u", "1")
    result = runner.invoke(main, ["search-minimal", "--image", str(b1)])
    assert result.exit_code == 0
    nc = document_to_complex(json.loads(b1.read_text()))
    assert set(json.loads(result.output)) == set(nc.named_sets["corners"])

    seeded = runner.invoke(
        main, ["search-minimal", "--image", str(b1), "--set", "corners"]
    )
    assert set(json.loads(seeded.output)) == set(nc.named_sets["corners"])


def test_search_minimal_rejects_non_freezing_seed(runner, tmp_path):
    sx = build(runner, tmp_path, "sx4", "suspension", "--base", "cycle", "--m", "4")
    result = runner.invoke(
        main, ["search-minimal", "--image", str(sx), "--set", "X_base"]
    )
    assert result.exit_code == 2


def test_metric(runner, tmp_path):
    b1 = build(runner, tmp_path, "b1", "box", "--extents", "2,2", "--u", "1")
    diam = runner.invoke(main, ["metric", "--image", str(b1), "--diameter"])
    assert diam.output.strip() == "4"
    dist = runner.invoke(
        main, ["metric", "--image", str(b1), "--source", "0", "--target", "8"]
    )
    assert dist.output.strip() == "4"
    missing = runner.invoke(main, ["metric", "--image", str(b1)])
    assert missing.exit_code == 2


def test_export_dot_and_json(runner, tmp_path):
    cx = build(runner, tmp_path, "cx4", "cone", "--base", "cycle", "--m", "4")
    dot = runner.invoke(main, ["export", "--image", str(cx), "--format", "dot"])
    assert dot.exit_code == 0
    assert dot.output.count(" -- ") == 8
    assert dot.output.count("[label=") == 5

    as_json = runner.invoke(main, ["export", "--image", str(cx), "--format", "json"])
    assert json.loads(as_json.output) == json.loads(cx.read_text())


def test_paper_suite_scale1(runner):
    result = runner.invoke(main, ["paper-suite", "--scale", "1"])
    assert result.exit_code == 0, result.output
    lines = [line for line in result.output.splitlines() if line.strip()]
    assert len(lines) == 13
    assert all("PASS" in line for line in lines)


def test_paper_suite_starvation(runner):
    result = runner.invoke(
        main, ["--budget-nodes", "1", "paper-suite", "--scale", "1"]
    )
    assert result.exit_code == 3
    assert "UNKNOWN" in result.output
