import copy
import gc
import json
import tracemalloc

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from digitop import cli
from digitop.cli import main
from digitop.constructions import box, cone, simple_closed_curve
from digitop.maps import fixed_points, is_continuous
from digitop.serialization import (
    complex_to_document,
    document_to_complex,
    witness_from_document,
)
from digitop.suite import naive_verdict


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


BOX = ["box", "--extents", "2,2"]  # vertex 1 is (0, 1), vertex 8 is (2, 2)

# Each value equals, or int() turns it into, an integer that fits the
# document, so a parser that accepts it answers about another image or crashes.
NON_INTEGER_VALUES = {
    "vertex id": (BOX, ["vertices", 1, "id"], 1.0),
    "edge endpoint": (["cycle", "--m", "4"], ["edges", 0, 1], True),
    "named-set member": (BOX, ["named_sets", "A", 0], 1.5),
    "coordinate float": (BOX, ["vertices", 8, "coords", 1], 2.5),
    "coordinate string": (BOX, ["vertices", 8, "coords", 1], "2"),
    "coordinate bool": (BOX, ["vertices", 1, "coords", 1], True),
    "adjacency u": (BOX, ["adjacency", "u"], True),
}


@pytest.mark.parametrize("field", sorted(NON_INTEGER_VALUES))
def test_verify_rejects_non_integer_document_values(runner, tmp_path, field):
    args, path, value = NON_INTEGER_VALUES[field]
    image = build(runner, tmp_path, "img", *args)
    doc = json.loads(image.read_text())
    doc["named_sets"]["A"] = [0]
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    image.write_text(json.dumps(doc))
    _assert_usage_error(
        runner.invoke(main, ["verify", "freezing", "--image", str(image), "--set", "A"])
    )


FUZZ_SEEDS = [
    complex_to_document(box([2, 1], 1)),
    complex_to_document(cone(simple_closed_curve(4).image)),
]
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 10),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-1, 6), max_size=3),
    st.dictionaries(st.sampled_from(["id", "u", "type", "coords"]), st.integers(0, 3), max_size=2),
)


def _slots(node):
    """Every (container, key) pair inside a JSON value."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(JSON_VALUES)
    return doc


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(mutated_documents(), st.sampled_from(["all", "corners", "X_base", "U"]))
def test_fuzzed_documents_never_crash(tmp_path, doc, spec):
    image = tmp_path / "fuzz.json"
    image.write_text(json.dumps(doc))
    for command in (["verify", "freezing", "--set", spec], ["search-minimal"]):
        _assert_no_crash(CliRunner().invoke(
            main, ["--budget-ms", "2000", "--quiet", *command, "--image", str(image)]
        ))


def _assert_no_crash(result):
    assert result.exit_code in (0, 1, 2, 3)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        f"{type(result.exception).__name__}: {result.exception}"
    )


SET_TERMS = st.one_of(
    st.sampled_from(["all", "corners", "Bd", "nope", ""]),
    st.text(alphabet="ab+-\x00", max_size=6),
    st.integers(300, 5000).map(lambda k: "a" * k),
)


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.integers(0, 3000), st.lists(SET_TERMS, min_size=1, max_size=3))
def test_fuzzed_set_specs_never_crash(tmp_path, complements, terms):
    image = tmp_path / "box.json"
    if not image.exists():
        image.write_text(json.dumps(complex_to_document(box([2, 2], 1))))
    spec = "all-minus-" * complements + "+".join(terms)
    _assert_no_crash(CliRunner().invoke(
        main, ["--quiet", "verify", "freezing", "--image", str(image), "--set", spec]
    ))


def test_set_spec_edge_cases(runner, tmp_path):
    b = build(runner, tmp_path, "b", "box", "--extents", "2,2", "--u", "1")
    query = ["verify", "freezing", "--image", str(b), "--set"]
    _assert_usage_error(runner.invoke(main, [*query, "a" * 5000]))
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)  # too deep for the JSON decoder
    _assert_usage_error(runner.invoke(main, [*query, str(nested)]))
    _assert_usage_error(runner.invoke(
        main, ["verify", "freezing", "--image", str(nested), "--set", "all"]
    ))
    # Nesting is resolved without recursion: an even number of complements
    # gives back the corners, which freeze the box; an odd number does not.
    for complements, exit_code in ((2000, 0), (2001, 1)):
        spec = "all-minus-" * complements + "corners"
        assert runner.invoke(main, ["--quiet", *query, spec]).exit_code == exit_code
    # An empty term is not read as a path: the error quotes the whole spec.
    for spec in ("corners+", "+corners", "all-minus-", "corners++Bd", ""):
        result = runner.invoke(main, [*query, spec])
        _assert_usage_error(result)
        assert f"set spec {spec!r} has an empty term" in result.output
    empty_seed = runner.invoke(main, ["search-minimal", "--image", str(b), "--set", ""])
    _assert_usage_error(empty_seed)


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
        main, ["--quiet", "verify", "minimal", "--image", str(b1), "--set", "Bd"]
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


def test_minimality_commands_keep_the_budget(runner, tmp_path):
    # Unbudgeted, `verify minimal` on Q_4 takes about 0.3 s and the search on
    # P_4 expands 129 nodes; both answer unknown within one budget.
    q4 = build(runner, tmp_path, "q4", "solid-pyramid", "--n", "4")
    verified = runner.invoke(main, [
        "--budget-ms", "50", "--quiet", "verify", "minimal", "--image", str(q4),
        "--set", "U+W_4",
    ])
    assert verified.exit_code == 3, verified.output
    p4 = build(runner, tmp_path, "p4", "pyramid", "--n", "4")
    searched = runner.invoke(
        main, ["--budget-nodes", "20", "search-minimal", "--image", str(p4)]
    )
    assert searched.exit_code == 3, searched.output
    assert searched.output.startswith("unknown")


def test_search_minimal_on_an_empty_lattice_image(runner, tmp_path):
    empty = tmp_path / "empty.json"
    for adjacency in ({"type": "cu", "u": 1}, {"type": "explicit"}):
        doc = {"format_version": 1, "dimension": 2, "adjacency": adjacency,
               "vertices": [], "named_sets": {}}
        empty.write_text(json.dumps(doc))
        result = runner.invoke(main, ["search-minimal", "--image", str(empty)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == []


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


def test_metric_names_an_unknown_vertex_without_quotes(runner, tmp_path):
    c6 = build(runner, tmp_path, "c6", "cycle", "--m", "6")
    result = runner.invoke(
        main, ["metric", "--image", str(c6), "--source", "0", "--target", "9"]
    )
    assert result.exit_code == 2
    assert "Error: vertex 9 outside 0..5\n" in result.output


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


@pytest.mark.parametrize("rows, bad", [("x", "x"), ("1,,2", ""), ("99", "99")])
def test_paper_suite_rejects_bad_rows(runner, rows, bad):
    result = runner.invoke(main, ["paper-suite", "--scale", "1", "--rows", rows])
    _assert_usage_error(result)
    assert f"--rows term {bad!r} is not a suite row; valid rows are 1-13" in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["build", "interval", "--a", "0"], "interval requires --a and --b"),
        (["build", "box", "--u", "1"], "box requires --extents"),
        (["build", "cycle"], "cycle requires --m"),
        (["build", "cone"], "cone requires --base or --base-image"),
        (["verify", "limiting", "--set", "corners", "--m", "1"], "limiting requires --m and --n"),
    ],
)
def test_missing_options_are_usage_errors(runner, tmp_path, args, message):
    b = build(runner, tmp_path, "b", "box", "--extents", "2,2", "--u", "1")
    if args[0] == "verify":
        args = args + ["--image", str(b)]
    result = runner.invoke(main, args)
    _assert_usage_error(result)
    assert message in result.output


def test_repeated_verify_does_not_keep_its_output(runner, tmp_path):
    # A benchmark runs `verify` in process thousands of times, so click's
    # stream cache must not keep each call's captured stdout (~2 KB) alive.
    b = build(runner, tmp_path, "b", "box", "--extents", "3,3", "--u", "1")
    args = ["verify", "freezing", "--image", str(b), "--set", "corners"]
    for _ in range(10):
        runner.invoke(main, args)
    gc.collect()
    tracemalloc.start()
    try:
        for _ in range(200):
            assert runner.invoke(main, args).exit_code == 0
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 100_000


def test_verify_calls_one_decider_global_per_property(runner, tmp_path, monkeypatch):
    # A traced benchmark run replaces these digitop.cli globals with timing
    # wrappers, so each `verify` property must go through its own one.
    deciders = {"freezing": "is_freezing", "cold": "is_s_cold",
                "limiting": "is_limiting", "minimal": "is_minimal_freezing"}
    calls = []
    for name in deciders.values():
        def recorder(*args, _name=name, _fn=getattr(cli, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(cli, name, recorder)
    sx = build(runner, tmp_path, "sx4", "suspension", "--base", "cycle", "--m", "4")
    query = ["--image", str(sx), "--set", "all"]
    bounds = {"cold": ["--s", "1"], "limiting": ["--m", "1", "--n", "1"]}
    for prop, name in deciders.items():
        calls.clear()
        result = runner.invoke(
            main, ["--quiet", "verify", prop, *query, *bounds.get(prop, [])]
        )
        assert result.exit_code in (0, 1), result.output
        assert calls == [name]

    c6 = simple_closed_curve(6).image
    for prop, params in (("freezing", {}), ("s_cold", {"s": 1}),
                         ("limiting", {"m": 1, "n": 1})):
        assert naive_verdict(c6, prop, [0, 3], params) in ("holds", "fails")
