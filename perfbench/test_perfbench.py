"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

Small versions of each workload repeat exactly and pass every check, a
traced round records every span its workload expects, and the cycle rule
the workloads take their expected verdicts from agrees with the naive oracle.
"""

import itertools
import random
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from digitop import constructions  # noqa: E402
from digitop.suite import naive_verdict  # noqa: E402


def _round(name, seed, tracer):
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        plan = harness.setup(name, seed, Path(tmp), small=True)
        _, outcomes = harness.run_round(plan, tracer, harness.Checker())
    return outcomes


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_workload_repeats_exactly(name):
    first = _round(name, 7, spans.NullTracer())
    second = _round(name, 7, spans.NullTracer())
    assert [(o.qid, o.error) for o in first if o.error] == []
    assert [(o.qid, o.answer, o.nodes) for o in first] == [
        (o.qid, o.answer, o.nodes) for o in second
    ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_round_records_every_layer(name):
    tracer = spans.Tracer()
    outcomes = _round(name, 3, tracer)
    assert [(o.qid, o.error) for o in outcomes if o.error] == []
    assert harness.missing_spans(name, tracer.spans) == []
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["verifier.nodes"] + metrics["orchestration.nodes"] == sum(
        o.nodes for o in outcomes if o.nodes is not None
    )


@pytest.mark.parametrize("m", range(5, 11))
def test_cycle_rule_matches_naive_oracle(m):
    image = constructions.simple_closed_curve(m).image
    for points in itertools.combinations(range(m), 3):
        expected = "holds" if workloads.freezes_cycle(m, points) else "fails"
        assert naive_verdict(image, "freezing", points) == expected, points


@pytest.mark.parametrize("freezing", [True, False])
def test_three_points_have_the_asked_verdict(freezing):
    rng = random.Random(0)
    for m in range(5, 61):
        points = workloads.three_points(m, rng, freezing)
        assert len(set(points)) == 3
        assert workloads.freezes_cycle(m, points) == freezing, (m, points)
