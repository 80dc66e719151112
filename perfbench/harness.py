"""Set-up, timed rounds and output checks for the benchmark's workloads.

A round asks every query of a workload once, in the seeded order, from
freshly built (or, for verify-cold, freshly loaded) images.  `paper-suite`
and `lattice` call digitop's public functions directly; `verify-cold` runs
`digitop verify` in-process through click's CliRunner.  Every answer is
checked after its call returns, outside the timed region.
"""

from __future__ import annotations

import json
import random
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from click.testing import CliRunner

from digitop import cli as digitop_cli
from digitop import serialization, verifier
from digitop.graph import DigitalImage
from digitop.maps import Mapping, fixed_points, is_continuous, max_displacement
from digitop.serialization import complex_to_document
from digitop.suite import naive_verdict

import spans
from workloads import FAILS, HOLDS, MINIMAL, WORKLOADS, Job, Query

NAIVE_MAX_VERTICES = 12

SPAN_OF = {
    "freezing": spans.QUERY,
    "s_cold": spans.QUERY,
    "limiting": spans.QUERY,
    "enumerate": spans.ENUMERATE,
    "minimal": spans.ORCHESTRATION,
    "search_minimal": spans.ORCHESTRATION,
}
CLI_PROPERTY = {"freezing": "freezing", "s_cold": "cold", "limiting": "limiting", "minimal": "minimal"}
EXIT_CODE = {HOLDS: 0, FAILS: 1}
# Spans each workload must record in a traced round; a name that records no
# call means a renamed import stopped a probe from firing.
EXPECTED_SPANS = {
    "paper-suite": (spans.BUILD, spans.METRIC, spans.QUERY, spans.ENUMERATE, spans.ORCHESTRATION),
    "lattice": (spans.BUILD, spans.METRIC, spans.QUERY),
    "verify-cold": (
        spans.INVOKE, spans.LOAD, spans.BUILD, spans.METRIC,
        spans.QUERY, spans.ORCHESTRATION, spans.REPORT,
    ),
}


@dataclass
class Outcome:
    qid: str
    ms: float
    answer: object  # verdict, map count or found set; None if the call raised
    nodes: Optional[int]
    error: Optional[str]  # None when every check passed


@dataclass
class Invocation:
    qid: str
    image_key: str
    args: List[str]
    query: Query


@dataclass
class Plan:
    workload: str
    seed: int
    jobs: List[Job]
    invocations: List[Invocation] = field(default_factory=list)
    images: Dict[str, DigitalImage] = field(default_factory=dict)


def setup(workload: str, seed: int, workdir: Path, small: bool = False) -> Plan:
    """Generate the seeded workload; for verify-cold also write its image
    and id-list documents into `workdir`."""
    plan = Plan(workload, seed, WORKLOADS[workload](small))
    if workload != "verify-cold":
        return plan
    for job in plan.jobs:
        nc = job.build()
        plan.images[job.key] = nc.image
        doc = workdir / f"{len(plan.images)}.json"
        doc.write_text(json.dumps(complex_to_document(nc)))
        for i, q in enumerate(_seeded_queries(job, nc, seed)):
            qid = f"{job.key}#{i}"
            spec = q.cli_set
            if spec is None:
                ids = workdir / f"{len(plan.images)}-{i}.ids.json"
                ids.write_text(json.dumps(list(q.members)))
                spec = str(ids)
            args = ["verify", CLI_PROPERTY[q.prop], "--image", str(doc), "--set", spec]
            for name, value in q.params:
                args += [f"--{name}", str(value)]
            plan.invocations.append(Invocation(qid, job.key, args, q))
    random.Random(seed).shuffle(plan.invocations)
    return plan


def _seeded_queries(job: Job, nc, seed: int) -> List[Query]:
    """The job's queries, with variants picked by a generator seeded from the
    run's seed and the image, so they do not depend on job order."""
    return job.queries(nc, random.Random(f"{seed}/{job.key}"))


# -- checks ------------------------------------------------------------------------


def _witness_error(image: DigitalImage, q: Query, assignment) -> Optional[str]:
    f = Mapping(image, image, tuple(assignment))
    params = dict(q.params)
    if not is_continuous(f):
        return "witness is not continuous"
    if q.prop in ("freezing", "minimal", "s_cold") and not set(q.members) <= fixed_points(f):
        return "witness moves a pinned vertex"
    if q.prop in ("freezing", "minimal") and f.assignment == tuple(range(image.n)):
        return "witness is the identity"
    if q.prop == "s_cold" and max_displacement(f) <= params["s"]:
        return "witness displaces nothing past s"
    if q.prop == "limiting" and (
        max_displacement(f, q.members) > params["m"] or max_displacement(f) <= params["n"]
    ):
        return "witness breaks the limiting hypothesis or meets its conclusion"
    return None


def _naive(image: DigitalImage, q: Query) -> str:
    params = dict(q.params)
    if q.prop != "minimal":
        return naive_verdict(image, q.prop, q.members, params)
    if naive_verdict(image, "freezing", q.members) == FAILS:
        return FAILS
    for a in q.members:
        if naive_verdict(image, "freezing", [x for x in q.members if x != a]) == HOLDS:
            return FAILS
    return HOLDS


class Checker:
    """Checks answers against the theorems, their witnesses and, on images of
    at most 12 vertices, the naive oracle.  Oracle answers are computed on a
    separate copy of the image, once per query and run."""

    def __init__(self) -> None:
        self._oracle: Dict[tuple, object] = {}

    def _once(self, key: tuple, compute):
        if key not in self._oracle:
            self._oracle[key] = compute()
        return self._oracle[key]

    def check(self, image_key: str, image: DigitalImage, fresh, q: Query,
              answer, witness) -> Optional[str]:
        key = (image_key, q)
        if q.prop == "search_minimal":
            if q.expect != MINIMAL:
                return None if answer == q.expect else f"found {answer}, expected {sorted(q.expect)}"
            ok = isinstance(answer, frozenset) and self._once(
                key + (answer,),
                lambda: verifier.is_minimal_freezing(fresh(), answer).verdict == HOLDS,
            )
            return None if ok else f"found set {answer} is not minimal freezing"
        if answer != q.expect:
            return f"answered {answer}, expected {q.expect}"
        if q.prop == "enumerate":
            return None
        if answer == FAILS and witness is not None:
            err = _witness_error(image, q, witness)
            if err:
                return err
        if image.n <= NAIVE_MAX_VERTICES:
            naive = self._once(key, lambda: _naive(fresh(), q))
            if naive != answer:
                return f"naive oracle says {naive}"
        return None


# -- direct rounds (paper-suite, lattice) ------------------------------------------


def _ask(image: DigitalImage, q: Query):
    """One top-level call: (answer, nodes, pruning stats, witness)."""
    p = dict(q.params)
    if q.prop == "search_minimal":
        res = verifier.search_minimal_freezing(image)
        return res.members if res.status == "found" else res.status, res.nodes, None, None
    if q.prop == "enumerate":
        count = verifier.enumerate_continuous_self_maps(image, q.members)
        return (count.count if count.exact else "capped"), None, None, None
    if q.prop == "freezing":
        rep = verifier.is_freezing(image, q.members)
    elif q.prop == "s_cold":
        rep = verifier.is_s_cold(image, q.members, p["s"])
    elif q.prop == "limiting":
        rep = verifier.is_limiting(image, q.members, p["m"], p["n"])
    else:
        rep = verifier.is_minimal_freezing(image, q.members)
    witness = rep.witness.assignment if rep.witness else None
    return rep.verdict, rep.nodes_expanded, rep.pruning_stats, witness


def _direct_round(plan: Plan, tracer, checker: Checker) -> Tuple[float, List[Outcome]]:
    """Build every image, then ask all queries in one seeded order across
    images.  Interleaving spreads each image's queries over the round, so a
    passing slowdown of the machine does not shift a whole cluster of
    similar queries.  Images live until the round ends, which keeps peak
    memory independent of the order."""
    outcomes: List[Outcome] = []
    paused = 0.0
    start = time.perf_counter()
    images = {}
    todo = []
    for job in plan.jobs:
        with tracer.span(spans.BUILD, image=job.key) as rec:
            nc = job.build()
        if rec is not None:
            rec["vertices"] = nc.image.n
        images[job.key] = nc
        todo += [(job, i, q) for i, q in enumerate(_seeded_queries(job, nc, plan.seed))]
    random.Random(plan.seed).shuffle(todo)
    measured = set()
    for job, i, q in todo:
        nc = images[job.key]
        if tracer.enabled and job.key not in measured:
            measured.add(job.key)
            with tracer.span(spans.METRIC, image=job.key):
                nc.image.is_connected()
        qid = f"{job.key}#{i}"
        answer = nodes = witness = error = None
        t0 = time.perf_counter()
        try:
            with tracer.span(SPAN_OF[q.prop], qid, image=job.key) as rec:
                answer, nodes, stats, witness = _ask(nc.image, q)
                if rec is not None:
                    rec.update(nodes=nodes, verdict=answer, stats=stats)
        except Exception:  # a crash is a failed query, not a stopped run
            error = traceback.format_exc(limit=-3)
        ms = (time.perf_counter() - t0) * 1000
        c0 = time.perf_counter()
        if error is None:
            error = checker.check(job.key, nc.image, lambda: job.build().image,
                                  q, answer, witness)
        paused += time.perf_counter() - c0
        outcomes.append(Outcome(qid, ms, answer, nodes, error))
    return time.perf_counter() - start - paused, outcomes


# -- CLI rounds (verify-cold) ------------------------------------------------------


class _BuildProbe:
    """Stands in for DigitalImage inside digitop.serialization, so that image
    construction while loading a document is its own span."""

    def __init__(self, tracer) -> None:
        self._tracer = tracer

    def _built(self, make, *args, **kwargs) -> DigitalImage:
        with self._tracer.span(spans.BUILD) as rec:
            image = make(*args, **kwargs)
            rec["vertices"] = image.n
        return image

    def __call__(self, *args, **kwargs) -> DigitalImage:
        return self._built(DigitalImage, *args, **kwargs)

    def from_points(self, *args, **kwargs) -> DigitalImage:
        return self._built(DigitalImage.from_points, *args, **kwargs)


def _spanned(tracer, name: str, fn):
    def wrapped(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapped


def _spanned_decider(tracer, name: str, fn):
    def wrapped(image, *args, **kwargs):
        with tracer.span(spans.METRIC):
            image.is_connected()
        with tracer.span(name) as rec:
            report = fn(image, *args, **kwargs)
            rec.update(image=rec["qid"], nodes=report.nodes_expanded,
                       verdict=report.verdict, stats=report.pruning_stats)
        return report
    return wrapped


@contextmanager
def _cli_probes(tracer):
    """Wrap the names digitop.cli calls into each layer, then restore them.
    getattr raises if a name has moved, so a probe cannot silently vanish."""
    patches = [
        (digitop_cli, "document_to_complex", _spanned(tracer, spans.LOAD, digitop_cli.document_to_complex)),
        (digitop_cli, "report_to_document", _spanned(tracer, spans.REPORT, digitop_cli.report_to_document)),
        (serialization, "DigitalImage", _BuildProbe(tracer)),
    ]
    for name in ("is_freezing", "is_s_cold", "is_limiting"):
        patches.append((digitop_cli, name, _spanned_decider(tracer, spans.QUERY, getattr(digitop_cli, name))))
    patches.append((digitop_cli, "is_minimal_freezing", _spanned_decider(
        tracer, spans.ORCHESTRATION, digitop_cli.is_minimal_freezing)))
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, probe in patches:
            setattr(module, name, probe)
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def _cli_round(plan: Plan, tracer, checker: Checker) -> Tuple[float, List[Outcome]]:
    runner = CliRunner()
    outcomes: List[Outcome] = []
    paused = 0.0
    with _cli_probes(tracer) if tracer.enabled else nullcontext():
        start = time.perf_counter()
        for inv in plan.invocations:
            t0 = time.perf_counter()
            with tracer.span(spans.INVOKE, inv.qid):
                result = runner.invoke(digitop_cli.main, inv.args)
            ms = (time.perf_counter() - t0) * 1000
            c0 = time.perf_counter()
            outcomes.append(_cli_outcome(plan, inv, result, ms, checker))
            paused += time.perf_counter() - c0
        wall = time.perf_counter() - start - paused
    return wall, outcomes


def _cli_outcome(plan: Plan, inv: Invocation, result, ms: float, checker: Checker) -> Outcome:
    q = inv.query
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        trace = "".join(traceback.format_exception(result.exception, limit=-3))
        return Outcome(inv.qid, ms, None, None, f"raised: {trace}")
    try:
        report = json.loads(result.stdout)
    except json.JSONDecodeError:
        return Outcome(inv.qid, ms, None, None, f"exit {result.exit_code}, no report")
    answer, nodes = report["verdict"], report["nodes_expanded"]
    if result.exit_code != EXIT_CODE.get(answer):
        error = f"exit code {result.exit_code} for verdict {answer}"
    elif report["set"] != list(q.members):
        error = f"set spec {q.cli_set or 'id file'} resolved to other vertices"
    else:
        image = plan.images[inv.image_key]
        error = checker.check(inv.image_key, image, lambda: image, q, answer, report["witness"])
    return Outcome(inv.qid, ms, answer, nodes, error)


def run_round(plan: Plan, tracer, checker: Checker) -> Tuple[float, List[Outcome]]:
    """Ask every query once.  Returns the round's wall time in seconds,
    check time excluded, and one outcome per query."""
    if plan.workload == "verify-cold":
        return _cli_round(plan, tracer, checker)
    return _direct_round(plan, tracer, checker)


def missing_spans(workload: str, recorded: List[dict]) -> List[str]:
    counts = spans.span_counts(recorded)
    return [name for name in EXPECTED_SPANS[workload] if not counts.get(name)]
