"""Spans recorded around the benchmark's calls into digitop, and the
per-layer figures computed from them.

A span is a dict with `name`, `start`, `end`, `parent` (index of the
enclosing span or None) and `qid` (the query it serves), plus whatever the
caller attaches: `nodes`, `verdict` and `stats` on query spans, `image` on
spans tied to one image, `vertices` on build spans.  Spans stay in memory;
the run writes them out at exit.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional

# The layer each span name belongs to.  A layer's self time is its spans'
# durations minus the time their child spans cover.
BUILD = "constructions.build"
METRIC = "graph.metric"
LOAD = "serialization.load"
REPORT = "serialization.report"
QUERY = "verifier.query"
ENUMERATE = "verifier.enumerate"
ORCHESTRATION = "orchestration.query"
INVOKE = "cli.invoke"

_NO_SPAN = nullcontext(None)


class Tracer:
    """Keeps every span of a run in memory."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, qid: Optional[str] = None, **attrs) -> Iterator[dict]:
        parent = self._open[-1] if self._open else None
        if qid is None and parent is not None:
            qid = self.spans[parent]["qid"]
        rec = {"name": name, "start": 0.0, "end": 0.0, "parent": parent, "qid": qid}
        rec.update(attrs)
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


class NullTracer:
    """Stands in for a Tracer in untraced rounds; records nothing."""

    enabled = False

    def span(self, name: str, qid: Optional[str] = None, **attrs):
        return _NO_SPAN


def self_times(spans: List[dict]) -> List[float]:
    """Self time of each span in ms: its duration minus its children's."""
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            covered[rec["parent"]] += rec["end"] - rec["start"]
    return [
        (rec["end"] - rec["start"] - covered[i]) * 1000 for i, rec in enumerate(spans)
    ]


def span_counts(spans: List[dict]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for rec in spans:
        counts[rec["name"]] = counts.get(rec["name"], 0) + 1
    return counts


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: List[dict]) -> Dict[str, float]:
    """Per-layer figures of one traced round.

    Times are summed self times in ms, counts are summed over the round;
    `verifier.cold_query_ms` and `verifier.warm_query_ms` are medians over
    the first query on each image and over the later ones.  A layer the
    round never entered reads 0.  `verifier.stats.<key>` appears only for
    keys the engine reported, so a deleted counter shows as absent.
    """
    own = self_times(spans)
    total: Dict[str, float] = {}
    for rec, ms in zip(spans, own):
        total[rec["name"]] = total.get(rec["name"], 0.0) + ms

    queries = [(rec, ms) for rec, ms in zip(spans, own) if rec["name"] == QUERY]
    root = [(rec, ms) for rec, ms in queries if rec.get("nodes", 0) <= 1]
    search = [(rec, ms) for rec, ms in queries if rec.get("nodes", 0) > 1]
    search_ms = sum(ms for _, ms in search)
    search_nodes = sum(rec.get("nodes", 0) for rec, _ in search)
    orchestration = [rec for rec in spans if rec["name"] == ORCHESTRATION]

    cold: List[float] = []
    warm: List[float] = []
    seen = set()
    for rec in spans:
        if rec["name"] in (QUERY, ORCHESTRATION, ENUMERATE):
            ms = (rec["end"] - rec["start"]) * 1000
            (warm if rec["image"] in seen else cold).append(ms)
            seen.add(rec["image"])

    stats: Dict[str, int] = {}
    for rec in spans:
        for key, value in (rec.get("stats") or {}).items():
            stats[key] = stats.get(key, 0) + value
    all_nodes = sum(rec.get("nodes", 0) for rec, _ in queries) + sum(
        rec.get("nodes", 0) for rec in orchestration
    )

    out = {
        "constructions.build_ms": total.get(BUILD, 0.0),
        "constructions.vertices": sum(
            rec["vertices"] for rec in spans if rec["name"] == BUILD
        ),
        "serialization.load_ms": total.get(LOAD, 0.0),
        "serialization.report_ms": total.get(REPORT, 0.0),
        "graph.metric_ms": total.get(METRIC, 0.0),
        "verifier.root_ms": sum(ms for _, ms in root),
        "verifier.root_queries": len(root),
        "verifier.search_ms": search_ms,
        "verifier.nodes": sum(rec.get("nodes", 0) for rec, _ in queries),
        "verifier.us_per_node": search_ms * 1000 / search_nodes if search_nodes else 0.0,
        "verifier.ms.holds": sum(ms for rec, ms in queries if rec.get("verdict") == "holds"),
        "verifier.ms.fails": sum(ms for rec, ms in queries if rec.get("verdict") == "fails"),
        "verifier.enumerate_ms": total.get(ENUMERATE, 0.0),
        "verifier.cold_query_ms": _median(cold),
        "verifier.warm_query_ms": _median(warm),
        "orchestration.ms": total.get(ORCHESTRATION, 0.0),
        "orchestration.nodes": sum(rec.get("nodes", 0) for rec in orchestration),
        "orchestration.queries": len(orchestration),
        "cli.overhead_ms": total.get(INVOKE, 0.0),
    }
    for key in sorted(stats):
        out[f"verifier.stats.{key}"] = stats[key]
    if "wipeouts" in stats and all_nodes:
        out["verifier.wipeout_ratio"] = stats["wipeouts"] / all_nodes
    return out
