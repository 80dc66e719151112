"""JSON documents for images, verification reports, and DOT export.

Image documents are canonical: vertices sorted by id, each edge stored once
with the smaller id first in lexicographic order, named-set ids sorted.
Parsing a serialized document reproduces it byte-for-byte.
"""

from __future__ import annotations

from typing import Any, Dict

from .constructions import NamedComplex
from .graph import DigitalImage
from .verifier import VerificationReport

FORMAT_VERSION = 1


class DocumentError(ValueError):
    """Raised on a malformed or unsupported document."""


def complex_to_document(nc: NamedComplex) -> Dict[str, Any]:
    image = nc.image
    doc: Dict[str, Any] = {"format_version": FORMAT_VERSION}
    doc["dimension"] = image.dimension
    if image.is_coordinate_backed:
        doc["adjacency"] = {"type": "cu", "u": image.u}
    else:
        doc["adjacency"] = {"type": "explicit"}
    vertices = []
    for i in range(image.n):
        entry: Dict[str, Any] = {"id": i}
        if image.coords[i] is not None:
            entry["coords"] = list(image.coords[i])
        if image.labels[i] is not None:
            entry["label"] = image.labels[i]
        vertices.append(entry)
    doc["vertices"] = vertices
    if not image.is_coordinate_backed:
        doc["edges"] = sorted([a, b] for a, b in image.edges)
    doc["named_sets"] = {
        name: sorted(members) for name, members in sorted(nc.named_sets.items())
    }
    return doc


def _integers(values: Any, what: str) -> Any:
    """values, which must all be JSON integers (booleans are not)."""
    for v in values:
        if type(v) is not int:
            raise DocumentError(f"{what} must be integers, got {v!r}")
    return values


def document_to_complex(doc: Dict[str, Any]) -> NamedComplex:
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != FORMAT_VERSION:
        raise DocumentError(f"unsupported format_version {version!r}")
    try:
        vertices = doc["vertices"]
        adjacency = doc["adjacency"]
    except KeyError as exc:
        raise DocumentError(f"missing field {exc}") from exc
    named_sets = doc.get("named_sets", {})
    if not isinstance(adjacency, dict) or not isinstance(named_sets, dict):
        raise DocumentError("adjacency and named_sets must be JSON objects")
    ids = _integers([v["id"] for v in vertices], "vertex ids")
    if ids != list(range(len(ids))):
        raise DocumentError("vertex ids must be 0..N-1 in order")
    coords = [tuple(v["coords"]) if "coords" in v else None for v in vertices]
    _integers([c for p in coords if p is not None for c in p], "coordinates")
    labels = [v.get("label") for v in vertices]
    dimension = doc.get("dimension")
    kind = adjacency.get("type")
    if kind == "cu":
        if any(c is None for c in coords):
            raise DocumentError("cu adjacency requires coordinates on every vertex")
        u = _integers([adjacency["u"]], "the adjacency index u")[0]
        image = DigitalImage.from_points(coords, u=u, labels=labels)
    elif kind == "explicit":
        edges = [(a, b) for a, b in doc.get("edges", [])]
        _integers([v for e in edges for v in e], "edge endpoints")
        image = DigitalImage(
            len(ids), edges, coords=coords, labels=labels, dimension=dimension
        )
    else:
        raise DocumentError(f"unknown adjacency type {kind!r}")
    named = {
        name: _integers(frozenset(members), f"members of {name!r}")
        for name, members in named_sets.items()
    }
    return NamedComplex(image, named)


def report_to_document(report: VerificationReport) -> Dict[str, Any]:
    return {
        "format_version": FORMAT_VERSION,
        "property": report.property,
        "params": dict(report.params),
        "set": sorted(report.subset),
        "verdict": report.verdict,
        "witness": list(report.witness.assignment) if report.witness else None,
        "detail": report.detail,
        "nodes_expanded": report.nodes_expanded,
        "revisions": report.revisions,
        "elapsed_ms": round(report.elapsed_ms, 3),
        "pruning_stats": dict(report.pruning_stats),
        "budget": {
            "max_nodes": report.budget.max_nodes,
            "max_millis": report.budget.max_millis,
        },
    }


def to_dot(nc: NamedComplex, name: str = "G") -> str:
    """Graphviz DOT rendering with deterministic node and edge order."""
    image = nc.image
    lines = [f"graph {name} {{"]
    for i in range(image.n):
        if image.labels[i] is not None:
            label = str(image.labels[i])
        elif image.coords[i] is not None:
            label = "(" + ",".join(str(c) for c in image.coords[i]) + ")"
        else:
            label = str(i)
        # DOT quoted strings escape `"`; a backslash starts an escape too.
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  v{i} [label="{label}"];')
    for a, b in sorted(image.edges):
        lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
