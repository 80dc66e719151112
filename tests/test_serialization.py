import json

import pytest

from digitop.constructions import (
    NamedComplex,
    box,
    cone,
    pyramid,
    simple_closed_curve,
    suspension,
)
from digitop.graph import DigitalImage
from digitop.maps import Mapping, is_continuous
from digitop.serialization import (
    DocumentError,
    complex_to_document,
    document_to_complex,
    report_to_document,
    to_dot,
)
from digitop.verifier import is_freezing


SAMPLES = [
    box([2, 2], 1),
    pyramid(1),
    cone(simple_closed_curve(4).image),
    suspension(simple_closed_curve(5).image),
    NamedComplex(DigitalImage(0, []), {}),
]


@pytest.mark.parametrize("nc", SAMPLES, ids=lambda nc: f"n{nc.image.n}")
def test_round_trip_is_canonical(nc):
    doc = complex_to_document(nc)
    again = complex_to_document(document_to_complex(doc))
    assert doc == again
    assert json.dumps(doc) == json.dumps(again)


def test_round_trip_preserves_structure():
    nc = suspension(simple_closed_curve(6).image)
    back = document_to_complex(complex_to_document(nc))
    assert back.image.n == nc.image.n
    assert back.image.edges == nc.image.edges
    assert back.named_sets == nc.named_sets
    assert back.image.labels == nc.image.labels


def test_cu_documents_omit_edges():
    doc = complex_to_document(pyramid(1))
    assert doc["adjacency"] == {"type": "cu", "u": 3}
    assert "edges" not in doc
    rebuilt = document_to_complex(doc)
    assert rebuilt.image.edges == pyramid(1).image.edges


def test_text_round_trip():
    nc = box([2, 2], 2)
    text = json.dumps(complex_to_document(nc), indent=2)
    assert document_to_complex(json.loads(text)).image.edges == nc.image.edges


def test_document_validation():
    with pytest.raises(DocumentError):
        document_to_complex({"format_version": 99})
    with pytest.raises(DocumentError):
        document_to_complex({"format_version": 1})
    with pytest.raises(DocumentError):
        document_to_complex(
            {
                "format_version": 1,
                "adjacency": {"type": "explicit"},
                "vertices": [{"id": 1}],
            }
        )
    with pytest.raises(DocumentError):
        document_to_complex(
            {
                "format_version": 1,
                "adjacency": {"type": "mystery"},
                "vertices": [{"id": 0}],
            }
        )


def test_report_document_and_witness():
    b2 = box([2, 2], 2)
    report = is_freezing(b2.image, b2.named_sets["corners"])
    doc = report_to_document(report)
    assert doc["verdict"] == "fails"
    assert doc["set"] == sorted(b2.named_sets["corners"])
    f = Mapping(b2.image, b2.image, tuple(doc["witness"]))
    assert is_continuous(f)
    assert tuple(doc["witness"]) == f.assignment

    held = report_to_document(is_freezing(b2.image, b2.named_sets["Bd"]))
    assert held["verdict"] == "holds"
    assert held["witness"] is None
    

def test_dot_export():
    wheel = cone(simple_closed_curve(4).image)
    dot = to_dot(wheel)
    assert dot.count("[label=") == 5
    assert dot.count(" -- ") == 8
    assert '[label="U"]' in dot
    assert to_dot(wheel) == dot  # deterministic

    empty = to_dot(NamedComplex(DigitalImage(0, []), {}))
    assert empty == "graph G {\n}\n"

    b = to_dot(box([1, 1], 1))
    assert '[label="(0,0)"]' in b

    quoted = NamedComplex(DigitalImage(2, [(0, 1)], labels=['a"b', "c\\"]), {})
    assert '  v0 [label="a\\"b"];' in to_dot(quoted)
    assert '  v1 [label="c\\\\"];' in to_dot(quoted)
