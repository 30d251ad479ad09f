"""Document format: round trips, named-law rejection, error positions."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from torsionlab.complexes import random_chain_map, random_complex, zero_complex
from torsionlab.document import (
    Document,
    DocumentError,
    document_of,
    parse_document,
    serialize_document,
)
from torsionlab.linalg import PrimeField
from torsionlab.quiver import Quiver

F2, F3 = PrimeField(2), PrimeField(3)


def _minimal_tree(p=2, vertices=("v",), arrows=()):
    return {
        "format_version": 1,
        "prime": p,
        "quiver": {"vertices": list(vertices), "arrows": [list(a) for a in arrows]},
        "reps": {},
        "complexes": {},
        "maps": {},
    }


def test_empty_document_parses():
    doc = parse_document(json.dumps(_minimal_tree()))
    assert doc.field == F2
    assert doc.reps == {} and doc.complexes == {} and doc.maps == {}
    # and round-trips
    assert parse_document(serialize_document(doc)).quiver == doc.quiver


@given(st.integers(0, 10**6), st.sampled_from((2, 3)), st.booleans())
def test_round_trip_byte_identity(seed, p, on_a2):
    rng = np.random.default_rng(seed)
    quiver = Quiver.a2() if on_a2 else Quiver.point()
    fld = PrimeField(p)
    x = random_complex(quiver, fld, rng, max_dim=3, lo=-2, hi=2)
    y = random_complex(quiver, fld, rng, max_dim=3, lo=-2, hi=2)
    f = random_chain_map(x, y, rng)
    doc = document_of(quiver, fld, complexes={"x": x, "y": y}, maps={"f": f})
    text = serialize_document(doc)
    reparsed = parse_document(text)
    assert serialize_document(reparsed) == text
    assert reparsed.maps["f"] == f
    assert reparsed.complexes["x"] == x


def test_zero_complex_round_trips():
    doc = document_of(Quiver.point(), F2, complexes={"z": zero_complex(Quiver.point(), F2)})
    text = serialize_document(doc)
    assert parse_document(text).complexes["z"].is_zero()


def test_syntax_error_carries_position():
    with pytest.raises(DocumentError) as err:
        parse_document('{"format_version": 1,\n   "prime": }')
    assert err.value.line == 2
    assert err.value.col == 13


def test_d_squared_violation_named():
    tree = _minimal_tree(p=2)
    tree["reps"]["line"] = {"dims": [1], "arrows": []}
    tree["complexes"]["bad"] = {
        "lo": 0,
        "terms": ["line", "line", "line"],
        "diffs": [[[[1]]], [[[1]]]],
    }
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(tree))
    assert err.value.law == "d-squared"
    assert "d-squared" in str(err.value)


def test_intertwiner_violation_named():
    tree = _minimal_tree(p=2, vertices=("a", "b"), arrows=(("a", "b"),))
    tree["reps"]["ident"] = {"dims": [1, 1], "arrows": [[[1]]]}
    tree["reps"]["slack"] = {"dims": [1, 1], "arrows": [[[0]]]}
    # vertexwise identity is not a map ident -> slack: 0.1 != 1.1
    tree["complexes"]["bad"] = {
        "lo": 0,
        "terms": ["slack", "ident"],
        "diffs": [[[[1]], [[1]]]],
    }
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(tree))
    assert err.value.law == "intertwiner"


def test_chain_map_violation_named():
    tree = _minimal_tree(p=3)
    tree["reps"]["line"] = {"dims": [1], "arrows": []}
    tree["complexes"]["crushed"] = {"lo": 0, "terms": ["line", "line"], "diffs": [[[[1]]]]}
    tree["complexes"]["split"] = {"lo": 0, "terms": ["line", "line"], "diffs": [[[[0]]]]}
    # identity components cannot commute with differentials 1 vs 0
    tree["maps"]["bad"] = {
        "source": "crushed",
        "target": "split",
        "components": {"0": [[[1]]], "1": [[[1]]]},
    }
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(tree))
    assert err.value.law == "chain-map"


def test_unresolved_names_rejected():
    tree = _minimal_tree()
    tree["complexes"]["ghost"] = {"lo": 0, "terms": ["missing"], "diffs": []}
    with pytest.raises(DocumentError, match="unresolved rep"):
        parse_document(json.dumps(tree))
    tree = _minimal_tree()
    tree["maps"]["ghost"] = {"source": "nope", "target": "nope", "components": {}}
    with pytest.raises(DocumentError, match="unresolved complex"):
        parse_document(json.dumps(tree))


def test_entry_range_and_shape_checks():
    tree = _minimal_tree(p=2)
    tree["reps"]["bad"] = {"dims": [1], "arrows": []}
    tree["complexes"]["c"] = {"lo": 0, "terms": ["bad", "bad"], "diffs": [[[[2]]]]}
    with pytest.raises(DocumentError, match="outside"):
        parse_document(json.dumps(tree))
    tree["complexes"]["c"]["diffs"] = [[[[0, 0]]]]
    with pytest.raises(DocumentError, match="expected a 1x1"):
        parse_document(json.dumps(tree))


def test_format_version_gate():
    tree = _minimal_tree()
    tree["format_version"] = 7
    with pytest.raises(DocumentError, match="format_version"):
        parse_document(json.dumps(tree))


def test_prime_validated():
    tree = _minimal_tree(p=6)
    with pytest.raises(DocumentError, match="prime"):
        parse_document(json.dumps(tree))


def test_document_requires_named_terms():
    x = random_complex(Quiver.point(), F2, np.random.default_rng(0), max_dim=2, lo=0, hi=1)
    with pytest.raises(DocumentError, match="unnamed"):
        Document(Quiver.point(), F2, {}, {"x": x}, {})


def test_document_of_registers_endpoints_once():
    rng = np.random.default_rng(3)
    q = Quiver.point()
    x = random_complex(q, F3, rng, max_dim=2, lo=0, hi=1)
    f = random_chain_map(x, x, rng)
    doc = document_of(q, F3, maps={"f": f})
    # endomorphism: one complex, shared by both endpoints
    assert len(doc.complexes) == 1
    text = serialize_document(doc)
    body = json.loads(text)["maps"]["f"]
    assert body["source"] == body["target"]


_A2 = {"vertices": ["a", "b"], "arrows": [["a", "b"]]}
_R = {"dims": [1, 0], "arrows": [[]]}
_X = {"lo": 0, "terms": ["r"], "diffs": []}
MALFORMED = {
    "reps-not-object": {"reps": []},
    "complexes-not-object": {"complexes": 5},
    "maps-not-object": {"maps": "f"},
    "rep-body": {"reps": {"r": 5}},
    "complex-body": {"complexes": {"x": 5}},
    "map-body": {"maps": {"f": 5}},
    "rep-arrows": {"reps": {"r": {"dims": [1, 0], "arrows": 5}}},
    "complex-diffs": {"complexes": {"x": {"lo": 0, "terms": [], "diffs": 5}}},
    "complex-terms": {"complexes": {"x": {"lo": 0, "terms": [[1]], "diffs": []}}},
    "map-components": {
        "reps": {"r": _R},
        "complexes": {"x": _X},
        "maps": {"f": {"source": "x", "target": "x", "components": 5}},
    },
    "map-source": {
        "reps": {"r": _R},
        "complexes": {"x": _X},
        "maps": {"f": {"source": ["x"], "target": "x", "components": {}}},
    },
    "bool-version": {"format_version": True},
    "bool-prime": {"prime": True},
    "bool-dims": {"reps": {"r": {"dims": [True, 0], "arrows": [[]]}}},
    "bool-lo": {"reps": {"r": _R}, "complexes": {"x": {**_X, "lo": False}}},
    "bool-entry": {"reps": {"s": {"dims": [1, 1], "arrows": [[[True]]]}}},
    "quiver-strings": {"quiver": {"vertices": "ab", "arrows": ["ab"]}},
    "quiver-int-vertices": {"quiver": {"vertices": [1, 2], "arrows": [[1, 2]]}},
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_documents_are_rejected_with_one_error_line(kind, tmp_path, capsys):
    from torsionlab.cli import main

    tree = {"format_version": 1, "prime": 2, "quiver": _A2, **MALFORMED[kind]}
    text = json.dumps(tree)
    with pytest.raises(DocumentError):
        parse_document(text)
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["factor", str(path), "--map", "f"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
