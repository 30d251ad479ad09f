"""Document format: round trips, named-law rejection, error positions."""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
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


def _point_stalk(dim):
    return {
        "quiver": {"vertices": ["v"], "arrows": []},
        "reps": {"r": {"dims": [dim], "arrows": []}},
        "complexes": {"x": _X},
    }


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
    # found by the fuzzer below: trial division of this prime never ended,
    # and numpy's own ValueError escaped for an empty 0 x 10^30 matrix
    "prime-too-large": {"prime": 2**61 - 1},
    "dims-too-large": {"reps": {"r": {"dims": [10**30, 0], "arrows": [[]]}}},
    # a rep of the point quiver has no matrix to reject, so these parsed, and
    # 10^5 would have made kernel_basis build an 80 GB identity
    "point-dim-10^5": _point_stalk(10**5),
    "point-dim-10^30": _point_stalk(10**30),
}
# what the message of a rejection must name
NAMED = {kind: ("rep 'r'", "vertex 'v'") for kind in ("point-dim-10^5", "point-dim-10^30")}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_documents_are_rejected_with_one_error_line(kind, tmp_path, capsys):
    from torsionlab.cli import main

    tree = {"format_version": 1, "prime": 2, "quiver": _A2, **MALFORMED[kind]}
    text = json.dumps(tree)
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert all(name in str(err.value) for name in NAMED.get(kind, ()))
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["factor", str(path), "--map", "f"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_maps_between_far_apart_supports_parse_without_walking_the_gap():
    """The chain-map law is checked only next to the components, so a map
    between complexes 10^30 degrees apart parses at once (found by the
    fuzzer below, which hung on it)."""
    tree = {
        "format_version": 1,
        "prime": 2,
        "quiver": _A2,
        "reps": {"r": _R},
        "complexes": {"x": {**_X, "lo": 10**30}, "y": _X},
        "maps": {"f": {"source": "x", "target": "y", "components": {}}},
    }
    assert parse_document(json.dumps(tree)).maps["f"].is_zero()


# -- fuzzing: mutated valid documents -----------------------------------------

KRONECKER = Quiver(("a", "b"), (("a", "b"), ("a", "b")))
MUTATIONS = ("swap-type", "drop-key", "matrix-shape", "entry-range", "bool-for-int", "parallel-arrow")
# a rejection names where it failed: a section or a named object, a law, or
# a position in the text
LOCATIONS = ("format_version", "prime", "quiver", "rep", "complex", "map", "document")


def _nodes(node, path=()):
    """Every (path, value) of a JSON tree, the root first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _set(tree, path, value):
    for key in path[:-1]:
        tree = tree[key]
    tree[path[-1]] = value


def _matrix_paths(tree) -> list[tuple]:
    """Paths of every matrix: rep arrows, complex diffs and map components,
    one matrix per vertex for the last two."""
    out = [("reps", r, "arrows", i) for r, rep in tree["reps"].items() for i in range(len(rep["arrows"]))]
    for name, x in tree["complexes"].items():
        out += [("complexes", name, "diffs", j, v) for j, per in enumerate(x["diffs"]) for v in range(len(per))]
    for name, f in tree["maps"].items():
        out += [("maps", name, "components", d, v) for d, per in f["components"].items() for v in range(len(per))]
    return out


def _get(tree, path):
    for key in path:
        tree = tree[key]
    return tree


@st.composite
def mutated_documents(draw):
    """A valid document of a random a2 or Kronecker map, mutated once."""
    quiver = draw(st.sampled_from((Quiver.a2(), KRONECKER)))
    fld = PrimeField(draw(st.sampled_from((2, 3))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = random_complex(quiver, fld, rng, max_dim=2, lo=-1, hi=1)
    y = random_complex(quiver, fld, rng, max_dim=2, lo=-1, hi=1)
    doc = document_of(quiver, fld, complexes={"x": x, "y": y}, maps={"f": random_chain_map(x, y, rng)})
    tree = json.loads(serialize_document(doc))
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "swap-type":
        path, old = draw(st.sampled_from(list(_nodes(tree))))
        new = draw(
            st.sampled_from((None, "x", 7, -1, 2.5, True, [], [[1]], {}, {"0": 1})).filter(
                lambda v: type(v) is not type(old)
            )
        )
        if not path:
            return kind, new
        _set(tree, path, new)
    elif kind == "drop-key":
        holders = [(path, node) for path, node in _nodes(tree) if isinstance(node, dict) and node]
        path, node = draw(st.sampled_from(holders))
        del node[draw(st.sampled_from(sorted(node)))]
    elif kind == "matrix-shape" and _matrix_paths(tree):
        m = _get(tree, draw(st.sampled_from(_matrix_paths(tree))))
        how = draw(st.sampled_from(("add-row", "drop-row", "add-entry", "drop-entry")))
        if how == "add-row":
            m.append([0] * (len(m[0]) if m else 1))
        elif how == "drop-row" and m:
            m.pop()
        elif not m:
            m.append([])
        else:
            row = m[draw(st.integers(0, len(m) - 1))]
            if how == "add-entry" or not row:
                row.append(0)
            else:
                row.pop()
    elif kind == "entry-range":  # a matrix entry outside [0, p), or any other int far out
        entries = [
            path + (i, j)
            for path in _matrix_paths(tree)
            for i, row in enumerate(_get(tree, path))
            for j in range(len(row))
        ]
        if entries and draw(st.booleans()):
            _set(tree, draw(st.sampled_from(entries)), draw(st.sampled_from((-1, fld.p, fld.p + 1))))
        else:
            ints = [path for path, v in _nodes(tree) if type(v) is int]
            _set(tree, draw(st.sampled_from(ints)), draw(st.sampled_from((-1, 10**30, 2**61 - 1))))
    elif kind == "bool-for-int":
        ints = [path for path, v in _nodes(tree) if type(v) is int]
        _set(tree, draw(st.sampled_from(ints)), draw(st.booleans()))
    elif kind == "parallel-arrow":  # with or without a matching matrix in each rep
        i = draw(st.integers(0, len(tree["quiver"]["arrows"]) - 1))
        tree["quiver"]["arrows"].append(list(tree["quiver"]["arrows"][i]))
        if draw(st.booleans()):
            for rep in tree["reps"].values():
                rep["arrows"].append(rep["arrows"][i])
    return kind, tree


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_mutated_documents_parse_or_are_rejected_with_a_location(tmp_path_factory, case):
    """A mutated document parses, or is rejected by a DocumentError that
    names a location or a law, and the CLI then exits 1 with one error line
    and no traceback."""
    from torsionlab.cli import main

    kind, tree = case
    text = json.dumps(tree)
    try:
        parse_document(text)
    except DocumentError as exc:
        assert exc.law or exc.line or any(word in str(exc) for word in LOCATIONS), (kind, str(exc))
    else:
        return
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(text)
    with contextlib.redirect_stderr(io.StringIO()) as err, contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["truncate", str(path), "--object", "x", "--at", "0", "--side", "ge"]) == 1
    lines = err.getvalue().splitlines()
    assert out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error:"), (kind, lines)
