"""Document output: the canonical writer against the standard library, the
names found by value key against a brute-force scan of equal objects, and
the guard that writing a document compares no objects with ==."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from torsionlab.cli import main
from torsionlab.complexes import Complex, random_chain_map, random_complex
from torsionlab.document import (
    _complex_key,
    _dumps,
    _rep_key,
    document_of,
    document_tree,
    parse_document,
    serialize_document,
)
from torsionlab.linalg import Mat, PrimeField
from torsionlab.postnikov import postnikov_tower
from torsionlab.quiver import QuiverRep
from torsionlab.suite import resolve_quiver

QUIVERS = ("point", "a2", "a3", "kronecker", "d4")


def _stdlib(tree) -> str:
    return json.dumps(tree, indent=2, sort_keys=True) + "\n"


# -- the writer ---------------------------------------------------------------

_KEYS = st.text() | st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "é", " ", "😀", ""])
_LEAVES = (
    st.integers()
    | st.integers(2**64, 2**200)
    | st.integers(-(2**200), -(2**64))
    | st.booleans()
    | st.none()
    | st.floats()
    | _KEYS
)
_TREES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_KEYS, inner, max_size=4)
    | st.lists(st.integers(), max_size=6),
    max_leaves=40,
)


@given(_TREES)
def test_the_writer_is_the_stdlib_dump_with_indent_2_and_sorted_keys(tree):
    assert _dumps(tree) == _stdlib(tree)


@pytest.mark.parametrize(
    "tree",
    [[], {}, [[]], {"": {}}, [[1, 2], [True, 0]], {"b": [-1], "a": None, "é": [[0, 1]]},
     (1, 2), {"t": ((), (3,))}, {2: "int keys", 1: None}],
    ids=repr,
)
def test_the_writer_on_empty_containers_tuples_and_non_string_keys(tree):
    assert _dumps(tree) == _stdlib(tree)


# -- names by value key -------------------------------------------------------


def _scan(table: dict, value):
    """The brute-force name: the first, in sorted order, of an equal object."""
    return next((name for name in sorted(table) if table[name] == value), None)


def _scanned_tree(doc) -> dict:
    """document_tree's names as the brute-force scan finds them."""
    return {
        "terms": {
            name: [_scan(doc.reps, t) for t in x.terms] for name, x in doc.complexes.items()
        },
        "ends": {
            name: [_scan(doc.complexes, f.source), _scan(doc.complexes, f.target)]
            for name, f in doc.maps.items()
        },
    }


def _named_tree(doc) -> dict:
    tree = document_tree(doc)
    return {
        "terms": {name: body["terms"] for name, body in tree["complexes"].items()},
        "ends": {name: [body["source"], body["target"]] for name, body in tree["maps"].items()},
    }


def _random_document(name: str, p: int, seed: int):
    quiver, fld = resolve_quiver(name), PrimeField(p)
    rng = np.random.default_rng([p, seed])
    x = random_complex(quiver, fld, rng, max_dim=2, lo=-2, hi=2)
    y = random_complex(quiver, fld, rng, max_dim=2, lo=-2, hi=2)
    f = random_chain_map(x, y, rng)
    g = random_chain_map(y, y, rng)
    # x twice under two names, and one rep filed under a name that sorts first
    reps = {"!first": y.term(y.lo)} if y.terms else {}
    complexes = {"x": x, "x-again": x, "y": y}
    return document_of(quiver, fld, complexes=complexes, maps={"f": f, "g": g}, reps=reps)


@pytest.mark.parametrize("name", QUIVERS)
def test_keyed_names_equal_a_brute_force_scan(name):
    for p in (2, 3, 5):
        for seed in range(4):
            doc = _random_document(name, p, seed)
            assert _named_tree(doc) == _scanned_tree(doc)
            # the key decides == on every pair the document holds
            for table, key in ((doc.reps, _rep_key), (doc.complexes, _complex_key)):
                values = list(table.values())
                for a in values:
                    for b in values:
                        assert (a == b) == (key(a) == key(b))


def test_keys_separate_zero_reps_of_different_dims_and_complexes_at_different_lo():
    a2, fld = resolve_quiver("a2"), PrimeField(2)
    # both arrow maps are empty, so only the dims tell them apart
    left = QuiverRep(a2, fld, (1, 0), (Mat(fld, np.zeros((0, 1))),))
    right = QuiverRep(a2, fld, (0, 1), (Mat(fld, np.zeros((1, 0))),))
    assert left != right and _rep_key(left) != _rep_key(right)
    x = Complex(a2, fld, 0, (left,), ())
    shifted = Complex(a2, fld, 1, (left,), ())
    assert x != shifted and _complex_key(x) != _complex_key(shifted)


def test_a_truncation_outside_the_support_files_two_equal_complexes(tmp_path, capsys):
    doc = _random_document("a3", 2, 0)
    path = tmp_path / "doc.json"
    path.write_text(serialize_document(doc))
    assert main(["truncate", str(path), "--object", "x", "--at", "-9", "--side", "ge"]) == 0
    out = capsys.readouterr().out
    emitted = parse_document(out)
    # the truncation is x itself, filed under both names; the first sorted name wins
    assert emitted.complexes["truncation"] == emitted.complexes["x"]
    body = json.loads(out)["maps"]["into"]
    assert body["source"] == body["target"] == "truncation"
    assert _named_tree(emitted) == _scanned_tree(emitted)


def test_a_document_edited_after_it_was_built_is_named_afresh():
    doc = _random_document("kronecker", 3, 1)
    before = _named_tree(doc)
    # an equal rep under a name that sorts before every other
    term = doc.complexes["x"].terms[0]
    doc.reps["!!earliest"] = term
    after = _named_tree(doc)
    assert after != before and after == _scanned_tree(doc)
    assert after["terms"]["x"][0] == "!!earliest"
    # a removed rep leaves its terms unnamed, as the scan finds them
    for name in [n for n in doc.reps if doc.reps[n] == term]:
        del doc.reps[name]
    assert _named_tree(doc) == _scanned_tree(doc)
    assert _named_tree(doc)["terms"]["x"][0] is None


# -- no == scans --------------------------------------------------------------


def test_writing_a_tower_document_compares_no_objects(monkeypatch):
    doc = _random_document("a2", 3, 2)
    tower = postnikov_tower(doc.maps["f"])
    assert len(tower.stages) > 1
    calls = {QuiverRep: 0, Complex: 0}
    for cls in calls:

        def counted(self, other, _eq=cls.__eq__, _cls=cls):
            calls[_cls] += 1
            return _eq(self, other)

        monkeypatch.setattr(cls, "__eq__", counted)
    stages = {f"stage{i}": s.map for i, s in enumerate(tower.stages)}
    out = document_of(doc.quiver, doc.field, maps=stages)
    text = _dumps({"document": document_tree(out)}) + serialize_document(out)
    assert text and calls == {QuiverRep: 0, Complex: 0}
    # the counters do see the comparisons of an == scan over the same document
    assert _named_tree(out) == _scanned_tree(out)
    assert calls[QuiverRep] > 0 and calls[Complex] > 0
