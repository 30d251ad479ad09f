"""Named-object documents: a versioned JSON tree for reps, complexes, maps.

Schema (format_version 1): a single JSON object with

    format_version  1
    prime           document-global prime p
    quiver          {"vertices": [names], "arrows": [[src, tgt], ...]}
    reps            name -> {"dims": [...], "arrows": [matrix per arrow]}
    complexes       name -> {"lo": n, "terms": [rep names], "diffs": [...]}
    maps            name -> {"source", "target", "components": {degree: ...}}

Matrices are row arrays of integers in [0, p); shapes are implied by the
dims of the objects they connect, so empty matrices carry no ambiguity.
Every load re-validates the laws the in-memory types enforce and reports
violations by law name ("d-squared", "intertwiner", "chain-map").
Terms and endpoints are named by value key (equal keys exactly when equal
values), the first sorted name winning among equal objects; the tables are
rebuilt on every pass, so an edited Document is named afresh.  _dumps(tree)
is json.dumps(tree, indent=2, sort_keys=True) + "\n", in linear time, so
serialize . parse is the identity on normalized text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .complexes import ChainMap, Complex
from .linalg import Mat, PrimeField
from .quiver import Quiver, QuiverRep, RepMap, _law_breaks

__all__ = [
    "Document",
    "DocumentError",
    "document_of",
    "document_tree",
    "parse_document",
    "parse_quiver",
    "serialize_document",
]

FORMAT_VERSION = 1

# The largest dim a rep may have at one vertex.  Hom spaces are solved on
# flat coordinates: at 64, two one-term complexes on the point have a D_0 of
# 64 * 64 = 4,096 columns and no rows.  random_chain_map draws one cycle of
# it as it stands, but chain_map_basis returns all 4,096, the columns of an
# int64 identity (134 MB); 10^5 would ask for 80 GB.
MAX_DIM = 64


class DocumentError(ValueError):
    """Parse or validation failure; carries position or law name when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None, law: str | None = None):
        super().__init__(message)
        self.line = line
        self.col = col
        self.law = law


@dataclass
class Document:
    quiver: Quiver
    field: PrimeField
    reps: dict[str, QuiverRep] = dc_field(default_factory=dict)
    complexes: dict[str, Complex] = dc_field(default_factory=dict)
    maps: dict[str, ChainMap] = dc_field(default_factory=dict)

    def __post_init__(self):
        reps, complexes = _names(self.reps, _rep_key), _names(self.complexes, _complex_key)
        for name, x in self.complexes.items():
            for n, term in zip(x.support, x.terms):
                if _rep_key(term) not in reps:
                    raise DocumentError(f"complex {name!r} has an unnamed term at degree {n}")
        for name, f in self.maps.items():
            if not {_complex_key(f.source), _complex_key(f.target)} <= complexes.keys():
                raise DocumentError(f"map {name!r} has unnamed endpoints")


# Equal keys exactly for equal values: every Mat is int64 in [0, p), dims fix its shape
def _rep_key(rep: QuiverRep) -> tuple:
    return rep.quiver, rep.field, rep.dims, b"".join(m.a.tobytes() for m in rep.arrow_maps)


def _complex_key(x: Complex) -> tuple:
    diffs = b"".join(m.a.tobytes() for d in x.diffs for m in d.components)
    return x.quiver, x.field, x.lo, tuple(map(_rep_key, x.terms)), diffs


def _names(table: dict, key) -> dict:
    """Value key -> the first sorted name of a value with that key, built per pass."""
    return {key(table[name]): name for name in sorted(table, reverse=True)}


def _is_int(value) -> bool:
    # JSON true and false arrive as Python bools, which are ints
    return isinstance(value, int) and not isinstance(value, bool)


def _typed(value, kind: type, what: str):
    """value, unless it is not a JSON value of kind (dict or list): then a
    DocumentError naming what."""
    if not isinstance(value, kind):
        raise DocumentError(f"{what} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def _as_matrix(fld: PrimeField, rows, rows_want: int, cols_want: int, where: str) -> Mat:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise DocumentError(f"{where}: matrix must be a list of rows")
    for r in rows:
        for entry in r:
            if not _is_int(entry):
                raise DocumentError(f"{where}: matrix entries must be integers")
            if not 0 <= entry < fld.p:
                raise DocumentError(f"{where}: entry {entry} outside [0, {fld.p})")
    if len(rows) != rows_want or any(len(r) != cols_want for r in rows):
        raise DocumentError(
            f"{where}: expected a {rows_want}x{cols_want} matrix, got "
            f"{len(rows)}x{len(rows[0]) if rows else 0}"
        )
    try:
        a = np.array(rows, dtype=np.int64).reshape(rows_want, cols_want)
    except ValueError as exc:  # an empty matrix with a dimension numpy cannot hold
        raise DocumentError(f"{where}: {exc}") from None
    return Mat(fld, a)


def _vertex_matrices(fld, rows_list, source: QuiverRep, target: QuiverRep, where: str) -> RepMap:
    """The checked intertwiner source -> target with one matrix per vertex."""
    if not isinstance(rows_list, list) or len(rows_list) != len(source.quiver.vertices):
        raise DocumentError(f"{where}: one matrix per vertex required")
    mats = tuple(
        _as_matrix(fld, rows, target.dims[v], source.dims[v], f"{where}, vertex {v}")
        for v, rows in enumerate(rows_list)
    )
    try:
        return RepMap(source, target, mats)
    except ValueError:
        raise DocumentError(f'invariant "intertwiner" violated in {where}', law="intertwiner") from None


def parse_quiver(tree) -> Quiver:
    """A quiver from its JSON object {"vertices": [...], "arrows": [...]}."""
    _typed(tree, dict, "quiver")
    vertices = _typed(tree.get("vertices"), list, "quiver vertices")
    arrows = _typed(tree.get("arrows"), list, "quiver arrows")
    if any(not isinstance(v, str) for v in vertices):
        raise DocumentError("quiver vertices must be strings")
    if any(
        not isinstance(a, list) or len(a) != 2 or not all(isinstance(e, str) for e in a)
        for a in arrows
    ):
        raise DocumentError("quiver arrows must be [source, target] pairs of vertex names")
    try:
        return Quiver(tuple(vertices), tuple((a[0], a[1]) for a in arrows))
    except ValueError as exc:
        raise DocumentError(f"bad quiver: {exc}") from None


def _load_json(text: str, what: str):
    """The JSON value of text, refusing values nested past the decoder's
    recursion limit with a DocumentError "<what> nests too deeply"."""
    try:
        return json.loads(text)
    except RecursionError:
        raise DocumentError(f"{what} nests too deeply") from None


def parse_document(text: str) -> Document:
    try:
        tree = _load_json(text, "document")
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            col=exc.colno,
        ) from None
    _typed(tree, dict, "document")
    version = tree.get("format_version")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise DocumentError(f"unsupported format_version {version!r}")
    p = tree.get("prime")
    if not _is_int(p):
        raise DocumentError("prime must be an integer")
    try:
        fld = PrimeField(p)
    except ValueError as exc:
        raise DocumentError(f"prime: {exc}") from None
    qtree = tree.get("quiver")
    if not isinstance(qtree, dict):
        raise DocumentError("quiver section missing")
    quiver = parse_quiver(qtree)

    reps: dict[str, QuiverRep] = {}
    for name, body in _typed(tree.get("reps", {}), dict, "reps").items():
        body = _typed(body, dict, f"rep {name!r}")
        dims = body.get("dims")
        if not isinstance(dims, list) or any(not _is_int(d) or d < 0 for d in dims):
            raise DocumentError(f"rep {name!r}: dims must be non-negative integers")
        if len(dims) != len(quiver.vertices):
            raise DocumentError(f"rep {name!r}: one dim per vertex required")
        for v, d in zip(quiver.vertices, dims):
            if d > MAX_DIM:
                raise DocumentError(f"rep {name!r}: dim {d} at vertex {v!r} is above {MAX_DIM}")
        arrow_bodies = _typed(body.get("arrows", []), list, f"rep {name!r}: arrows")
        if len(arrow_bodies) != len(quiver.arrows):
            raise DocumentError(f"rep {name!r}: one matrix per arrow required")
        mats = tuple(
            _as_matrix(fld, rows, dims[quiver.index(t)], dims[quiver.index(s)],
                       f"rep {name!r}, arrow {s}->{t}")
            for (s, t), rows in zip(quiver.arrows, arrow_bodies)
        )
        reps[name] = QuiverRep(quiver, fld, tuple(dims), mats)

    complexes: dict[str, Complex] = {}
    for name, body in _typed(tree.get("complexes", {}), dict, "complexes").items():
        body = _typed(body, dict, f"complex {name!r}")
        lo = body.get("lo")
        term_names = body.get("terms")
        if not _is_int(lo) or not isinstance(term_names, list):
            raise DocumentError(f"complex {name!r}: needs integer lo and a term list")
        terms = []
        for tn in term_names:
            if not isinstance(tn, str) or tn not in reps:
                raise DocumentError(f"complex {name!r}: unresolved rep name {tn!r}")
            terms.append(reps[tn])
        diff_bodies = _typed(body.get("diffs", []), list, f"complex {name!r}: diffs")
        if len(diff_bodies) != max(len(terms) - 1, 0):
            raise DocumentError(f"complex {name!r}: needs one diff per adjacent pair")
        diffs = []
        for j, rows_list in enumerate(diff_bodies):
            where = f"complex {name!r}, diff at degree {lo + j + 1}"
            diffs.append(_vertex_matrices(fld, rows_list, terms[j + 1], terms[j], where))
        for j in range(len(diffs) - 1):
            if _law_breaks(fld.p, [(1, diffs[j], diffs[j + 1])]) is not None:
                raise DocumentError(
                    f'invariant "d-squared" violated in complex {name!r} '
                    f"at degree {lo + j + 2}",
                    law="d-squared",
                )
        # d² was checked just above, naming the law
        complexes[name] = Complex._unchecked(quiver, fld, lo, tuple(terms), tuple(diffs))

    maps: dict[str, ChainMap] = {}
    for name, body in _typed(tree.get("maps", {}), dict, "maps").items():
        body = _typed(body, dict, f"map {name!r}")
        src_name, tgt_name = body.get("source"), body.get("target")
        if not all(isinstance(n, str) and n in complexes for n in (src_name, tgt_name)):
            raise DocumentError(f"map {name!r}: unresolved complex name")
        src, tgt = complexes[src_name], complexes[tgt_name]
        comps = {}
        components = _typed(body.get("components", {}), dict, f"map {name!r}: components")
        for deg_str, rows_list in components.items():
            # one spelling per degree: int() also reads "00", "+0" and "-0" as 0
            try:
                deg = int(deg_str)
            except ValueError:
                deg = None
            if deg is None or str(deg) != deg_str:
                raise DocumentError(f"map {name!r}: bad degree key {deg_str!r}")
            where = f"map {name!r} at degree {deg}"
            comps[deg] = _vertex_matrices(fld, rows_list, src.term(deg), tgt.term(deg), where)
        try:
            maps[name] = ChainMap(src, tgt, comps)
        except ValueError as exc:
            raise DocumentError(
                f'invariant "chain-map" violated in map {name!r}: {exc}',
                law="chain-map",
            ) from None

    return Document(quiver, fld, reps, complexes, maps)


# json.dumps of the leaves met most; a list or dict reaches this only when empty
_LEAF = {str: encode_basestring_ascii, int: int.__repr__, list: repr, dict: repr}


def _dumps(tree) -> str:
    """json.dumps(tree, indent=2, sort_keys=True) + "\n", in linear time."""
    _write(tree, "\n", out := [])
    return "".join(out) + "\n"


def _write(value, nl: str, out: list[str]) -> None:
    inner, kind = nl + "  ", type(value)
    if kind not in (list, tuple, dict) or not value:  # a leaf or an empty container
        out.append(_LEAF.get(kind, json.dumps)(value))
    elif kind is list and all(type(r) is list and r for r in value) and (
        set(map(type, chain(*value))) == {int}
    ):  # a matrix with at least one column
        rows = inner + "  "
        body = str(value)[2:-2].replace("], [", f"{inner}],{inner}[{rows}")
        out.append(f"[{inner}[{rows}{body.replace(', ', ',' + rows)}{inner}]{nl}]")
    elif kind is not dict:
        for i, e in enumerate(value):
            out.append(("," if i else "[") + inner)
            _write(e, inner, out)
        out.append(nl + "]")
    elif set(map(type, value)) == {str}:
        for i, k in enumerate(sorted(value)):
            out.append(f"{',' if i else '{'}{inner}{encode_basestring_ascii(k)}: ")
            _write(value[k], inner, out)
        out.append(nl + "}")
    else:  # keys other than strings: nl re-indents the stdlib's dump
        out.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", nl))


def document_tree(doc: Document) -> dict:
    """The JSON tree of a document, before it is dumped."""
    reps, complexes = _names(doc.reps, _rep_key), _names(doc.complexes, _complex_key)
    return {
        "format_version": FORMAT_VERSION,
        "prime": doc.field.p,
        "quiver": {
            "vertices": list(doc.quiver.vertices),
            "arrows": [[s, t] for s, t in doc.quiver.arrows],
        },
        "reps": {
            name: {
                "dims": list(rep.dims),
                "arrows": [m.a.tolist() for m in rep.arrow_maps],
            }
            for name, rep in doc.reps.items()
        },
        "complexes": {
            name: {
                "lo": x.lo,
                "terms": [reps.get(_rep_key(t)) for t in x.terms],
                "diffs": [[m.a.tolist() for m in d.components] for d in x.diffs],
            }
            for name, x in doc.complexes.items()
        },
        "maps": {
            name: {
                "source": complexes.get(_complex_key(f.source)),
                "target": complexes.get(_complex_key(f.target)),
                "components": {
                    str(n): [m.a.tolist() for m in c.components]
                    for n, c in sorted(f.comps.items())
                },
            }
            for name, f in doc.maps.items()
        },
    }


def serialize_document(doc: Document) -> str:
    return _dumps(document_tree(doc))


def document_of(
    quiver: Quiver,
    fld: PrimeField,
    complexes: dict[str, Complex] | None = None,
    maps: dict[str, ChainMap] | None = None,
    reps: dict[str, QuiverRep] | None = None,
) -> Document:
    """Package in-memory objects, naming each complex term after its host."""
    complexes = dict(complexes or {})
    maps = dict(maps or {})
    seen = set(map(_complex_key, complexes.values()))
    for name, f in maps.items():
        for side, x in (("src", f.source), ("dst", f.target)):
            if (key := _complex_key(x)) not in seen:
                seen.add(key)
                complexes[f"{name}.{side}"] = x
    registry: dict[str, QuiverRep] = dict(reps or {})
    seen = set(map(_rep_key, registry.values()))
    for cname, x in complexes.items():
        for n, term in zip(x.support, x.terms):
            if (key := _rep_key(term)) not in seen:
                seen.add(key)
                registry[f"{cname}@{n}"] = term
    return Document(quiver, fld, registry, complexes, maps)
