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
Serialization is canonical (sorted keys, fixed indentation), so
serialize . parse is the identity on normalized text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .complexes import ChainMap, Complex
from .linalg import Mat, PrimeField
from .quiver import Quiver, QuiverRep, RepMap

__all__ = [
    "Document",
    "DocumentError",
    "document_of",
    "parse_document",
    "parse_quiver",
    "serialize_document",
]

FORMAT_VERSION = 1

# The largest dim a rep may have at one vertex.  Hom spaces are solved on
# flat coordinates, so at 64 the largest flat hom slot has 64 * 64 = 4,096
# coordinates, and kernel_basis on an arrowless quiver builds a 4,096 x
# 4,096 int64 identity (134 MB); a dim of 10^5 would ask for 80 GB.
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
        for name, x in self.complexes.items():
            for n in x.support:
                if self._rep_name(x.term(n)) is None:
                    raise DocumentError(
                        f"complex {name!r} has an unnamed term at degree {n}"
                    )
        for name, f in self.maps.items():
            if self._complex_name(f.source) is None or self._complex_name(f.target) is None:
                raise DocumentError(f"map {name!r} has unnamed endpoints")

    def _rep_name(self, rep: QuiverRep) -> str | None:
        for name in sorted(self.reps):
            if self.reps[name] == rep:
                return name
        return None

    def _complex_name(self, x: Complex) -> str | None:
        for name in sorted(self.complexes):
            if self.complexes[name] == x:
                return name
        return None


def _is_int(value) -> bool:
    # JSON true and false arrive as Python bools, which are ints
    return isinstance(value, int) and not isinstance(value, bool)


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise DocumentError(f"{what} must be a JSON object")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise DocumentError(f"{what} must be a JSON array")
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


def _vertex_matrices(fld, rows_list, target: QuiverRep, source: QuiverRep, where: str):
    if not isinstance(rows_list, list) or len(rows_list) != len(source.quiver.vertices):
        raise DocumentError(f"{where}: one matrix per vertex required")
    return tuple(
        _as_matrix(fld, rows, target.dims[v], source.dims[v], f"{where}, vertex {v}")
        for v, rows in enumerate(rows_list)
    )


def parse_quiver(tree) -> Quiver:
    """A quiver from its JSON object {"vertices": [...], "arrows": [...]}."""
    _object(tree, "quiver")
    vertices = _list(tree.get("vertices"), "quiver vertices")
    arrows = _list(tree.get("arrows"), "quiver arrows")
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


def parse_document(text: str) -> Document:
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            col=exc.colno,
        ) from None
    except RecursionError:
        raise DocumentError("document nests too deeply") from None
    _object(tree, "document")
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
    for name, body in _object(tree.get("reps", {}), "reps").items():
        body = _object(body, f"rep {name!r}")
        dims = body.get("dims")
        if not isinstance(dims, list) or any(not _is_int(d) or d < 0 for d in dims):
            raise DocumentError(f"rep {name!r}: dims must be non-negative integers")
        if len(dims) != len(quiver.vertices):
            raise DocumentError(f"rep {name!r}: one dim per vertex required")
        for v, d in zip(quiver.vertices, dims):
            if d > MAX_DIM:
                raise DocumentError(f"rep {name!r}: dim {d} at vertex {v!r} is above {MAX_DIM}")
        arrow_bodies = _list(body.get("arrows", []), f"rep {name!r}: arrows")
        if len(arrow_bodies) != len(quiver.arrows):
            raise DocumentError(f"rep {name!r}: one matrix per arrow required")
        mats = []
        for (src, tgt), rows in zip(quiver.arrows, arrow_bodies):
            mats.append(
                _as_matrix(
                    fld,
                    rows,
                    dims[quiver.index(tgt)],
                    dims[quiver.index(src)],
                    f"rep {name!r}, arrow {src}->{tgt}",
                )
            )
        reps[name] = QuiverRep(quiver, fld, tuple(dims), tuple(mats))

    complexes: dict[str, Complex] = {}
    for name, body in _object(tree.get("complexes", {}), "complexes").items():
        body = _object(body, f"complex {name!r}")
        lo = body.get("lo")
        term_names = body.get("terms")
        if not _is_int(lo) or not isinstance(term_names, list):
            raise DocumentError(f"complex {name!r}: needs integer lo and a term list")
        terms = []
        for tn in term_names:
            if not isinstance(tn, str) or tn not in reps:
                raise DocumentError(f"complex {name!r}: unresolved rep name {tn!r}")
            terms.append(reps[tn])
        diff_bodies = _list(body.get("diffs", []), f"complex {name!r}: diffs")
        if len(diff_bodies) != max(len(terms) - 1, 0):
            raise DocumentError(f"complex {name!r}: needs one diff per adjacent pair")
        diffs = []
        for j, rows_list in enumerate(diff_bodies):
            where = f"complex {name!r}, diff at degree {lo + j + 1}"
            mats = _vertex_matrices(fld, rows_list, terms[j], terms[j + 1], where)
            try:
                diffs.append(RepMap(terms[j + 1], terms[j], mats))
            except ValueError:
                raise DocumentError(
                    f'invariant "intertwiner" violated in {where}', law="intertwiner"
                ) from None
        for j in range(len(diffs) - 1):
            if not diffs[j].compose(diffs[j + 1]).is_zero():
                raise DocumentError(
                    f'invariant "d-squared" violated in complex {name!r} '
                    f"at degree {lo + j + 2}",
                    law="d-squared",
                )
        complexes[name] = Complex(quiver, fld, lo, tuple(terms), tuple(diffs))

    maps: dict[str, ChainMap] = {}
    for name, body in _object(tree.get("maps", {}), "maps").items():
        body = _object(body, f"map {name!r}")
        src_name, tgt_name = body.get("source"), body.get("target")
        if not all(isinstance(n, str) and n in complexes for n in (src_name, tgt_name)):
            raise DocumentError(f"map {name!r}: unresolved complex name")
        src, tgt = complexes[src_name], complexes[tgt_name]
        comps = {}
        components = _object(body.get("components", {}), f"map {name!r}: components")
        for deg_str, rows_list in components.items():
            try:
                deg = int(deg_str)
            except ValueError:
                raise DocumentError(
                    f"map {name!r}: bad degree key {deg_str!r}"
                ) from None
            where = f"map {name!r} at degree {deg}"
            mats = _vertex_matrices(fld, rows_list, tgt.term(deg), src.term(deg), where)
            try:
                comps[deg] = RepMap(src.term(deg), tgt.term(deg), mats)
            except ValueError:
                raise DocumentError(
                    f'invariant "intertwiner" violated in {where}', law="intertwiner"
                ) from None
        try:
            maps[name] = ChainMap(src, tgt, comps)
        except ValueError as exc:
            raise DocumentError(
                f'invariant "chain-map" violated in map {name!r}: {exc}',
                law="chain-map",
            ) from None

    return Document(quiver, fld, reps, complexes, maps)


def _matrix_tree(m: Mat) -> list:
    return [[int(e) for e in row] for row in m.a]


def serialize_document(doc: Document) -> str:
    tree = {
        "format_version": FORMAT_VERSION,
        "prime": doc.field.p,
        "quiver": {
            "vertices": list(doc.quiver.vertices),
            "arrows": [[s, t] for s, t in doc.quiver.arrows],
        },
        "reps": {
            name: {
                "dims": list(rep.dims),
                "arrows": [_matrix_tree(m) for m in rep.arrow_maps],
            }
            for name, rep in doc.reps.items()
        },
        "complexes": {
            name: {
                "lo": x.lo,
                "terms": [doc._rep_name(x.term(n)) for n in range(x.lo, x.hi + 1)],
                "diffs": [
                    [_matrix_tree(m) for m in x.diff(n).components]
                    for n in range(x.lo + 1, x.hi + 1)
                ],
            }
            for name, x in doc.complexes.items()
        },
        "maps": {
            name: {
                "source": doc._complex_name(f.source),
                "target": doc._complex_name(f.target),
                "components": {
                    str(n): [_matrix_tree(m) for m in f.comp(n).components]
                    for n in sorted(f.comps)
                },
            }
            for name, f in doc.maps.items()
        },
    }
    return json.dumps(tree, indent=2, sort_keys=True) + "\n"


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
    for name, f in maps.items():
        for side, x in (("src", f.source), ("dst", f.target)):
            if not any(x == c for c in complexes.values()):
                complexes[f"{name}.{side}"] = x
    registry: dict[str, QuiverRep] = dict(reps or {})
    for cname, x in complexes.items():
        for n in x.support:
            term = x.term(n)
            if not any(term == r for r in registry.values()):
                registry[f"{cname}@{n}"] = term
    return Document(quiver, fld, registry, complexes, maps)
