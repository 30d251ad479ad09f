"""Finite-dimensional representations of finite acyclic quivers.

A representation assigns a vector space over a fixed prime field to each
vertex and a matrix to each arrow.  Morphisms are vertexwise matrices that
commute with every arrow map exactly (the intertwiner law).  Both are Lawful
values, as are complexes, chain maps, homotopies and commuting squares:
their laws are checked at construction, Lawful states when a check may be
skipped, and Lawful alone decides equality and hashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

import numpy as np

from .linalg import Mat, PrimeField, image_basis, kernel_basis, kernel_coords, quotient

__all__ = [
    "Quiver",
    "QuiverRep",
    "RepMap",
    "rep_hom_basis_flat",
    "rep_kernel",
    "rep_cokernel",
    "direct_sum",
    "random_rep",
]


@dataclass(frozen=True)
class Quiver:
    """A finite quiver with named vertices, required to be acyclic."""

    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        for src, tgt in self.arrows:
            if src not in self.vertices or tgt not in self.vertices:
                raise ValueError(f"arrow ({src}, {tgt}) mentions unknown vertex")
        if self._has_cycle():
            raise ValueError("quiver has an oriented cycle")

    def _has_cycle(self) -> bool:
        # Kahn peeling; anything left over sits on a cycle
        indeg = {v: 0 for v in self.vertices}
        for _, tgt in self.arrows:
            indeg[tgt] += 1
        queue = [v for v in self.vertices if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for src, tgt in self.arrows:
                if src == v:
                    indeg[tgt] -= 1
                    if indeg[tgt] == 0:
                        queue.append(tgt)
        return seen != len(self.vertices)

    def index(self, vertex: str) -> int:
        return self.vertices.index(vertex)

    @classmethod
    def point(cls) -> "Quiver":
        """One vertex, no arrows: plain vector spaces."""
        return cls(("v",), ())

    @classmethod
    def a2(cls) -> "Quiver":
        """Two vertices joined by one arrow."""
        return cls(("a", "b"), (("a", "b"),))


class Lawful:
    """An immutable value whose laws are checked where it is built.

    __init__ checks the laws of its type, then stores the fields with _fill,
    and cls._unchecked(*fields) runs _fill alone.  Every law (intertwiner,
    d², chain map, homotopy) is one call of _law_breaks, a sum of signed
    products of raw vertex arrays tested against 0 mod p; no composite
    RepMap or Mat is built to be compared and dropped.  A subclass without a
    _fill of its own or of a base gets one compiled once from its slot
    setters, one call per name of __slots__ in order, as dataclasses builds
    __init__; one that defines or inherits a _fill keeps it (Complex and its
    graded sums trim their terms there, ChainMap drops its zero components).

    Running _fill alone is allowed only where exact F_p arithmetic makes
    the result lawful from lawful inputs, or where the caller checked the
    law another way; data from outside always goes through __init__.  The
    trusted constructions: RepMap zero, identity, compose, +, - and
    negation; ChainMap + and negation, identity_map, zero_map and compose;
    shift, which negates a lawful differential; a graded sum's
    differential, inclusions and projections (_graded_sum,
    GradedSum.inclusion and .projection) and block maps
    (block_components), lawful blockwise, which reuse rather than copy: a
    degree with one nonzero part holds that part's term itself (direct_sum)
    and a block filling every vertex matrix gives its own matrices
    (_blocks), negated for sign -1; CommutingSquare.strict, whose
    zero witness joins two composites it found equal; the mapping complex
    (HomComplex.complex), lawful by the sign rule from lawful ends; and
    complexes whose d² parse_document checked another way.

    Equality and hashing are decided here too.  A value equals itself at
    once, and each type names the fields it is compared on in one getter,
    _key; two values are equal when they share that getter and its fields
    are equal, so a subclass that keeps the getter (a GradedSum) equals any
    plain Complex with the same terms and differentials.  No value is
    hashable.
    """

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if not hasattr(cls, "_fill"):
            cls._fill = _compile_fill(cls)

    @classmethod
    def _unchecked(cls, *fields):
        out = object.__new__(cls)
        out._fill(*fields)
        return out

    def __eq__(self, other):
        if self is other:
            return True
        key = self._key
        if getattr(other, "_key", None) is not key:
            return NotImplemented
        return key(self) == key(other)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _compile_fill(cls):
    """_fill(self, *slots) for cls: each field stored by its slot's setter,
    which bypasses the guard in __setattr__ as object.__setattr__ does."""
    names = cls.__slots__
    scope = {f"_set_{n}": getattr(cls, n).__set__ for n in names}
    body = "".join(f"    _set_{n}(self, {n})\n" for n in names)
    exec(f"def _fill(self, {', '.join(names)}):\n{body}", scope)
    return scope["_fill"]


class QuiverRep(Lawful):
    """A representation: dims per vertex, one matrix per arrow."""

    __slots__ = ("quiver", "field", "dims", "arrow_maps")
    _key = attrgetter(*__slots__)

    def __init__(
        self,
        quiver: Quiver,
        field: PrimeField,
        dims: tuple[int, ...],
        arrow_maps: tuple[Mat, ...],
    ):
        if len(dims) != len(quiver.vertices):
            raise ValueError("one dimension per vertex required")
        if len(arrow_maps) != len(quiver.arrows):
            raise ValueError("one matrix per arrow required")
        for (src, tgt), m in zip(quiver.arrows, arrow_maps):
            want = (dims[quiver.index(tgt)], dims[quiver.index(src)])
            if m.shape != want:
                raise ValueError(
                    f"arrow ({src}, {tgt}) map has shape {m.shape}, expected {want}"
                )
            if m.field != field:
                raise ValueError("arrow map over the wrong field")
        self._fill(quiver, field, tuple(int(d) for d in dims), tuple(arrow_maps))

    @classmethod
    def zero(cls, quiver: Quiver, field: PrimeField) -> "QuiverRep":
        return _zero_rep(quiver, field)

    def dim(self, vertex: str) -> int:
        return self.dims[self.quiver.index(vertex)]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __repr__(self) -> str:
        return f"QuiverRep({self.field}, dims={self.dims})"


@lru_cache(maxsize=64)
def _zero_rep(quiver: Quiver, field: PrimeField) -> QuiverRep:
    # one shared instance per (quiver, field); QuiverRep is immutable
    dims = tuple(0 for _ in quiver.vertices)
    maps = tuple(Mat.zeros(field, 0, 0) for _ in quiver.arrows)
    return QuiverRep(quiver, field, dims, maps)


class RepMap(Lawful):
    """An intertwiner between two representations of the same quiver."""

    __slots__ = ("source", "target", "components")
    _key = attrgetter(*__slots__)

    def __init__(self, source: QuiverRep, target: QuiverRep, components: tuple[Mat, ...]):
        if source.quiver is not target.quiver and source.quiver != target.quiver:
            raise ValueError("intertwiner between different quivers")
        if source.field is not target.field and source.field != target.field:
            raise ValueError("intertwiner between different fields")
        quiver = source.quiver
        if len(components) != len(quiver.vertices):
            raise ValueError("one component per vertex required")
        for v, c in zip(quiver.vertices, components):
            want = (target.dim(v), source.dim(v))
            if c.shape != want:
                raise ValueError(f"component at {v} has shape {c.shape}, expected {want}")
            if c.field is not source.field and c.field != source.field:
                raise ValueError(f"component at {v} over the wrong field")
        if quiver.arrows:  # a_t c_src - c_tgt a_s = 0 on every arrow
            at_src = tuple(components[quiver.index(s)] for s, _ in quiver.arrows)
            at_tgt = tuple(components[quiver.index(t)] for _, t in quiver.arrows)
            terms = ((1, target.arrow_maps, at_src), (-1, at_tgt, source.arrow_maps))
            if (broken := _law_breaks(source.field.p, terms)) is not None:
                src, tgt = quiver.arrows[broken]
                raise ValueError(f"intertwiner law fails on arrow ({src}, {tgt})")
        self._fill(source, target, tuple(components))

    @classmethod
    def zero(cls, source: QuiverRep, target: QuiverRep) -> "RepMap":
        if source.quiver != target.quiver or source.field != target.field:
            raise ValueError("zero map between incompatible representations")
        comps = tuple(
            Mat.zeros(source.field, target.dims[i], source.dims[i])
            for i in range(len(source.quiver.vertices))
        )
        return cls._unchecked(source, target, comps)

    @classmethod
    def identity(cls, rep: QuiverRep) -> "RepMap":
        comps = tuple(Mat.identity(rep.field, d) for d in rep.dims)
        return cls._unchecked(rep, rep, comps)

    def compose(self, other: "RepMap") -> "RepMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition mismatch")
        comps = tuple(a @ b for a, b in zip(self.components, other.components))
        return RepMap._unchecked(other.source, self.target, comps)

    def _same_endpoints(self, other: "RepMap") -> bool:
        return (self.source is other.source or self.source == other.source) and (
            self.target is other.target or self.target == other.target
        )

    def __add__(self, other: "RepMap") -> "RepMap":
        if not self._same_endpoints(other):
            raise ValueError("sum of intertwiners with different endpoints")
        comps = tuple(a + b for a, b in zip(self.components, other.components))
        return RepMap._unchecked(self.source, self.target, comps)

    def __sub__(self, other: "RepMap") -> "RepMap":
        if not self._same_endpoints(other):
            raise ValueError("difference of intertwiners with different endpoints")
        comps = tuple(a - b for a, b in zip(self.components, other.components))
        return RepMap._unchecked(self.source, self.target, comps)

    def __neg__(self) -> "RepMap":
        return RepMap._unchecked(self.source, self.target, tuple(-c for c in self.components))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def flat(self) -> np.ndarray:
        """Row-major flattening of all components, vertex order."""
        pieces = [c.a.reshape(-1) for c in self.components]
        if not pieces:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(pieces)

    def __repr__(self) -> str:
        return f"RepMap({self.source!r} -> {self.target!r})"


def _law_breaks(p: int, terms) -> int | None:
    """The first index v at which the sum over terms (sign, outer, inner) of
    sign * outer[v] @ inner[v] is not 0 mod p, or None; (sign, outer) is
    outer alone.  A factor is a RepMap or a tuple of matrices indexed alike,
    and None, a zero map, drops its term.  Only raw arrays are multiplied
    and summed, empty ones skipped: no Mat, RepMap or composite is built."""
    live = []
    for sign, outer, *inner in terms:
        if outer is not None and not (inner and inner[0] is None):
            inner = getattr(inner[0], "components", inner[0]) if inner else None
            live.append((sign > 0, getattr(outer, "components", outer), inner))
    for v in range(len(live[0][1]) if live else 0):
        acc = None
        for plus, outer, inner in live:
            a, b = outer[v].a, None if inner is None else inner[v].a
            if a.size and (b is None or b.size):
                a = a if b is None else a @ b
                acc = (a if plus else -a) if acc is None else (acc + a if plus else acc - a)
        if acc is not None and acc.any() and (acc % p).any():
            return v
    return None


def flat_dim(source: QuiverRep, target: QuiverRep) -> int:
    return sum(t * s for t, s in zip(target.dims, source.dims))


def graded_from_flat(
    source: QuiverRep, target: QuiverRep, vec: np.ndarray
) -> tuple[Mat, ...]:
    """Inverse of RepMap.flat: the vertex components, not yet checked as an
    intertwiner."""
    comps = []
    off, fld = 0, source.field
    for t, s in zip(target.dims, source.dims):
        n = t * s
        comps.append(Mat(fld, vec[off : off + n], shape=(t, s)) if n else Mat.zeros(fld, t, s))
        off += n
    return tuple(comps)


def post_op(m: RepMap, source: QuiverRep, out: np.ndarray | None = None) -> np.ndarray:
    """Postcomposition with m, phi -> m . phi, on flat graded maps phi :
    source -> m.source, as one operator: m_v (x) I_s on the block diagonal,
    since a flat map (see RepMap.flat) holds each t x s block phi_v
    row-major.  Its entries are m's, already in [0, p).  It is written into
    out, a zero block of its shape, or into a new array when out is None."""
    return _kron_diag([c.a for c in m.components], source.dims, eye_first=False, out=out)


def pre_op(m: RepMap, target: QuiverRep, out: np.ndarray | None = None) -> np.ndarray:
    """Precomposition with m on flat graded maps phi : m.target -> target,
    as the operator phi -> phi . m : m.source -> target: I_t (x) m_v^T on
    the block diagonal, written as in post_op."""
    return _kron_diag([c.a.T for c in m.components], target.dims, eye_first=True, out=out)


def _kron_diag(mats, sizes, eye_first: bool, out: np.ndarray | None) -> np.ndarray:
    """The block diagonal matrix whose blocks, in order, are m (x) I_n for
    m, n in mats and sizes, or I_n (x) m with eye_first, written into out,
    a zero array or a zero slice of a larger one, or into a new array when
    out is None; returns the matrix."""
    shapes = [(m.shape[0] * n, m.shape[1] * n) for m, n in zip(mats, sizes)]
    if out is None:
        out = np.zeros((sum(r for r, _ in shapes), sum(c for _, c in shapes)), dtype=np.int64)
    r = c = 0
    for m, n, (rows, cols) in zip(mats, sizes, shapes):
        _kron_eye(out[r : r + rows, c : c + cols], m, n, eye_first)
        r, c = r + rows, c + cols
    return out


def _kron_eye(block: np.ndarray, m: np.ndarray, n: int, eye_first: bool) -> None:
    """Write m (x) I_n, or I_n (x) m with eye_first, into block, a zero
    slice of a larger array (splitting its axes keeps it a view), as one
    broadcast of m along the diagonal of I_n."""
    (r, c), at = m.shape, np.arange(n)
    if eye_first:
        block.reshape(n, r, n, c)[at, :, at, :] = m
    else:
        block.reshape(r, n, c, n)[:, at, :, at] = m


def hom_constraint_matrix(a: QuiverRep, b: QuiverRep) -> Mat:
    """Rows cut out the intertwiners inside the flat graded maps a -> b."""
    quiver = a.quiver
    if not quiver.arrows:  # no equations: every flat graded map intertwines
        return Mat.zeros(a.field, 0, flat_dim(a, b))
    offsets = np.cumsum([0] + [t * s for t, s in zip(b.dims, a.dims)])
    rows = []
    for (src, tgt), a_map, b_map in zip(quiver.arrows, a.arrow_maps, b.arrow_maps):
        i, j = quiver.index(src), quiver.index(tgt)
        # b_map . phi_src - phi_tgt . a_map = 0; row (r, c) is entry (r, c)
        # of the t_j x s_i result, and each term touches one block of columns,
        # b_map (x) I_{s_i} and I_{t_j} (x) a_map^T on row-major flat maps
        tj, si = b.dims[j], a.dims[i]
        block = np.zeros((tj * si, offsets[-1]), dtype=np.int64)
        _kron_eye(block[:, offsets[i] : offsets[i + 1]], b_map.a, si, eye_first=False)
        _kron_eye(block[:, offsets[j] : offsets[j + 1]], -a_map.a.T, tj, eye_first=True)
        rows.append(block)
    out = np.concatenate(rows, axis=0)
    return Mat.of(a.field, out)


def rep_hom_basis_flat(a: QuiverRep, b: QuiverRep) -> Mat | None:
    """Deterministic basis of the intertwiner space Hom(a, b), as flat column
    vectors (see RepMap.flat), or None when no equation constrains the flat
    maps a -> b (the constraints are empty or all zero): every one intertwines."""
    constraints = hom_constraint_matrix(a, b)
    return kernel_basis(constraints) if constraints.a.any() else None


def rep_kernel(f: RepMap) -> tuple[QuiverRep, RepMap]:
    """Vertexwise kernel with induced arrow maps and its inclusion."""
    quiver = f.source.quiver
    field = f.source.field
    kmats = [kernel_basis(c) for c in f.components]
    dims = tuple(k.cols for k in kmats)
    arrow_maps = []
    for (src, tgt), a_map in zip(quiver.arrows, f.source.arrow_maps):
        i, j = quiver.index(src), quiver.index(tgt)
        # arrow map sends kernel vectors to kernel vectors; rewrite in the
        # kernel basis at the target vertex
        img = a_map @ kmats[i]
        coords = kernel_coords(kmats[j], img)
        if coords is None:
            raise AssertionError("kernel is not arrow-stable; intertwiner law broken")
        arrow_maps.append(coords)
    ker = QuiverRep(quiver, field, dims, tuple(arrow_maps))
    inc = RepMap(ker, f.source, tuple(kmats))
    return ker, inc


def cycle_coords(inc: RepMap, mats, broken: str) -> tuple[Mat, ...]:
    """Vertexwise coordinates of the columns of mats in the kernel basis that
    inc includes; AssertionError(broken) when a column lies outside it."""
    coords = tuple(kernel_coords(k, m) for k, m in zip(inc.components, mats))
    if any(c is None for c in coords):
        raise AssertionError(broken)
    return coords


def rep_cokernel(f: RepMap) -> tuple[QuiverRep, RepMap]:
    """Vertexwise cokernel with induced arrow maps and its projection."""
    coker, proj, _ = quotient_rep(f.target, tuple(image_basis(c) for c in f.components))
    return coker, proj


def quotient_rep(
    rep: QuiverRep, sub_mats: tuple[Mat, ...]
) -> tuple[QuiverRep, RepMap, tuple[Mat, ...]]:
    """Quotient of rep by an arrow-stable vertexwise subspace.

    sub_mats gives an independent column basis of the subspace at each
    vertex.  Returns (quotient rep, projection, section matrices); sections
    are plain matrices, not intertwiners.
    """
    quiver = rep.quiver
    field = rep.field
    projs, sects, dims = [], [], []
    for v_idx, sub in enumerate(sub_mats):
        q, s = quotient(field, rep.dims[v_idx], sub)
        projs.append(q)
        sects.append(s)
        dims.append(q.rows)
    arrow_maps = []
    for (src, tgt), a_map in zip(quiver.arrows, rep.arrow_maps):
        i, j = quiver.index(src), quiver.index(tgt)
        arrow_maps.append(projs[j] @ a_map @ sects[i])
    out = QuiverRep(quiver, field, tuple(dims), tuple(arrow_maps))
    proj = RepMap(rep, out, tuple(projs))
    return out, proj, tuple(sects)


def direct_sum(*reps: QuiverRep) -> tuple[QuiverRep, tuple[tuple[int, ...], ...]]:
    """The biproduct of reps, stacked in order at every vertex.

    Returns the sum and offsets[i][v], the first coordinate of summand i at
    vertex v; arrow maps are block diagonal in the same order.  With at most
    one nonzero summand the sum is that summand itself (or the zero rep).
    """
    quiver, field = reps[0].quiver, reps[0].field
    if any((r.quiver, r.field) != (quiver, field) for r in reps):  # tuples test identity first
        raise ValueError("direct sum over mismatched quiver or field")
    offsets, at = [], (0,) * len(quiver.vertices)
    for r in reps:
        offsets.append(at)
        at = tuple(o + d for o, d in zip(at, r.dims))
    live = [r for r in reps if not r.is_zero()]
    if len(live) < 2:
        return (live[0] if live else _zero_rep(quiver, field)), tuple(offsets)
    arrow_maps = []
    for idx, (src, tgt) in enumerate(quiver.arrows):
        i, j = quiver.index(src), quiver.index(tgt)
        block = np.zeros((at[j], at[i]), dtype=np.int64)
        for r, off in zip(reps, offsets):
            block[off[j] : off[j] + r.dims[j], off[i] : off[i] + r.dims[i]] = r.arrow_maps[idx].a
        arrow_maps.append(Mat.of(field, block))
    return QuiverRep(quiver, field, at, tuple(arrow_maps)), tuple(offsets)


def random_rep(
    quiver: Quiver, field: PrimeField, max_dim: int, rng: np.random.Generator
) -> QuiverRep:
    """Uniform dims in [0, max_dim], uniform arrow matrices."""
    dims = tuple(int(rng.integers(0, max_dim + 1)) for _ in quiver.vertices)
    arrow_maps = []
    for src, tgt in quiver.arrows:
        i, j = quiver.index(src), quiver.index(tgt)
        arrow_maps.append(Mat.of(field, rng.integers(0, field.p, size=(dims[j], dims[i]))))
    return QuiverRep(quiver, field, dims, tuple(arrow_maps))

