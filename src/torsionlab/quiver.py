"""Finite-dimensional representations of finite acyclic quivers.

A representation assigns a vector space over a fixed prime field to each
vertex and a matrix to each arrow.  Morphisms are vertexwise matrices that
commute with every arrow map exactly (the intertwiner law).  Everything here
is checked at construction time; a RepMap that typechecks is a morphism.

The one exception is RepMap._unchecked, which builds results that exact F_p
arithmetic makes lawful from lawful inputs: composites, sums and differences
of maps with equal endpoints, negatives, scalar multiples, zero and identity
maps.  Raw components from outside (documents, solvers, kernels and
quotients) always go through the checking constructor.  Complex._unchecked
skips only the dense d² product: hom_complex checks that law on flat graded
maps (see its docstring), graded sums (cones, fibers, direct sums, homotopy
(co)limits) on their blocks, and shift negates a lawful differential.  The
inclusions and projections of a graded sum use ChainMap._unchecked, and
are refused where a twist would break them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


class QuiverRep:
    """A representation: dims per vertex, one matrix per arrow."""

    __slots__ = ("quiver", "field", "dims", "arrow_maps")

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
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        object.__setattr__(self, "arrow_maps", tuple(arrow_maps))

    def __setattr__(self, name, value):
        raise AttributeError("QuiverRep is immutable")

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuiverRep):
            return NotImplemented
        return (
            self.quiver == other.quiver
            and self.field == other.field
            and self.dims == other.dims
            and self.arrow_maps == other.arrow_maps
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"QuiverRep({self.field}, dims={self.dims})"


@lru_cache(maxsize=64)
def _zero_rep(quiver: Quiver, field: PrimeField) -> QuiverRep:
    # one shared instance per (quiver, field); QuiverRep is immutable
    dims = tuple(0 for _ in quiver.vertices)
    maps = tuple(Mat.zeros(field, 0, 0) for _ in quiver.arrows)
    return QuiverRep(quiver, field, dims, maps)


class RepMap:
    """An intertwiner between two representations of the same quiver."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: QuiverRep, target: QuiverRep, components: tuple[Mat, ...]):
        if source.quiver != target.quiver:
            raise ValueError("intertwiner between different quivers")
        if source.field != target.field:
            raise ValueError("intertwiner between different fields")
        quiver = source.quiver
        if len(components) != len(quiver.vertices):
            raise ValueError("one component per vertex required")
        for v, c in zip(quiver.vertices, components):
            want = (target.dim(v), source.dim(v))
            if c.shape != want:
                raise ValueError(f"component at {v} has shape {c.shape}, expected {want}")
        for (src, tgt), a_s, a_t in zip(quiver.arrows, source.arrow_maps, target.arrow_maps):
            i, j = quiver.index(src), quiver.index(tgt)
            if (a_t @ components[i]) != (components[j] @ a_s):
                raise ValueError(f"intertwiner law fails on arrow ({src}, {tgt})")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", tuple(components))

    @classmethod
    def _unchecked(
        cls, source: QuiverRep, target: QuiverRep, components: tuple[Mat, ...]
    ) -> "RepMap":
        """Build without the shape and intertwiner checks.

        Only for results that are lawful by construction from lawful maps.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "source", source)
        object.__setattr__(out, "target", target)
        object.__setattr__(out, "components", tuple(components))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("RepMap is immutable")

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

    def component(self, vertex: str) -> Mat:
        return self.components[self.source.quiver.index(vertex)]

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

    def scale(self, c: int) -> "RepMap":
        return RepMap._unchecked(
            self.source, self.target, tuple(m.scale(c) for m in self.components)
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RepMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    __hash__ = None

    def flat(self) -> np.ndarray:
        """Row-major flattening of all components, vertex order."""
        pieces = [c.a.reshape(-1) for c in self.components]
        if not pieces:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(pieces)

    def __repr__(self) -> str:
        return f"RepMap({self.source!r} -> {self.target!r})"


def flat_dim(source: QuiverRep, target: QuiverRep) -> int:
    return sum(t * s for t, s in zip(target.dims, source.dims))


def graded_from_flat(
    source: QuiverRep, target: QuiverRep, vec: np.ndarray
) -> tuple[Mat, ...]:
    """Inverse of RepMap.flat: the vertex components, not yet checked as an
    intertwiner."""
    comps = []
    off = 0
    for t, s in zip(target.dims, source.dims):
        comps.append(Mat(source.field, vec[off : off + t * s], shape=(t, s)))
        off += t * s
    return tuple(comps)


def post_op(m: RepMap, source: QuiverRep, b: np.ndarray) -> np.ndarray:
    """The columns of b, flat graded maps phi : source -> m.source, sent to
    m . phi : source -> m.target, reduced mod p.

    A flat map (see RepMap.flat) holds at each vertex the t x s block of
    phi_v row-major, so that block of the stack reshapes to (t, s * k) and
    one product with m_v composes all k columns at once.
    """
    k = b.shape[1]
    out = np.empty((flat_dim(source, m.target), k), dtype=np.int64)
    at = to = 0
    for c, s in zip(m.components, source.dims):
        block = b[at : at + c.cols * s].reshape(c.cols, s * k)
        out[to : to + c.rows * s] = (c.a @ block).reshape(c.rows * s, k)
        at, to = at + c.cols * s, to + c.rows * s
    _check_stack(b, at)
    return np.remainder(out, m.source.field.p, out=out)


def pre_op(m: RepMap, target: QuiverRep, b: np.ndarray) -> np.ndarray:
    """The columns of b, flat graded maps phi : m.target -> target, sent to
    phi . m : m.source -> target, reduced mod p.

    At each vertex the t x s row-major block of the stack reshapes to
    (t, s, k), and m_v^T times each of its t slices gives the composites.
    """
    k = b.shape[1]
    out = np.empty((flat_dim(m.source, target), k), dtype=np.int64)
    at = to = 0
    for c, t in zip(m.components, target.dims):
        block = b[at : at + t * c.rows].reshape(t, c.rows, k)
        out[to : to + t * c.cols] = np.matmul(c.a.T, block).reshape(t * c.cols, k)
        at, to = at + t * c.rows, to + t * c.cols
    _check_stack(b, at)
    return np.remainder(out, m.source.field.p, out=out)


def _check_stack(b: np.ndarray, rows: int) -> None:
    if b.shape[0] != rows:
        raise ValueError(f"stack of {b.shape[0]} rows for flat maps of size {rows}")


def hom_constraint_matrix(a: QuiverRep, b: QuiverRep) -> Mat:
    """Rows cut out the intertwiners inside the flat graded maps a -> b."""
    quiver = a.quiver
    offsets = np.cumsum([0] + [t * s for t, s in zip(b.dims, a.dims)])
    rows = []
    for (src, tgt), a_map, b_map in zip(quiver.arrows, a.arrow_maps, b.arrow_maps):
        i, j = quiver.index(src), quiver.index(tgt)
        # b_map . phi_src - phi_tgt . a_map = 0; row (r, c) is entry (r, c)
        # of the t_j x s_i result, and each term touches one block of columns
        tj, ti, si, sj = b.dims[j], b.dims[i], a.dims[i], a.dims[j]
        left = b_map.a[:, None, :, None] * np.eye(si, dtype=np.int64)[None, :, None, :]
        right = np.eye(tj, dtype=np.int64)[:, None, :, None] * a_map.a.T[None, :, None, :]
        block = np.zeros((tj * si, offsets[-1]), dtype=np.int64)
        block[:, offsets[i] : offsets[i + 1]] += left.reshape(tj * si, ti * si)
        block[:, offsets[j] : offsets[j + 1]] -= right.reshape(tj * si, tj * sj)
        rows.append(block)
    if not rows:
        return Mat.zeros(a.field, 0, int(offsets[-1]))
    return Mat(a.field, np.concatenate(rows, axis=0))


def rep_hom_basis_flat(a: QuiverRep, b: QuiverRep) -> Mat:
    """Deterministic basis of the intertwiner space Hom(a, b), as flat column
    vectors (see RepMap.flat)."""
    return kernel_basis(hom_constraint_matrix(a, b))


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
    vertex v; arrow maps are block diagonal in the same order.
    """
    quiver, field = reps[0].quiver, reps[0].field
    if any(r.quiver != quiver or r.field != field for r in reps):
        raise ValueError("direct sum over mismatched quiver or field")
    offsets, at = [], (0,) * len(quiver.vertices)
    for r in reps:
        offsets.append(at)
        at = tuple(o + d for o, d in zip(at, r.dims))
    arrow_maps = []
    for idx, (src, tgt) in enumerate(quiver.arrows):
        i, j = quiver.index(src), quiver.index(tgt)
        block = np.zeros((at[j], at[i]), dtype=np.int64)
        for r, off in zip(reps, offsets):
            block[off[j] : off[j] + r.dims[j], off[i] : off[i] + r.dims[i]] = r.arrow_maps[idx].a
        arrow_maps.append(Mat(field, block))
    return QuiverRep(quiver, field, at, tuple(arrow_maps)), tuple(offsets)


def random_rep(
    quiver: Quiver, field: PrimeField, max_dim: int, rng: np.random.Generator
) -> QuiverRep:
    """Uniform dims in [0, max_dim], uniform arrow matrices."""
    dims = tuple(int(rng.integers(0, max_dim + 1)) for _ in quiver.vertices)
    arrow_maps = []
    for src, tgt in quiver.arrows:
        i, j = quiver.index(src), quiver.index(tgt)
        arrow_maps.append(Mat(field, rng.integers(0, field.p, size=(dims[j], dims[i]))))
    return QuiverRep(quiver, field, dims, tuple(arrow_maps))

