"""Bounded chain complexes of quiver representations.

Grading is homological: the differential lowers degree, d_n : X_n -> X_{n-1},
and d_{n} d_{n+1} = 0 is enforced at construction.  The conventions below are
part of the API contract; all higher constructions are derived from them and
tests/test_conventions.py pins them bit for bit.  Direct sums stack their
summands in the order written, at every vertex.

  shift         X[k]_n = X_{n-k}, differential scaled by (-1)^k
  cone(f)_n   = X_{n-1} (+) Y_n          d(x, y) = (-dx, fx + dy)
  fib(f)      = cone(f)[-1], so fib(f)_n = X_n (+) Y_{n+1} with
                                          d(x, y) = (dx, -fx - dy)
  cofib(f)    = cone(f), with into . f null-homotopic by Cone.null_wit
  hom(X, Y)_n = (+)_i Hom(X_i, Y_{i+n})   (d phi) = d_Y phi - (-1)^n phi d_X

A homotopy h from g to f has components h_n : X_n -> Y_{n+1} and satisfies
f - g = d h + h d.  H_n of the hom complex is the space of degree-n maps up
to homotopy; in particular H_0 is chain maps modulo chain homotopy.

Equivalences are never inverted: a map is a quasi-isomorphism exactly when
its cone is acyclic, which cone_homology_dims decides from the ranks of the
cone's blocks without building the cone, and all "X equals Y in the homotopy
category" claims are expressed through an explicit comparison map plus that
test.

cone, fib, homotopy_pullback and homotopy_pushout build only their
graded sum up front.  Their structure maps, null-homotopies and witness
squares are made on first read (functools.cached_property), through the
same checking constructors, and kept; most callers read only the complex.

Every mapping-space question is linear algebra on one object, the hom
complex: homotopic solves D_1 h = f - g, chain_map_basis and
random_chain_map read the kernel of D_0, and the lifting and heart solvers
pose their systems on D_n and the degree-n transports hom_postcompose and
hom_precompose.  hom_complex builds nothing up front: the slots of a degree
and each D_n are made on first read and kept, so a solver pays only for the
degrees it reads, and each D_n checks its d² law, on flat graded maps, when
it is built.  HomComplex.complex assembles every degree for readers of the
whole complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    Mat,
    PrimeField,
    image_basis,
    kernel_basis,
    kernel_coords,
    quotient,
    rank,
    solve,
)
from .quiver import (
    Quiver,
    QuiverRep,
    RepMap,
    direct_sum,
    graded_from_flat,
    post_op,
    pre_op,
    random_rep,
    rep_hom_basis_flat,
)

__all__ = [
    "Complex",
    "ChainMap",
    "Homotopy",
    "CommutingSquare",
    "Cone",
    "Fiber",
    "Pullback",
    "Pushout",
    "GradedSum",
    "HomComplex",
    "HomologyData",
    "zero_complex",
    "identity_map",
    "zero_map",
    "compose",
    "shift",
    "homology",
    "homology_data",
    "homology_dims",
    "induced_homology_map",
    "cone",
    "fib",
    "cone_homology_dims",
    "is_quasi_iso",
    "direct_sum_complex",
    "block_components",
    "hom_complex",
    "homotopy_pullback",
    "homotopy_pushout",
    "is_pullout",
    "is_cartesian",
    "is_cocartesian",
    "homotopic",
    "chain_map_basis",
    "random_complex",
    "random_chain_map",
]


class Complex:
    """A bounded complex.  Support is trimmed to the minimal window."""

    __slots__ = ("quiver", "field", "lo", "terms", "diffs", "_cuts")

    def __init__(
        self,
        quiver: Quiver,
        field: PrimeField,
        lo: int,
        terms: tuple[QuiverRep, ...],
        diffs: tuple[RepMap, ...],
    ):
        self._fill(quiver, field, lo, terms, diffs)
        for i in range(len(diffs) - 1):
            if not diffs[i].compose(diffs[i + 1]).is_zero():
                raise ValueError("d-squared law fails")

    def _fill(self, quiver, field, lo, terms, diffs) -> None:
        if terms and len(diffs) != len(terms) - 1:
            raise ValueError("need exactly one differential between adjacent degrees")
        if not terms and diffs:
            raise ValueError("differentials without terms")
        for t in terms:
            if t.quiver != quiver or t.field != field:
                raise ValueError("term over the wrong quiver or field")
        for i, d in enumerate(diffs):
            if d.source != terms[i + 1] or d.target != terms[i]:
                raise ValueError(f"differential {i} does not match adjacent terms")
        # trim zero boundary terms so equal objects have equal supports
        start, stop = 0, len(terms)
        while start < stop and terms[start].is_zero():
            start += 1
        while stop > start and terms[stop - 1].is_zero():
            stop -= 1
        if start == stop:
            lo, terms, diffs = 0, (), ()
        else:
            lo = lo + start
            terms = terms[start:stop]
            diffs = diffs[start : stop - 1]
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "diffs", diffs)
        object.__setattr__(self, "_cuts", None)

    @classmethod
    def _unchecked(cls, quiver, field, lo, terms, diffs) -> "Complex":
        """Build with the term and endpoint checks but without the dense d²
        product: only for complexes whose d² = 0 the caller checked another
        way (hom_complex on graded maps, _graded_sum on its blocks) or that
        exact arithmetic keeps lawful (shift)."""
        out = object.__new__(cls)
        out._fill(quiver, field, lo, terms, diffs)
        return out

    def _cut_memo(self) -> dict:
        """tstruct's cut data by degree, made on first use; not in equality."""
        if self._cuts is None:
            object.__setattr__(self, "_cuts", {})
        return self._cuts

    def __setattr__(self, name, value):
        raise AttributeError("Complex is immutable")

    @property
    def hi(self) -> int:
        return self.lo + len(self.terms) - 1

    @property
    def support(self) -> range:
        return range(self.lo, self.lo + len(self.terms))

    def term(self, n: int) -> QuiverRep:
        if n in self.support:
            return self.terms[n - self.lo]
        return QuiverRep.zero(self.quiver, self.field)

    def diff(self, n: int) -> RepMap:
        """The differential X_n -> X_{n-1}."""
        d = self._stored_diff(n)
        return d if d is not None else RepMap.zero(self.term(n), self.term(n - 1))

    def _stored_diff(self, n: int) -> RepMap | None:
        """The differential X_n -> X_{n-1}, or None where it is zero for lack
        of support."""
        if self.lo < n <= self.hi:
            return self.diffs[n - 1 - self.lo]
        return None

    @property
    def total_dim(self) -> int:
        return sum(t.total_dim for t in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        return (
            self.quiver == other.quiver
            and self.field == other.field
            and self.lo == other.lo
            and self.terms == other.terms
            and self.diffs == other.diffs
        )

    __hash__ = None

    def __repr__(self) -> str:
        if self.is_zero():
            return f"Complex({self.field}, 0)"
        dims = {n: sum(self.term(n).dims) for n in self.support}
        return f"Complex({self.field}, dims={dims})"


def zero_complex(quiver: Quiver, field: PrimeField) -> Complex:
    return Complex(quiver, field, 0, (), ())


class ChainMap:
    """A degreewise intertwiner commuting with the differentials."""

    __slots__ = ("source", "target", "comps")

    def __init__(self, source: Complex, target: Complex, comps: dict[int, RepMap]):
        if source.quiver != target.quiver or source.field != target.field:
            raise ValueError("chain map between incompatible complexes")
        for n, c in comps.items():
            if c.source != source.term(n) or c.target != target.term(n):
                raise ValueError(f"component at degree {n} has wrong endpoints")
        self._fill(source, target, comps)
        # both sides of the law at n vanish unless a component sits at n or
        # n - 1, so only those degrees are checked, however far apart the
        # two supports lie
        for n in sorted({m for k in self.comps for m in (k, k + 1)}):
            lhs = _after(target._stored_diff(n), self.comps.get(n))
            rhs = _after(self.comps.get(n - 1), source._stored_diff(n))
            if not _agree(lhs, rhs):
                raise ValueError(f"chain-map law fails at degree {n}")

    def _fill(self, source: Complex, target: Complex, comps: dict[int, RepMap]) -> None:
        kept = {n: c for n, c in comps.items() if not c.is_zero()}
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "comps", kept)

    @classmethod
    def _unchecked(
        cls, source: Complex, target: Complex, comps: dict[int, RepMap]
    ) -> "ChainMap":
        """Build without the endpoint and chain-map checks.

        Only for results that are lawful by construction from lawful maps:
        composites, sums, negatives, zero and identity maps.
        """
        out = object.__new__(cls)
        out._fill(source, target, comps)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("ChainMap is immutable")

    def comp(self, n: int) -> RepMap:
        got = self.comps.get(n)
        if got is not None:
            return got
        return RepMap.zero(self.source.term(n), self.target.term(n))

    def is_zero(self) -> bool:
        return not self.comps

    def __add__(self, other: "ChainMap") -> "ChainMap":
        if self.source != other.source or self.target != other.target:
            raise ValueError("sum of chain maps with different endpoints")
        degs = set(self.comps) | set(other.comps)
        return ChainMap._unchecked(
            self.source, self.target, {n: self.comp(n) + other.comp(n) for n in degs}
        )

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        return self + (-other)

    def __neg__(self) -> "ChainMap":
        return ChainMap._unchecked(
            self.source, self.target, {n: -c for n, c in self.comps.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.comps == other.comps
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"ChainMap({self.source!r} -> {self.target!r})"


def _after(outer: RepMap | None, inner: RepMap | None) -> RepMap | None:
    """outer . inner, with None standing for a zero map; an absent factor
    makes the composite zero without building it."""
    if outer is None or inner is None:
        return None
    return outer.compose(inner)


def _plus(lhs: RepMap | None, rhs: RepMap | None) -> RepMap | None:
    """lhs + rhs, with None standing for a zero map."""
    if lhs is None:
        return rhs
    if rhs is None:
        return lhs
    return lhs + rhs


def _agree(lhs: RepMap | None, rhs: RepMap | None) -> bool:
    """Equality of two maps known to share their endpoints, None being zero."""
    if lhs is None:
        return rhs is None or rhs.is_zero()
    if rhs is None:
        return lhs.is_zero()
    return lhs.components == rhs.components


def identity_map(x: Complex) -> ChainMap:
    return ChainMap._unchecked(x, x, {n: RepMap.identity(x.term(n)) for n in x.support})

def zero_map(x: Complex, y: Complex) -> ChainMap:
    if x.quiver != y.quiver or x.field != y.field:
        raise ValueError("chain map between incompatible complexes")
    return ChainMap._unchecked(x, y, {})


def compose(f: ChainMap, g: ChainMap) -> ChainMap:
    """f after g."""
    if g.target != f.source:
        raise ValueError("composition endpoint mismatch")
    # a degree where either factor is zero contributes a zero component
    degs = f.comps.keys() & g.comps.keys()
    return ChainMap._unchecked(
        g.source, f.target, {n: f.comps[n].compose(g.comps[n]) for n in degs}
    )


class Homotopy:
    """Components h_n : X_n -> Y_{n+1} with  to - from = d h + h d."""

    __slots__ = ("from_map", "to_map", "comps")

    def __init__(self, from_map: ChainMap, to_map: ChainMap, comps: dict[int, RepMap]):
        if from_map.source != to_map.source or from_map.target != to_map.target:
            raise ValueError("homotopy between maps with different endpoints")
        x, y = from_map.source, from_map.target
        kept: dict[int, RepMap] = {}
        for n, c in comps.items():
            if c.source != x.term(n) or c.target != y.term(n + 1):
                raise ValueError(f"homotopy component at degree {n} has wrong endpoints")
            if not c.is_zero():
                kept[n] = c
        object.__setattr__(self, "from_map", from_map)
        object.__setattr__(self, "to_map", to_map)
        object.__setattr__(self, "comps", kept)
        # both sides of the law at n vanish unless a component of h sits at
        # n or n - 1, or one of the two maps has one at n
        degs = {m for k in kept for m in (k, k + 1)} | set(from_map.comps) | set(to_map.comps)
        for n in sorted(degs):
            # from + d h + h d = to, an absent map or differential being zero
            got = _plus(
                _plus(from_map.comps.get(n), _after(y._stored_diff(n + 1), kept.get(n))),
                _after(kept.get(n - 1), x._stored_diff(n)),
            )
            if not _agree(got, to_map.comps.get(n)):
                raise ValueError(f"homotopy law fails at degree {n}")

    def __setattr__(self, name, value):
        raise AttributeError("Homotopy is immutable")

    def comp(self, n: int) -> RepMap:
        got = self.comps.get(n)
        if got is not None:
            return got
        return RepMap.zero(self.from_map.source.term(n), self.from_map.target.term(n + 1))

    def __repr__(self) -> str:
        return f"Homotopy({self.from_map!r} => {self.to_map!r})"


@dataclass(frozen=True)
class CommutingSquare:
    """top: W->X, left: W->Y, right: X->Z, bottom: Y->Z, commuting up to
    the recorded homotopy from bottom.left to right.top."""

    top: ChainMap
    left: ChainMap
    right: ChainMap
    bottom: ChainMap
    witness: Homotopy

    def __post_init__(self):
        if self.top.source != self.left.source:
            raise ValueError("square corners disagree at the source")
        if self.right.target != self.bottom.target:
            raise ValueError("square corners disagree at the sink")
        if self.top.target != self.right.source or self.left.target != self.bottom.source:
            raise ValueError("square edges do not chain")
        if self.witness.from_map != compose(self.bottom, self.left):
            raise ValueError("square witness starts at the wrong composite")
        if self.witness.to_map != compose(self.right, self.top):
            raise ValueError("square witness ends at the wrong composite")

    @classmethod
    def strict(cls, top, left, right, bottom) -> "CommutingSquare":
        """For squares commuting on the nose; witness is the zero homotopy."""
        lhs = compose(bottom, left)
        rhs = compose(right, top)
        if lhs != rhs:
            raise ValueError("square does not commute strictly")
        return cls(top, left, right, bottom, Homotopy(lhs, rhs, {}))


# -- shifting -----------------------------------------------------------------


def shift(x: Complex, k: int) -> Complex:
    """X[k]_n = X_{n-k}; odd shifts negate the differential, which keeps
    d² = 0, so the shift is built without the dense d² product."""
    if k == 0:
        return x
    diffs = tuple(-d for d in x.diffs) if k % 2 else x.diffs
    return Complex._unchecked(x.quiver, x.field, x.lo + k, x.terms, diffs)


# -- homology -----------------------------------------------------------------


@dataclass(frozen=True)
class HomologyData:
    """H_n(X) together with chosen cycle representatives.

    reps[v] maps homology coordinates at vertex v to cycle vectors in X_n(v);
    class_of inverts it on cycles.
    """

    complex: Complex
    degree: int
    rep: QuiverRep
    kernels: tuple[Mat, ...]
    projections: tuple[Mat, ...]
    reps: tuple[Mat, ...]

    def class_of(self, v_idx: int, cycles: Mat) -> Mat:
        """Coordinates of homology classes of the given cycle columns."""
        coords = kernel_coords(self.kernels[v_idx], cycles)
        if coords is None:
            raise ValueError("vector is not a cycle")
        return self.projections[v_idx] @ coords


def homology_data(x: Complex, n: int) -> HomologyData:
    quiver, field = x.quiver, x.field
    d_in = x.diff(n + 1)
    d_out = x.diff(n)
    kernels, projs, sects, dims = [], [], [], []
    for v_idx in range(len(quiver.vertices)):
        k = kernel_basis(d_out.components[v_idx])
        bd = image_basis(d_in.components[v_idx])
        coords = kernel_coords(k, bd)
        if coords is None:
            raise AssertionError("boundaries are not cycles; d-squared broken")
        q, s = quotient(field, k.cols, image_basis(coords))
        kernels.append(k)
        projs.append(q)
        sects.append(s)
        dims.append(q.rows)
    reps = tuple(k @ s for k, s in zip(kernels, sects))
    arrow_maps = []
    term = x.term(n)
    for a_idx, (src, tgt) in enumerate(quiver.arrows):
        i, j = quiver.index(src), quiver.index(tgt)
        carried = term.arrow_maps[a_idx] @ reps[i]
        coords = kernel_coords(kernels[j], carried)
        if coords is None:
            raise AssertionError("arrow map does not preserve cycles")
        arrow_maps.append(projs[j] @ coords)
    h = QuiverRep(quiver, field, tuple(dims), tuple(arrow_maps))
    return HomologyData(x, n, h, tuple(kernels), tuple(projs), reps)


def homology(x: Complex, n: int) -> QuiverRep:
    return homology_data(x, n).rep


def homology_dims(x: Complex) -> dict[int, tuple[int, ...]]:
    """Vertexwise homology dimensions on the support, by rank counting.

    Each stored differential is ranked once; the differentials out of and
    into the ends of the support are zero.
    """
    ranks = [tuple(rank(c) for c in d.components) for d in x.diffs]
    return _dims_from_ranks(x.support, [t.dims for t in x.terms], ranks)


def _dims_from_ranks(support, dims, ranks) -> dict[int, tuple[int, ...]]:
    """Vertexwise dim H_n = dim X_n - rank d_n - rank d_{n+1} on the support,
    from the term dims and the ranks of the differentials between them; the
    differentials out of and into the ends of the support are zero."""
    edge = ((0,) * len(dims[0]),) if dims else ()
    ranks = edge + tuple(ranks) + edge
    return {
        n: tuple(d - r_out - r_in for d, r_out, r_in in zip(dn, ranks[i], ranks[i + 1]))
        for i, (n, dn) in enumerate(zip(support, dims))
    }


def induced_homology_map(f: ChainMap, n: int) -> RepMap:
    hx = homology_data(f.source, n)
    hy = homology_data(f.target, n)
    comps = []
    for v_idx in range(len(f.source.quiver.vertices)):
        carried = f.comp(n).components[v_idx] @ hx.reps[v_idx]
        comps.append(hy.class_of(v_idx, carried))
    return RepMap(hx.rep, hy.rep, tuple(comps))


# -- graded sums: cones, fibers, direct sums, homotopy (co)limits ------------------


@dataclass(frozen=True)
class GradedSum:
    """A complex whose degree-n term is the direct sum, over its parts
    (C_i, k_i), of (C_i)_{n - k_i}: the terms of the shifts C_i[k_i].

    Every vertex stacks the parts in order; offsets[n][i][v] is the first
    coordinate of part i in degree n at vertex v.  The differential is
    block lower-triangular: each part's shifted differential on the
    diagonal, plus the twists (j, i) that glue part i into part j.
    """

    complex: Complex
    parts: tuple[tuple[Complex, int], ...]
    offsets: dict[int, tuple[tuple[int, ...], ...]]
    twists: tuple[tuple[int, int], ...]

    def inclusion(self, i: int) -> ChainMap:
        """C_i[k_i] -> the sum, a chain map because no twist leaves part i."""
        if any(src == i for _, src in self.twists):
            raise ValueError(f"a twist leaves part {i}, so it has no inclusion")
        part = shift(*self.parts[i])
        comps = block_components(part, self, 0, {(i, 0): (1, identity_map(part).comps)})
        return ChainMap._unchecked(part, self.complex, comps)

    def projection(self, i: int) -> ChainMap:
        """The sum -> C_i[k_i], a chain map because no twist enters part i."""
        if any(tgt == i for tgt, _ in self.twists):
            raise ValueError(f"a twist enters part {i}, so it has no projection")
        part, c = shift(*self.parts[i]), self.parts[i][0]
        comps = block_components(self, part, 0, {(0, i): (1, identity_map(c).comps)})
        return ChainMap._unchecked(self.complex, part, comps)


def _graded_sum(parts, twists=None) -> GradedSum:
    """The graded sum of parts [(C_i, k_i)], twisted by twists[(j, i)] =
    (sign, chain map C_i -> C_j), built without the dense d² product.

    Each twist must run from part i to part j and lower the degree (k_i =
    k_j + 1), and no two twists compose.  Then d² = 0 blockwise: diagonal
    blocks square to d² = 0, and a twist's block is sign (s_j d f + s_i f d)
    with s_i = (-1)^{k_i} = -s_j, zero because f is a chain map.
    """
    twists = twists or {}
    for (j, i), (_, f) in twists.items():
        if f.source != parts[i][0] or f.target != parts[j][0]:
            raise ValueError(f"twist ({j}, {i}) does not run from part {i} to part {j}")
        if parts[i][1] != parts[j][1] + 1:
            raise ValueError(f"twist ({j}, {i}) does not lower the degree")
    if {j for j, _ in twists} & {i for _, i in twists}:
        raise ValueError("two twists compose")
    quiver, fld = parts[0][0].quiver, parts[0][0].field
    keys = tuple(twists)
    span = _sum_span(parts)
    if span is None:
        return GradedSum(zero_complex(quiver, fld), tuple(parts), {}, keys)
    lo, hi = span
    terms, offsets = [], {}
    for n in range(lo, hi + 1):
        term, offsets[n] = direct_sum(*(c.term(n - k) for c, k in parts))
        terms.append(term)
    table = _sum_table(parts, twists)
    diffs = []
    for n in range(lo + 1, hi + 1):
        src, tgt = terms[n - lo], terms[n - 1 - lo]
        mats = _blocks(parts, fld, n, (offsets[n], src.dims), (offsets[n - 1], tgt.dims), table)
        diffs.append(RepMap._unchecked(src, tgt, mats) if mats else RepMap.zero(src, tgt))
    cx = Complex._unchecked(quiver, fld, lo, tuple(terms), tuple(diffs))
    return GradedSum(cx, tuple(parts), offsets, keys)


def _sum_span(parts) -> tuple[int, int] | None:
    """The first and last degree of the graded sum of parts, None when every
    part is zero.  The ends are the ends of nonzero parts, so they need no
    trimming."""
    live = [(c, k) for c, k in parts if not c.is_zero()]
    if not live:
        return None
    return min(c.lo + k for c, k in live), max(c.hi + k for c, k in live)


def _sum_table(parts, twists):
    """The differential's blocks: each part's shifted differential on the
    diagonal, each twist below it, as (sign, maps keyed by source degree)."""
    table = {
        (i, i): (-1 if k % 2 else 1, dict(zip(range(c.lo + 1, c.hi + 1), c.diffs)))
        for i, (c, k) in enumerate(parts)
    }
    table.update({key: (sign, f.comps) for key, (sign, f) in twists.items()})
    return table


def _blocks(parts, fld, n, src, tgt, table):
    """Vertex matrices holding the table's blocks, with the source parts read
    in degree n; src and tgt are (offsets by part, dims) of the two sides.
    None when every block is absent."""
    (src_at, src_dims), (tgt_at, tgt_dims) = src, tgt
    mats = None
    for (j, i), (sign, maps) in table.items():
        g = maps.get(n - parts[i][1])
        if g is None:
            continue
        if mats is None:
            mats = [np.zeros(shape, dtype=np.int64) for shape in zip(tgt_dims, src_dims)]
        for a, b, row, col in zip(mats, g.components, tgt_at[j], src_at[i]):
            a[row : row + b.rows, col : col + b.cols] = b.a if sign == 1 else -b.a
    return None if mats is None else tuple(Mat(fld, a) for a in mats)


def _layout(side: "GradedSum | Complex"):
    if isinstance(side, GradedSum):
        return side.complex, side.parts, side.offsets
    at = ((0,) * len(side.quiver.vertices),)
    return side, ((side, 0),), {n: at for n in side.support}


def block_components(
    source: "GradedSum | Complex", target: "GradedSum | Complex", degree: int, table
) -> dict[int, RepMap]:
    """Components source_n -> target_{n+degree} of a graded map given by blocks.

    A plain complex is a graded sum with itself as its one part.  table maps
    (target part j, source part i) to (sign, maps): maps holds the components
    (C_i)_m -> (D_j)_{m + degree + k_i - l_j}, keyed by m.
    The components are trusted; wrap them in a checking ChainMap or Homotopy.
    """
    src, parts, src_offsets = _layout(source)
    tgt, _, tgt_offsets = _layout(target)
    out = {}
    for n in src.support:
        t = n + degree
        if t not in tgt_offsets:
            continue
        s_term, t_term = src.term(n), tgt.term(t)
        s_side, t_side = (src_offsets[n], s_term.dims), (tgt_offsets[t], t_term.dims)
        mats = _blocks(parts, src.field, n, s_side, t_side, table)
        if mats is not None:
            out[n] = RepMap._unchecked(s_term, t_term, mats)
    return out


@dataclass(frozen=True)
class Cone:
    """cone(f) as a graded sum, which is also the cofiber of f; its
    structure maps are made on first read, the null-homotopy checked."""

    f: ChainMap
    blocks: GradedSum  # parts (X, 1), (Y, 0)

    @property
    def complex(self) -> Complex:
        return self.blocks.complex

    @cached_property
    def into(self) -> ChainMap:
        """Y -> cone."""
        return self.blocks.inclusion(1)

    @cached_property
    def outof(self) -> ChainMap:
        """cone -> X[1]."""
        return self.blocks.projection(0)

    @cached_property
    def null_wit(self) -> Homotopy:
        """From 0 to into . f."""
        x = self.f.source
        return Homotopy(
            zero_map(x, self.complex),
            compose(self.into, self.f),
            block_components(x, self.blocks, 1, {(0, 0): (1, identity_map(x).comps)}),
        )


def cone(f: ChainMap) -> Cone:
    return Cone(f, _graded_sum([(f.source, 1), (f.target, 0)], {(1, 0): (1, f)}))


@dataclass(frozen=True)
class Fiber:
    """fib(f) as a graded sum; the projection to X and the null-homotopy
    are made on first read, the null-homotopy checked."""

    f: ChainMap
    blocks: GradedSum  # parts (X, 0), (Y, -1)

    @property
    def complex(self) -> Complex:
        return self.blocks.complex

    @cached_property
    def to_source(self) -> ChainMap:
        """fib(f) -> X."""
        return self.blocks.projection(0)

    @cached_property
    def null_wit(self) -> Homotopy:
        """From 0 to f . to_source."""
        y = self.f.target
        return Homotopy(
            zero_map(self.complex, y),
            compose(self.f, self.to_source),
            block_components(self.blocks, y, 1, {(0, 1): (-1, identity_map(y).comps)}),
        )


def fib(f: ChainMap) -> Fiber:
    return Fiber(f, _graded_sum([(f.source, 0), (f.target, -1)], {(1, 0): (-1, f)}))


def cone_homology_dims(f: ChainMap) -> dict[int, tuple[int, ...]]:
    """homology_dims(cone(f).complex), without building the cone.

    The cone's differential cone_n -> cone_{n-1} has the blocks
    [[-dX_{n-1}, 0], [f_{n-1}, dY_n]]; they are filled per vertex straight
    from f and the stored differentials of its ends, in the layout cone(f)
    uses, and ranked.  A differential whose blocks are all absent has rank
    0 and is not eliminated.  No representation, map or complex is made.
    """
    parts = ((f.source, 1), (f.target, 0))
    span = _sum_span(parts)
    if span is None:
        return {}
    lo, hi = span
    zero = (0,) * len(f.source.quiver.vertices)

    def layout(n):  # offsets by part and dims of cone_n = X_{n-1} (+) Y_n
        x_dims, y_dims = f.source.term(n - 1).dims, f.target.term(n).dims
        return (zero, x_dims), tuple(a + b for a, b in zip(x_dims, y_dims))

    layouts = [layout(n) for n in range(lo, hi + 1)]
    table = _sum_table(parts, {(1, 0): (1, f)})
    ranks = []
    for n in range(lo + 1, hi + 1):
        mats = _blocks(parts, f.source.field, n, layouts[n - lo], layouts[n - 1 - lo], table)
        ranks.append(zero if mats is None else tuple(rank(m) for m in mats))
    return _dims_from_ranks(range(lo, hi + 1), [dims for _, dims in layouts], ranks)


def is_quasi_iso(f: ChainMap) -> bool:
    """f is a quasi-isomorphism exactly when its cone is acyclic."""
    return all(not any(dims) for dims in cone_homology_dims(f).values())


def direct_sum_complex(x: Complex, y: Complex) -> GradedSum:
    """X (+) Y; its inclusions and projections are chain maps."""
    return _graded_sum([(x, 0), (y, 0)])


@dataclass(frozen=True)
class Pullback:
    """The homotopy pullback of f, g : * -> Z as a graded sum; the
    projections and the witness square are made, and checked, on first
    read."""

    f: ChainMap
    g: ChainMap
    blocks: GradedSum  # fib(X (+) Y -> Z): parts (X, 0), (Y, 0), (Z, -1)

    @property
    def complex(self) -> Complex:
        return self.blocks.complex

    @cached_property
    def proj_first(self) -> ChainMap:
        return self.blocks.projection(0)

    @cached_property
    def proj_second(self) -> ChainMap:
        return self.blocks.projection(1)

    @cached_property
    def square(self) -> CommutingSquare:
        f, g, z = self.f, self.g, self.f.target
        p1, p2 = self.proj_first, self.proj_second
        wit = Homotopy(
            compose(g, p2),
            compose(f, p1),
            block_components(self.blocks, z, 1, {(0, 2): (-1, identity_map(z).comps)}),
        )
        return CommutingSquare(p1, p2, f, g, wit)


def homotopy_pullback(f: ChainMap, g: ChainMap) -> Pullback:
    """W with projections to the sources of f, g : * -> Z and the witness square."""
    if f.target != g.target:
        raise ValueError("pullback legs must share a target")
    s = _graded_sum(
        [(f.source, 0), (g.source, 0), (f.target, -1)],
        {(2, 0): (-1, f), (2, 1): (1, g)},
    )
    return Pullback(f, g, s)


def pullback_induced(
    pb_from: Pullback,
    pb_to: Pullback,
    on_first: ChainMap,
    on_second: ChainMap,
    on_base: ChainMap,
) -> ChainMap:
    """Functoriality of homotopy pullbacks along a strictly commuting cospan map.

    Requires on_base . (old legs) = (new legs) . on_first/on_second on the
    nose; the induced map carries each summand by the given maps.
    """
    for old, new, side in (
        (pb_from.square.right, pb_to.square.right, on_first),
        (pb_from.square.bottom, pb_to.square.bottom, on_second),
    ):
        if compose(on_base, old) != compose(new, side):
            raise ValueError("cospan map does not commute strictly")
    table = {(i, i): (1, g.comps) for i, g in enumerate((on_first, on_second, on_base))}
    comps = block_components(pb_from.blocks, pb_to.blocks, 0, table)
    return ChainMap(pb_from.complex, pb_to.complex, comps)


@dataclass(frozen=True)
class Pushout:
    """The homotopy pushout of f, g : W -> * as a graded sum; the
    injections and the witness square are made, and checked, on first
    read."""

    f: ChainMap
    g: ChainMap
    blocks: GradedSum  # cone(W -> X (+) Y): parts (W, 1), (X, 0), (Y, 0)

    @property
    def complex(self) -> Complex:
        return self.blocks.complex

    @cached_property
    def inj_first(self) -> ChainMap:
        return self.blocks.inclusion(1)

    @cached_property
    def inj_second(self) -> ChainMap:
        return self.blocks.inclusion(2)

    @cached_property
    def square(self) -> CommutingSquare:
        f, g, w = self.f, self.g, self.f.source
        i1, i2 = self.inj_first, self.inj_second
        wit = Homotopy(
            compose(i2, g),
            compose(i1, f),
            block_components(w, self.blocks, 1, {(0, 0): (1, identity_map(w).comps)}),
        )
        return CommutingSquare(f, g, i1, i2, wit)


def homotopy_pushout(f: ChainMap, g: ChainMap) -> Pushout:
    """The double mapping cylinder of X <- W -> Y with its witness square."""
    if f.source != g.source:
        raise ValueError("pushout legs must share a source")
    s = _graded_sum(
        [(f.source, 1), (f.target, 0), (g.target, 0)],
        {(1, 0): (1, f), (2, 0): (-1, g)},
    )
    return Pushout(f, g, s)


def _square_glue_map(sq: CommutingSquare) -> ChainMap:
    """The comparison cone(W -> X (+) Y) -> Z assembled with the witness."""
    z = sq.right.target
    s = _graded_sum(
        [(sq.top.source, 1), (sq.top.target, 0), (sq.left.target, 0)],
        {(1, 0): (1, sq.top), (2, 0): (1, sq.left)},
    )
    table = {
        (0, 0): (1, sq.witness.comps),
        (0, 1): (1, sq.right.comps),
        (0, 2): (-1, sq.bottom.comps),
    }
    return ChainMap(s.complex, z, block_components(s, z, 0, table))


def is_pullout(sq: CommutingSquare) -> bool:
    """True iff the square's total complex is acyclic.

    This is the bicartesian test; is_cartesian and is_cocartesian decide the
    two universal properties separately through their comparison maps.
    """
    return is_quasi_iso(_square_glue_map(sq))


def is_cartesian(sq: CommutingSquare) -> bool:
    pb = homotopy_pullback(sq.right, sq.bottom)
    w = sq.top.source
    table = {
        (0, 0): (1, sq.top.comps),
        (1, 0): (1, sq.left.comps),
        (2, 0): (-1, sq.witness.comps),
    }
    chi = ChainMap(w, pb.complex, block_components(w, pb.blocks, 0, table))
    return is_quasi_iso(chi)


def is_cocartesian(sq: CommutingSquare) -> bool:
    po = homotopy_pushout(sq.top, sq.left)
    z = sq.right.target
    table = {
        (0, 0): (1, sq.witness.comps),
        (0, 1): (1, sq.right.comps),
        (0, 2): (1, sq.bottom.comps),
    }
    psi = ChainMap(po.complex, z, block_components(po.blocks, z, 0, table))
    return is_quasi_iso(psi)


# -- hom complexes ------------------------------------------------------------


class HomComplex:
    """The mapping complex Hom(X, Y) as a complex of plain vector spaces.

    The degree-n term is the intertwiner space (+)_i Hom(X_i, Y_{i+n}) over
    the one-vertex quiver.  Each slot i keeps its first coordinate and its
    flat basis (rep_hom_basis_flat), so that coordinates decode back into
    graded maps.  The slots of a degree and each differential D_n are built
    on first read and kept; complex assembles every degree.

    D_n checks its own d² law as it is built, on flat graded maps rather
    than by dense products.  For each slot i of degree n, kernel_coords
    confirms B_{n-1} D_n[:, i] == images(n, i, B_i) exactly, and the bases B
    are injective; so D_{n-1} D_n = 0 exactly when images(n - 1, ...) of
    those images sum to zero in every slot of degree n - 2.
    """

    def __init__(self, source: Complex, target: Complex):
        self.source = source
        self.target = target
        # the degrees of the nonzero terms: slot i of degree n exists exactly
        # when X_i and Y_{i+n} are nonzero
        self._xs = [i for i in source.support if not source.term(i).is_zero()]
        self._ys = {i for i in target.support if not target.term(i).is_zero()}
        self._slots: dict[int, dict[int, tuple[int, Mat]]] = {}
        self._diffs: dict[int, Mat] = {}

    def _is_slot(self, n: int, i: int) -> bool:
        return i + n in self._ys and i in self._xs

    def slots(self, n: int) -> dict[int, tuple[int, Mat]]:
        """Slot i of degree n -> (its first coordinate, its flat basis)."""
        got = self._slots.get(n)
        if got is None:
            x, y = self.source, self.target
            got, off = {}, 0
            for i in self._xs:
                if i + n in self._ys:
                    b = rep_hom_basis_flat(x.term(i), y.term(i + n))
                    got[i] = (off, b)
                    off += b.cols
            self._slots[n] = got
        return got

    def dim(self, n: int) -> int:
        return sum(b.cols for _, b in self.slots(n).values())

    def _images(self, n: int, i: int, b: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """d of the flat maps X_i -> Y_{i+n} in the columns of b: the post
        part in slot i of degree n - 1, the pre part in slot i + 1."""
        x, y, out = self.source, self.target, []
        if self._is_slot(n - 1, i):
            out.append((i, post_op(y.diff(i + n), x.term(i), b)))
        if self._is_slot(n - 1, i + 1):
            pre = pre_op(x.diff(i + 1), y.term(i + n), b)
            out.append((i + 1, (pre if n % 2 else -pre) % x.field.p))
        return out

    def diff(self, n: int) -> Mat:
        """D_n : Hom_n -> Hom_{n-1}, (D phi) = d_Y phi - (-1)^n phi d_X."""
        got = self._diffs.get(n)
        if got is not None:
            return got
        fld = self.source.field
        tgt = self.slots(n - 1)
        mat = np.zeros((self.dim(n - 1), self.dim(n)), dtype=np.int64)
        for i, (col, b) in self.slots(n).items():
            twice: dict[int, np.ndarray] = {}
            for j, img in self._images(n, i, b.a):
                off, basis = tgt[j]
                coords = kernel_coords(basis, Mat(fld, img))
                if coords is None:
                    raise AssertionError("hom differential left the intertwiner space")
                mat[off : off + basis.cols, col : col + b.cols] = coords.a
                for k, dd in self._images(n - 1, j, img):
                    twice[k] = twice.get(k, 0) + dd
            if any((dd % fld.p).any() for dd in twice.values()):
                raise ValueError("d-squared law fails")
        got = self._diffs[n] = Mat(fld, mat)
        return got

    @cached_property
    def complex(self) -> Complex:
        """Every degree assembled, for readers of the whole complex."""
        x, y, fld = self.source, self.target, self.source.field
        point = Quiver.point()
        if x.is_zero() or y.is_zero():
            return zero_complex(point, fld)
        degs = range(y.lo - x.hi, y.hi - x.lo + 1)
        # lists, not tuple(generator): CPython resizes a tuple built from a
        # generator, and the resized tuples pile up in its free lists (on
        # hom-large that raised the peak RSS by about 1 %)
        terms = [QuiverRep(point, fld, (self.dim(n),), ()) for n in degs]
        diffs = [
            RepMap(src, tgt, (self.diff(n),))
            for n, src, tgt in zip(degs[1:], terms[1:], terms)
        ]
        return Complex._unchecked(point, fld, degs[0], tuple(terms), tuple(diffs))

    def decode(self, n: int, coeffs: np.ndarray) -> dict[int, RepMap]:
        """Coordinates at degree n -> the checked components X_i -> Y_{i+n}."""
        x, y, p = self.source, self.target, self.source.field.p
        out = {}
        for i, (off, basis) in self.slots(n).items():
            src, tgt = x.term(i), y.term(i + n)
            vec = (basis.a @ np.asarray(coeffs[off : off + basis.cols], dtype=np.int64)) % p
            out[i] = RepMap(src, tgt, graded_from_flat(src, tgt, vec))
        return out

    def cycle_to_chain_map(self, n: int, coeffs: np.ndarray) -> ChainMap:
        """A degree-n cycle is exactly a chain map X[n] -> Y; at n = 0 its
        source is X itself (shift by 0 returns its argument)."""
        comps = {i + n: m for i, m in self.decode(n, coeffs).items()}
        return ChainMap(shift(self.source, n), self.target, comps)

    def encode(self, n: int, graded: dict[int, RepMap]) -> np.ndarray:
        """Coordinates of a graded collection of maps X_i -> Y_{i+n}."""
        slots = self.slots(n)
        out = np.zeros(self.dim(n), dtype=np.int64)
        for i, g in graded.items():
            if g.is_zero():
                continue
            if i not in slots:
                raise ValueError("graded map has a component outside the hom complex")
            off, basis = slots[i]
            coords = kernel_coords(basis, Mat(self.source.field, g.flat().reshape(-1, 1)))
            if coords is None:
                raise ValueError("graded map is not an intertwiner collection")
            out[off : off + basis.cols] = coords.a[:, 0]
        return out


def hom_complex(x: Complex, y: Complex) -> HomComplex:
    """The mapping complex Hom(X, Y); each degree is built when first read."""
    if x.quiver != y.quiver or x.field != y.field:
        raise ValueError("hom complex of incompatible complexes")
    return HomComplex(x, y)


def _transport(src: HomComplex, dst: HomComplex, n: int, carry) -> Mat:
    """Degree n of a slotwise map between mapping complexes; carry(i, b)
    must return flat image columns of b inside slot i of dst."""
    fld = src.source.field
    dst_slots = dst.slots(n)
    mat = np.zeros((dst.dim(n), src.dim(n)), dtype=np.int64)
    for i, (col, b) in src.slots(n).items():
        if i in dst_slots:
            off, basis = dst_slots[i]
            coords = kernel_coords(basis, Mat(fld, carry(i, b.a)))
            if coords is None:
                raise AssertionError("transport left the intertwiner space")
            mat[off : off + basis.cols, col : col + b.cols] = coords.a
    return Mat(fld, mat)


def hom_postcompose(src: HomComplex, dst: HomComplex, f: ChainMap, n: int) -> Mat:
    """Degree n of hom(T, X) -> hom(T, Y), phi -> f phi, for f : X -> Y,
    between the given mapping complexes src = hom(T, X) and dst = hom(T, Y)."""
    t = src.source
    if dst.source != t or src.target != f.source or dst.target != f.target:
        raise ValueError("postcomposition between the wrong mapping complexes")
    return _transport(src, dst, n, lambda i, b: post_op(f.comp(i + n), t.term(i), b))


def hom_precompose(src: HomComplex, dst: HomComplex, f: ChainMap, n: int) -> Mat:
    """Degree n of hom(Y, T) -> hom(X, T), phi -> phi f, for f : X -> Y,
    between the given mapping complexes src = hom(Y, T) and dst = hom(X, T)."""
    t = src.target
    if dst.target != t or src.source != f.target or dst.source != f.source:
        raise ValueError("precomposition between the wrong mapping complexes")
    return _transport(src, dst, n, lambda i, b: pre_op(f.comp(i), t.term(i + n), b))


# -- block linear systems over chain data -------------------------------------


def block_matrix(
    fld: PrimeField,
    unknowns: list[tuple[object, int]],
    equations: list[tuple[int, list[tuple[object, np.ndarray]]]],
) -> tuple[Mat, dict[object, tuple[int, int]]]:
    """The homogeneous system matrix for the given blocks.

    unknowns: (key, width) pairs; equations: (rowdim, [(key, coefficient
    matrix)]).  Returns the matrix and each unknown's (column offset, width).
    """
    offsets = {}
    total = 0
    for key, width in unknowns:
        offsets[key] = (total, width)
        total += width
    rows = sum(r for r, _ in equations)
    m = np.zeros((rows, total), dtype=np.int64)
    r = 0
    for rowdim, coefs in equations:
        for key, mat in coefs:
            off, width = offsets[key]
            if mat.shape != (rowdim, width):
                raise ValueError("block shape mismatch in linear system")
            m[r : r + rowdim, off : off + width] += mat
        r += rowdim
    return Mat(fld, m), offsets


def solve_block_system(
    fld: PrimeField,
    unknowns: list[tuple[object, int]],
    equations: list[tuple[int, list[tuple[object, np.ndarray]], np.ndarray]],
) -> tuple[dict[object, np.ndarray], int] | None:
    """Solve block_matrix(unknowns, equations) x = (the stacked right sides).

    equations: (rowdim, [(key, coefficient matrix)], rhs).  Returns
    (assignment, kernel dimension) or None.
    """
    m, offsets = block_matrix(fld, unknowns, [(r, coefs) for r, coefs, _ in equations])
    rhs = [np.asarray(b, dtype=np.int64).reshape(-1) for _, _, b in equations]
    b = np.concatenate(rhs) if rhs else np.zeros(0, dtype=np.int64)
    sol = solve(m, Mat(fld, b.reshape(-1, 1)))
    if sol is None:
        return None
    x, nullity = sol
    return {key: x.a[off : off + width, 0] for key, (off, width) in offsets.items()}, nullity


# -- homotopies and chain maps, on the mapping complex ----------------------------


def homotopic(f: ChainMap, g: ChainMap) -> Homotopy | None:
    """A homotopy from g to f, or None when the maps are not homotopic: the
    solution of D_1 h = encode_0(f - g) with free variables zero."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("homotopy test needs shared endpoints")
    hom = hom_complex(f.source, f.target)
    rhs = hom.encode(0, (f - g).comps)
    got = solve(hom.diff(1), Mat(f.source.field, rhs.reshape(-1, 1)))
    if got is None:
        return None
    return Homotopy(g, f, hom.decode(1, got[0].a[:, 0]))


def chain_map_basis(x: Complex, y: Complex) -> list[ChainMap]:
    """Deterministic basis of the space of chain maps X -> Y: the degree-0
    cycles of the mapping complex, from the standard kernel basis of D_0."""
    hom = hom_complex(x, y)
    ker = kernel_basis(hom.diff(0))
    return [hom.cycle_to_chain_map(0, ker.a[:, j]) for j in range(ker.cols)]


# -- random generation ---------------------------------------------------------


def random_complex(
    quiver: Quiver,
    field: PrimeField,
    rng: np.random.Generator,
    max_dim: int = 3,
    lo: int = -2,
    hi: int = 2,
) -> Complex:
    """Support drawn inside [lo, hi]; differentials drawn degree by degree
    from the kernel of postcomposition with the previous one, so the
    d-squared law holds by construction."""
    slo = int(rng.integers(lo, hi + 1))
    shi = int(rng.integers(slo, hi + 1))
    terms = [random_rep(quiver, field, max_dim, rng) for _ in range(slo, shi + 1)]
    diffs: list[RepMap] = []
    prev: RepMap | None = None
    for i in range(1, len(terms)):
        src, tgt = terms[i], terms[i - 1]
        basis = rep_hom_basis_flat(src, tgt)
        if prev is None or prev.is_zero():
            coeffs = rng.integers(0, field.p, size=basis.cols)
            vec = (basis.a @ coeffs) % field.p
        else:
            constraint = Mat(field, post_op(prev, src, basis.a))
            ker = kernel_basis(constraint)
            coeffs = rng.integers(0, field.p, size=ker.cols)
            vec = (basis.a @ ((ker.a @ coeffs) % field.p)) % field.p
        d = RepMap(src, tgt, graded_from_flat(src, tgt, vec))
        diffs.append(d)
        prev = d
    return Complex(quiver, field, slo, tuple(terms), tuple(diffs))


def random_chain_map(x: Complex, y: Complex, rng: np.random.Generator) -> ChainMap:
    """Uniform draw from the space of chain maps X -> Y: a random combination
    of the kernel basis of D_0, drawing nothing when degree 0 is zero."""
    hom = hom_complex(x, y)
    if not hom.dim(0):
        return zero_map(x, y)
    ker = kernel_basis(hom.diff(0))
    coeffs = rng.integers(0, x.field.p, size=ker.cols)
    return hom.cycle_to_chain_map(0, (ker.a @ coeffs) % x.field.p)
