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
  cofib(f)    = cone(f)
  hom(X, Y)_n = (+)_i Hom(X_i, Y_{i+n})   (d phi) = d_Y phi - (-1)^n phi d_X

A homotopy h from g to f has components h_n : X_n -> Y_{n+1} and satisfies
f - g = d h + h d.  H_n of the hom complex is the space of degree-n maps up
to homotopy; in particular H_0 is chain maps modulo chain homotopy.

Equivalences are never inverted: a map is a quasi-isomorphism exactly when
its cone is acyclic, and all "X equals Y in the homotopy category" claims
are expressed through an explicit comparison map plus that test.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    flat_dim,
)

__all__ = [
    "Complex",
    "ChainMap",
    "Homotopy",
    "CommutingSquare",
    "Cone",
    "Fiber",
    "Cofiber",
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
    "is_acyclic",
    "cone",
    "fib",
    "cofib",
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
        for n in self._window():
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

    def _window(self) -> range:
        degs = [self.source.lo, self.source.hi, self.target.lo, self.target.hi]
        return range(min(degs), max(degs) + 2)

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
        degs = [x.lo, x.hi, y.lo, y.hi]
        for n in range(min(degs) - 1, max(degs) + 2):
            if not (
                n in kept
                or n - 1 in kept
                or n in to_map.comps
                or n in from_map.comps
            ):
                continue  # both sides are zero
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
    edge = ((0,) * len(x.quiver.vertices),)
    ranks = edge + tuple(tuple(rank(c) for c in d.components) for d in x.diffs) + edge
    return {
        n: tuple(d - r_out - r_in for d, r_out, r_in in zip(term.dims, ranks[i], ranks[i + 1]))
        for i, (n, term) in enumerate(zip(x.support, x.terms))
    }


def is_acyclic(x: Complex) -> bool:
    return all(all(d == 0 for d in dims) for dims in homology_dims(x).values())


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
    live = [(c, k) for c, k in parts if not c.is_zero()]
    if not live:
        return GradedSum(zero_complex(quiver, fld), tuple(parts), {}, keys)
    lo = min(c.lo + k for c, k in live)
    hi = max(c.hi + k for c, k in live)
    terms, offsets = [], {}
    for n in range(lo, hi + 1):
        term, offsets[n] = direct_sum(*(c.term(n - k) for c, k in parts))
        terms.append(term)
    table = {
        (i, i): (-1 if k % 2 else 1, dict(zip(range(c.lo + 1, c.hi + 1), c.diffs)))
        for i, (c, k) in enumerate(parts)
    }
    table.update({key: (sign, f.comps) for key, (sign, f) in twists.items()})
    diffs = []
    for n in range(lo + 1, hi + 1):
        src, tgt = terms[n - lo], terms[n - 1 - lo]
        mats = _blocks(parts, offsets[n], src, n, offsets[n - 1], tgt, table)
        diffs.append(RepMap._unchecked(src, tgt, mats) if mats else RepMap.zero(src, tgt))
    cx = Complex._unchecked(quiver, fld, lo, tuple(terms), tuple(diffs))
    return GradedSum(cx, tuple(parts), offsets, keys)


def _blocks(parts, src_at, src, n, tgt_at, tgt, table):
    """Vertex matrices src -> tgt holding the table's blocks, with the source
    parts read in degree n; None when every block is absent."""
    mats = None
    for (j, i), (sign, maps) in table.items():
        g = maps.get(n - parts[i][1])
        if g is None:
            continue
        if mats is None:
            mats = [np.zeros(shape, dtype=np.int64) for shape in zip(tgt.dims, src.dims)]
        for a, b, row, col in zip(mats, g.components, tgt_at[j], src_at[i]):
            a[row : row + b.rows, col : col + b.cols] = b.a if sign == 1 else -b.a
    return None if mats is None else tuple(Mat(src.field, a) for a in mats)


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
        mats = _blocks(parts, src_offsets[n], s_term, n, tgt_offsets[t], t_term, table)
        if mats is not None:
            out[n] = RepMap._unchecked(s_term, t_term, mats)
    return out


@dataclass(frozen=True)
class Cone:
    blocks: GradedSum  # parts (X, 1), (Y, 0)
    into: ChainMap  # Y -> cone
    outof: ChainMap  # cone -> X[1]

    @property
    def complex(self) -> Complex:
        return self.blocks.complex


def _cone_sum(f: ChainMap) -> GradedSum:
    return _graded_sum([(f.source, 1), (f.target, 0)], {(1, 0): (1, f)})


def cone(f: ChainMap) -> Cone:
    s = _cone_sum(f)
    return Cone(s, s.inclusion(1), s.projection(0))


@dataclass(frozen=True)
class Cofiber:
    complex: Complex
    from_target: ChainMap  # Y -> cofib(f)
    null_wit: Homotopy  # from 0 to from_target . f
    cone: Cone


def cofib(f: ChainMap) -> Cofiber:
    c = cone(f)
    x = f.source
    wit = Homotopy(
        zero_map(x, c.complex),
        compose(c.into, f),
        block_components(x, c.blocks, 1, {(0, 0): (1, identity_map(x).comps)}),
    )
    return Cofiber(c.complex, c.into, wit, c)


@dataclass(frozen=True)
class Fiber:
    blocks: GradedSum  # parts (X, 0), (Y, -1)
    to_source: ChainMap  # fib(f) -> X
    null_wit: Homotopy  # from 0 to f . to_source

    @property
    def complex(self) -> Complex:
        return self.blocks.complex


def fib(f: ChainMap) -> Fiber:
    x, y = f.source, f.target
    s = _graded_sum([(x, 0), (y, -1)], {(1, 0): (-1, f)})
    to_source = s.projection(0)
    null_wit = Homotopy(
        zero_map(s.complex, y),
        compose(f, to_source),
        block_components(s, y, 1, {(0, 1): (-1, identity_map(y).comps)}),
    )
    return Fiber(s, to_source, null_wit)


def is_quasi_iso(f: ChainMap) -> bool:
    return is_acyclic(_cone_sum(f).complex)


def direct_sum_complex(x: Complex, y: Complex) -> GradedSum:
    """X (+) Y; its inclusions and projections are chain maps."""
    return _graded_sum([(x, 0), (y, 0)])


@dataclass(frozen=True)
class Pullback:
    blocks: GradedSum  # fib(X (+) Y -> Z): parts (X, 0), (Y, 0), (Z, -1)
    proj_first: ChainMap
    proj_second: ChainMap
    square: CommutingSquare

    @property
    def complex(self) -> Complex:
        return self.blocks.complex


def homotopy_pullback(f: ChainMap, g: ChainMap) -> Pullback:
    """W with projections to the sources of f, g : * -> Z and the witness square."""
    if f.target != g.target:
        raise ValueError("pullback legs must share a target")
    z = f.target
    s = _graded_sum(
        [(f.source, 0), (g.source, 0), (z, -1)],
        {(2, 0): (-1, f), (2, 1): (1, g)},
    )
    proj1, proj2 = s.projection(0), s.projection(1)
    wit = Homotopy(
        compose(g, proj2),
        compose(f, proj1),
        block_components(s, z, 1, {(0, 2): (-1, identity_map(z).comps)}),
    )
    return Pullback(s, proj1, proj2, CommutingSquare(proj1, proj2, f, g, wit))


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
    blocks: GradedSum  # cone(W -> X (+) Y): parts (W, 1), (X, 0), (Y, 0)
    inj_first: ChainMap
    inj_second: ChainMap
    square: CommutingSquare

    @property
    def complex(self) -> Complex:
        return self.blocks.complex


def homotopy_pushout(f: ChainMap, g: ChainMap) -> Pushout:
    """The double mapping cylinder of X <- W -> Y with its witness square."""
    if f.source != g.source:
        raise ValueError("pushout legs must share a source")
    w = f.source
    s = _graded_sum(
        [(w, 1), (f.target, 0), (g.target, 0)],
        {(1, 0): (1, f), (2, 0): (-1, g)},
    )
    inj1, inj2 = s.inclusion(1), s.inclusion(2)
    wit = Homotopy(
        compose(inj2, g),
        compose(inj1, f),
        block_components(w, s, 1, {(0, 0): (1, identity_map(w).comps)}),
    )
    return Pushout(s, inj1, inj2, CommutingSquare(f, g, inj1, inj2, wit))


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
    return is_acyclic(cone(_square_glue_map(sq)).complex)


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


@dataclass(frozen=True)
class HomComplex:
    """The mapping complex as a complex of plain vector spaces.

    The degree-n term is the intertwiner space (+)_i Hom(X_i, Y_{i+n}) over
    the one-vertex quiver, with the chosen per-slot bases retained so that
    coordinates can be decoded back into graded maps.
    """

    source: Complex
    target: Complex
    complex: Complex
    slots: dict[int, list[tuple[int, Mat]]]  # degree -> [(i, flat basis)]

    def decode(self, n: int, coeffs: np.ndarray) -> dict[int, tuple[Mat, ...]]:
        """Coordinates at degree n -> graded components X_i -> Y_{i+n}."""
        out: dict[int, tuple[Mat, ...]] = {}
        off = 0
        for i, basis in self.slots.get(n, []):
            width = basis.cols
            vec = (basis.a @ np.asarray(coeffs[off : off + width], dtype=np.int64)) % (
                self.source.field.p
            )
            out[i] = graded_from_flat(self.source.term(i), self.target.term(i + n), vec)
            off += width
        return out

    def cycle_to_chain_map(self, n: int, coeffs: np.ndarray) -> ChainMap:
        """A degree-n cycle is exactly a chain map X[n] -> Y."""
        graded = self.decode(n, coeffs)
        src = shift(self.source, n)
        comps = {}
        for i, mats in graded.items():
            comps[i + n] = RepMap(src.term(i + n), self.target.term(i + n), mats)
        return ChainMap(src, self.target, comps)

    def encode(self, n: int, graded: dict[int, RepMap]) -> np.ndarray:
        """Coordinates of a graded collection of maps X_i -> Y_{i+n}."""
        entries = self.slots.get(n, [])
        covered = {i for i, _ in entries}
        for i, g in graded.items():
            if i not in covered and not g.is_zero():
                raise ValueError("graded map has a component outside the hom complex")
        out = np.zeros(sum(b.cols for _, b in entries), dtype=np.int64)
        off = 0
        for i, basis in entries:
            g = graded.get(i)
            if g is not None and not g.is_zero():
                vec = Mat(self.source.field, g.flat().reshape(-1, 1))
                coords = kernel_coords(basis, vec)
                if coords is None:
                    raise ValueError("graded map is not an intertwiner collection")
                out[off : off + basis.cols] = coords.a[:, 0]
            off += basis.cols
        return out


def hom_complex(x: Complex, y: Complex) -> HomComplex:
    """The mapping complex Hom(X, Y), built with Complex._unchecked: its d²
    law is checked here on flat graded maps, not by dense products.  For each
    slot i of degree n, kernel_coords confirms B_{n-1} D_n[:, i] == images(n,
    i, B_i) exactly, and the bases B from kernel_basis are injective; so
    D_{n-1} D_n = 0 exactly when images(n - 1, ...) of those images sum to
    zero in every slot of degree n - 2.
    """
    fld = x.field
    if x.quiver != y.quiver or x.field != y.field:
        raise ValueError("hom complex of incompatible complexes")
    point = Quiver.point()
    if x.is_zero() or y.is_zero():
        return HomComplex(x, y, zero_complex(point, fld), {})
    lo, hi = y.lo - x.hi, y.hi - x.lo
    slots: dict[int, list[tuple[int, Mat]]] = {}
    for n in range(lo, hi + 1):
        entries = []
        for i in x.support:
            if x.term(i).is_zero() or y.term(i + n).is_zero():
                continue
            entries.append((i, rep_hom_basis_flat(x.term(i), y.term(i + n))))
        slots[n] = entries
    offsets = {n: _slot_offsets(slots[n]) for n in slots}
    dims = {n: sum(b.cols for _, b in slots[n]) for n in range(lo, hi + 1)}
    terms = {n: QuiverRep(point, fld, (dims[n],), ()) for n in range(lo, hi + 1)}

    def images(n: int, i: int, b: np.ndarray) -> list[tuple[int, np.ndarray]]:
        # d of the maps X_i -> Y_{i+n} in b: post part in slot i, pre in i + 1
        tgt, out = offsets.get(n - 1, {}), []
        if i in tgt:
            out.append((i, post_op(y.diff(i + n), x.term(i), b)))
        if i + 1 in tgt:
            pre = pre_op(x.diff(i + 1), y.term(i + n), b)
            out.append((i + 1, (pre if n % 2 else -pre) % fld.p))
        return out

    diffs = []
    for n in range(lo + 1, hi + 1):
        mat = np.zeros((dims[n - 1], dims[n]), dtype=np.int64)
        col = 0
        for i, b in slots[n]:
            twice: dict[int, np.ndarray] = {}
            for j, img in images(n, i, b.a):
                off_j, basis_j = offsets[n - 1][j]
                coords = kernel_coords(basis_j, Mat(fld, img))
                if coords is None:
                    raise AssertionError("hom differential left the intertwiner space")
                mat[off_j : off_j + basis_j.cols, col : col + b.cols] = coords.a
                for k, dd in images(n - 1, j, img):
                    twice[k] = twice.get(k, 0) + dd
            if any((dd % fld.p).any() for dd in twice.values()):
                raise ValueError("d-squared law fails")
            col += b.cols
        diffs.append(RepMap(terms[n], terms[n - 1], (Mat(fld, mat),)))
    cx = Complex._unchecked(point, fld, lo, tuple(terms.values()), tuple(diffs))
    return HomComplex(x, y, cx, slots)


def _slot_offsets(entries: list[tuple[int, Mat]]) -> dict[int, tuple[int, Mat]]:
    """Slot i -> (its first coordinate, its flat basis) in a hom-complex term."""
    out, off = {}, 0
    for i, b in entries:
        out[i] = (off, b)
        off += b.cols
    return out


def _hom_slot_transport(src: HomComplex, dst: HomComplex, carry) -> ChainMap:
    """Slotwise linear map between mapping complexes; carry(n, i, basis) must
    return flat image columns inside the matching slot of dst."""
    fld = src.source.field
    comps = {}
    degs = set(src.slots) & set(dst.slots)
    for n in degs:
        dst_offsets = _slot_offsets(dst.slots[n])
        rows, cols = dst.complex.term(n).dims[0], src.complex.term(n).dims[0]
        if rows == 0 or cols == 0:
            continue
        mat = np.zeros((rows, cols), dtype=np.int64)
        col = 0
        for i, b in src.slots[n]:
            if i in dst_offsets:
                off_i, basis_i = dst_offsets[i]
                img = carry(n, i, b)
                coords = kernel_coords(basis_i, Mat(fld, img))
                if coords is None:
                    raise AssertionError("transport left the intertwiner space")
                mat[off_i : off_i + basis_i.cols, col : col + b.cols] = coords.a
            col += b.cols
        comps[n] = RepMap(src.complex.term(n), dst.complex.term(n), (Mat(fld, mat),))
    return ChainMap(src.complex, dst.complex, comps)


def hom_postcompose(t: Complex, f: ChainMap) -> ChainMap:
    """hom(T, X) -> hom(T, Y) induced by f : X -> Y."""
    src = hom_complex(t, f.source)
    dst = hom_complex(t, f.target)
    return _hom_slot_transport(
        src,
        dst,
        lambda n, i, b: post_op(f.comp(i + n), t.term(i), b.a),
    )


def hom_precompose(f: ChainMap, t: Complex) -> ChainMap:
    """hom(Y, T) -> hom(X, T) induced by f : X -> Y."""
    src = hom_complex(f.target, t)
    dst = hom_complex(f.source, t)
    return _hom_slot_transport(
        src,
        dst,
        lambda n, i, b: pre_op(f.comp(i), t.term(i + n), b.a),
    )


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


# -- homotopies and lifts ------------------------------------------------------


def _hom_bases_for_homotopy(x: Complex, y: Complex, step: int) -> dict[int, Mat]:
    out = {}
    degs = set()
    if not x.is_zero() and not y.is_zero():
        for n in x.support:
            if not y.term(n + step).is_zero():
                degs.add(n)
    for n in degs:
        out[n] = rep_hom_basis_flat(x.term(n), y.term(n + step))
    return out


def _graded_maps(
    x: Complex, y: Complex, step: int, bases: dict[int, Mat], coords: dict[int, np.ndarray]
) -> dict[int, RepMap]:
    """Checked maps X_n -> Y_{n+step} with coordinates coords[n] in the flat
    hom basis bases[n]."""
    out = {}
    for n, b in bases.items():
        src, tgt = x.term(n), y.term(n + step)
        out[n] = RepMap(src, tgt, graded_from_flat(src, tgt, (b.a @ coords[n]) % x.field.p))
    return out


def _by_degree(
    offsets: dict[tuple[str, int], tuple[int, int]], sol: np.ndarray
) -> dict[int, np.ndarray]:
    """The pieces of a solution vector of block_matrix keyed (tag, n), by n."""
    return {n: sol[off : off + width] for (_, n), (off, width) in offsets.items()}


def homotopic(f: ChainMap, g: ChainMap) -> Homotopy | None:
    """A homotopy from g to f, or None when the maps are not homotopic."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("homotopy test needs shared endpoints")
    x, y = f.source, f.target
    delta = f - g
    bases = _hom_bases_for_homotopy(x, y, 1)
    unknowns = [(n, b.cols) for n, b in sorted(bases.items())]
    equations = []
    degs = set(x.support) | set(delta.comps)
    for n in sorted(degs):
        rowdim = flat_dim(x.term(n), y.term(n))
        if rowdim == 0:
            continue
        coefs = []
        if n in bases:
            coefs.append((n, post_op(y.diff(n + 1), x.term(n), bases[n].a)))
        if n - 1 in bases:
            coefs.append((n - 1, pre_op(x.diff(n), y.term(n), bases[n - 1].a)))
        equations.append((rowdim, coefs, delta.comp(n).flat()))
    got = solve_block_system(x.field, unknowns, equations)
    if got is None:
        return None
    return Homotopy(g, f, _graded_maps(x, y, 1, bases, got[0]))


def chain_map_constraints(
    x: Complex, y: Complex
) -> tuple[dict[int, Mat], list[tuple[int, list[tuple[object, np.ndarray]]]]]:
    """Degreewise hom bases plus the homogeneous chain-map law blocks."""
    bases = _hom_bases_for_homotopy(x, y, 0)
    equations = []
    degs = set(x.support) | set(s + 1 for s in x.support)
    for n in sorted(degs):
        rowdim = flat_dim(x.term(n), y.term(n - 1))
        if rowdim == 0:
            continue
        coefs = []
        if n in bases:
            coefs.append((("u", n), post_op(y.diff(n), x.term(n), bases[n].a)))
        if n - 1 in bases:
            pre = pre_op(x.diff(n), y.term(n - 1), bases[n - 1].a)
            coefs.append((("u", n - 1), (-pre) % y.field.p))
        equations.append((rowdim, coefs))
    return bases, equations


def chain_map_basis(x: Complex, y: Complex) -> list[ChainMap]:
    """Deterministic basis of the space of chain maps X -> Y."""
    bases, equations = chain_map_constraints(x, y)
    unknowns = [(("u", n), b.cols) for n, b in sorted(bases.items())]
    if not unknowns:
        return []
    m, offsets = block_matrix(x.field, unknowns, equations)
    ker = kernel_basis(m)
    return [
        ChainMap(x, y, _graded_maps(x, y, 0, bases, _by_degree(offsets, ker.a[:, j])))
        for j in range(ker.cols)
    ]


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
    """Uniform draw from the space of chain maps X -> Y."""
    bases, equations = chain_map_constraints(x, y)
    unknowns = [(("u", n), b.cols) for n, b in sorted(bases.items())]
    if not unknowns:
        return zero_map(x, y)
    m, offsets = block_matrix(x.field, unknowns, equations)
    ker = kernel_basis(m)
    coeffs = rng.integers(0, x.field.p, size=ker.cols)
    sol = (ker.a @ coeffs) % x.field.p
    return ChainMap(x, y, _graded_maps(x, y, 0, bases, _by_degree(offsets, sol)))
