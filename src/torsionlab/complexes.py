"""Bounded chain complexes of quiver representations.

Grading is homological: the differential lowers degree, d_n : X_n -> X_{n-1},
and d_{n} d_{n+1} = 0 is enforced at construction (Complex, ChainMap,
Homotopy and CommutingSquare are quiver.Lawful values; Lawful says when a
check is skipped).  The d², chain-map and homotopy laws are checked on the
raw vertex arrays of the maps involved, with no composite built.
The conventions below are part of the API contract; all higher
constructions are derived from them and tests/test_conventions.py pins them
bit for bit.  Direct sums stack their summands in the order written, at
every vertex.

  shift         X[k]_n = X_{n-k}, differential scaled by (-1)^k
  cone(f)_n   = X_{n-1} (+) Y_n          d(x, y) = (-dx, fx + dy)
  fib(f)      = cone(f)[-1], so fib(f)_n = X_n (+) Y_{n+1} with
                                          d(x, y) = (dx, -fx - dy)
  hom(X, Y)_n = (+)_i Hom(X_i, Y_{i+n})   (d phi) = d_Y phi - (-1)^n phi d_X

A homotopy h from g to f has components h_n : X_n -> Y_{n+1} and satisfies
f - g = d h + h d.  H_n of the hom complex is the space of degree-n maps up
to homotopy; in particular H_0 is chain maps modulo chain homotopy.

Equivalences are never inverted: homology, is_quasi_iso and the pullout
tests answer in the derived category D, where a map is a quasi-isomorphism
exactly when its cone is acyclic (cone_homology_dims reads the ranks of the
cone's blocks without building it), and every "X equals Y in D" claim is an
explicit comparison map plus that test.

homotopy_pushout and homotopy_pullback return a GradedSum, which is the
complex it builds; every map into a pullback is its gap map (gap_map).  A
degree where one part alone is nonzero reuses that part: the sum's term is
the part's term itself, and a differential block that fills the whole
vertex matrix is the part's own matrices, negated where its sign is -1.
cone(f) is the pushout of f and terminal_map(X) : X -> 0, the cofiber, with
inj_first . f null-homotopic by its witness; fib(f) is the pullback of f and
initial_map(Y) : 0 -> Y, with f . proj_first null-homotopic by its witness.
Their zero end is the one zero_complex of its quiver and field, which adds
no coordinates, so the layouts above hold.  Structure maps, witnesses and
squares are made on first read (functools.cached_property), through the same
checking constructors, and kept; most callers never read them.

Every mapping-space question is answered in the homotopy category K(rep Q)
by a degree-0 solve (total_solve) on a total complex (total_diff) of shifted
hom complexes, joined by the transports phi -> post phi pre (hom_transport):
homotopic is the one-node case, Hom(X, Y) at shift 1, and chain_map_basis
and random_chain_map read the kernel of D_0.  hom_complex builds nothing up
front: the slots of a degree are made on first read and kept, D_n on each
read, and no D_n checks d², which follows from lawful ends by the sign rule.
Composition on flat maps is one Kronecker operator (post_op, pre_op); a
slot's images are its product with the slot's basis, or the operator itself
for a free slot (no intertwiner equation, so no basis: its flat maps are its
coordinates).  HomComplex._place turns flat images into slot coordinates,
but D_n writes the operator from a free slot into a free slot straight into
its block.  The pre part's sign (-1)^n goes onto d_X, never onto an image.
HomComplex.complex assembles every degree for readers of the whole complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import attrgetter

import numpy as np

from .linalg import (
    Mat,
    PrimeField,
    _reduced,
    image_basis,
    kernel_basis,
    kernel_coords,
    rank,
    solve,
)
from .quiver import (
    Lawful,
    Quiver,
    QuiverRep,
    RepMap,
    _law_breaks,
    _zero_rep,
    cycle_coords,
    direct_sum,
    flat_dim,
    graded_from_flat,
    post_op,
    pre_op,
    quotient_rep,
    random_rep,
    rep_hom_basis_flat,
    rep_kernel,
)

__all__ = [
    "Complex",
    "ChainMap",
    "Homotopy",
    "CommutingSquare",
    "Pullback",
    "Pushout",
    "GradedSum",
    "HomComplex",
    "HomologyData",
    "zero_complex",
    "identity_map",
    "zero_map",
    "initial_map",
    "terminal_map",
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
    "hom_transport",
    "total_diff",
    "total_solve",
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


class Complex(Lawful):
    """A bounded complex.  Support is trimmed to the minimal window."""

    __slots__ = ("quiver", "field", "lo", "terms", "diffs", "_cuts")
    _key = attrgetter(*__slots__[:-1])  # not the _cuts memo

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
            if _law_breaks(field.p, [(1, diffs[i], diffs[i + 1])]) is not None:
                raise ValueError("d-squared law fails")

    def _fill(self, quiver, field, lo, terms, diffs) -> None:
        if terms and len(diffs) != len(terms) - 1:
            raise ValueError("need exactly one differential between adjacent degrees")
        if not terms and diffs:
            raise ValueError("differentials without terms")
        for t in terms:
            if (t.quiver, t.field) != (quiver, field):  # tuples test identity first
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

    def _cut_memo(self) -> dict:
        """tstruct's cut data by degree, made on first use; not in equality."""
        if self._cuts is None:
            object.__setattr__(self, "_cuts", {})
        return self._cuts

    @property
    def hi(self) -> int:
        return self.lo + len(self.terms) - 1

    @property
    def support(self) -> range:
        return range(self.lo, self.lo + len(self.terms))

    def term(self, n: int) -> QuiverRep:
        if 0 <= n - self.lo < len(self.terms):
            return self.terms[n - self.lo]
        return _zero_rep(self.quiver, self.field)

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

    def __repr__(self) -> str:
        if self.is_zero():
            return f"Complex({self.field}, 0)"
        dims = {n: sum(self.term(n).dims) for n in self.support}
        return f"Complex({self.field}, dims={dims})"


@lru_cache(maxsize=64)
def zero_complex(quiver: Quiver, field: PrimeField) -> Complex:
    return Complex(quiver, field, 0, (), ())


class ChainMap(Lawful):
    """A degreewise intertwiner commuting with the differentials."""

    __slots__ = ("source", "target", "comps")
    _key = attrgetter(*__slots__)

    def __init__(self, source: Complex, target: Complex, comps: dict[int, RepMap]):
        if (source.quiver, source.field) != (target.quiver, target.field):  # identity first
            raise ValueError("chain map between incompatible complexes")
        for n, c in comps.items():
            if c.source != source.term(n) or c.target != target.term(n):
                raise ValueError(f"component at degree {n} has wrong endpoints")
        self._fill(source, target, comps)
        # both sides of the law at n vanish unless a component sits at n or
        # n - 1, so only those degrees are checked, however far apart the
        # two supports lie
        f, d_x, d_y = self.comps.get, source._stored_diff, target._stored_diff
        for n in sorted({m for k in self.comps for m in (k, k + 1)}):
            terms = (1, d_y(n), f(n)), (-1, f(n - 1), d_x(n))
            if _law_breaks(source.field.p, terms) is not None:
                raise ValueError(f"chain-map law fails at degree {n}")

    def _fill(self, source: Complex, target: Complex, comps: dict[int, RepMap]) -> None:
        kept = {n: c for n, c in comps.items() if not c.is_zero()}
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "comps", kept)

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

    def __repr__(self) -> str:
        return f"ChainMap({self.source!r} -> {self.target!r})"


def identity_map(x: Complex) -> ChainMap:
    return ChainMap._unchecked(x, x, {n: RepMap.identity(x.term(n)) for n in x.support})

def zero_map(x: Complex, y: Complex) -> ChainMap:
    if x.quiver != y.quiver or x.field != y.field:
        raise ValueError("chain map between incompatible complexes")
    return ChainMap._unchecked(x, y, {})


def initial_map(x: Complex) -> ChainMap:
    """The initial arrow 0 -> x."""
    return zero_map(zero_complex(x.quiver, x.field), x)


def terminal_map(x: Complex) -> ChainMap:
    """The terminal arrow x -> 0."""
    return zero_map(x, zero_complex(x.quiver, x.field))


def compose(f: ChainMap, g: ChainMap) -> ChainMap:
    """f after g."""
    if g.target != f.source:
        raise ValueError("composition endpoint mismatch")
    # a degree where either factor is zero contributes a zero component
    degs = f.comps.keys() & g.comps.keys()
    return ChainMap._unchecked(
        g.source, f.target, {n: f.comps[n].compose(g.comps[n]) for n in degs}
    )


class Homotopy(Lawful):
    """Components h_n : X_n -> Y_{n+1} with  to - from = d h + h d."""

    __slots__ = ("from_map", "to_map", "comps")
    _key = attrgetter(*__slots__)

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
        self._fill(from_map, to_map, kept)
        # both sides of the law at n vanish unless a component of h sits at
        # n or n - 1, or one of the two maps has one at n
        degs = {m for k in kept for m in (k, k + 1)} | set(from_map.comps) | set(to_map.comps)
        h, d_x, d_y = kept.get, x._stored_diff, y._stored_diff
        for n in sorted(degs):
            # from + d h + h d - to = 0, an absent map or differential being zero
            terms = (1, from_map.comps.get(n)), (1, d_y(n + 1), h(n)), (1, h(n - 1), d_x(n))
            if _law_breaks(x.field.p, (*terms, (-1, to_map.comps.get(n)))) is not None:
                raise ValueError(f"homotopy law fails at degree {n}")

    def __repr__(self) -> str:
        return f"Homotopy({self.from_map!r} => {self.to_map!r})"


class CommutingSquare(Lawful):
    """top: W->X, left: W->Y, right: X->Z, bottom: Y->Z, commuting up to
    the recorded homotopy from bottom.left to right.top."""

    __slots__ = ("top", "left", "right", "bottom", "witness")
    _key = attrgetter(*__slots__)

    def __init__(
        self, top: ChainMap, left: ChainMap, right: ChainMap, bottom: ChainMap, witness: Homotopy
    ):
        if top.source != left.source:
            raise ValueError("square corners disagree at the source")
        if right.target != bottom.target:
            raise ValueError("square corners disagree at the sink")
        if top.target != right.source or left.target != bottom.source:
            raise ValueError("square edges do not chain")
        if witness.from_map != compose(bottom, left):
            raise ValueError("square witness starts at the wrong composite")
        if witness.to_map != compose(right, top):
            raise ValueError("square witness ends at the wrong composite")
        self._fill(top, left, right, bottom, witness)

    @classmethod
    def strict(cls, top, left, right, bottom) -> "CommutingSquare":
        """For squares commuting on the nose; witness is the zero homotopy,
        lawful between the two equal composites."""
        lhs = compose(bottom, left)
        rhs = compose(right, top)
        if lhs != rhs:
            raise ValueError("square does not commute strictly")
        return cls._unchecked(top, left, right, bottom, Homotopy._unchecked(lhs, rhs, {}))


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
    """H_n(X) as a subquotient: the kernel of d_n, divided by the boundaries
    written in its basis."""
    _, inc = rep_kernel(x.diff(n))
    broken = "boundaries are not cycles; d-squared broken"
    bd = cycle_coords(inc, x.diff(n + 1).components, broken)
    h, proj, sects = quotient_rep(inc.source, tuple(image_basis(c) for c in bd))
    reps = tuple(k @ s for k, s in zip(inc.components, sects))
    return HomologyData(h, inc.components, proj.components, reps)


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


class GradedSum(Complex):
    """A complex whose degree-n term is the direct sum, over its parts
    (C_i, k_i), of (C_i)_{n - k_i}: the terms of the shifts C_i[k_i].

    Every vertex stacks the parts in order; offsets[n][i][v] is the first
    coordinate of part i in degree n at vertex v.  The differential is
    block lower-triangular: each part's shifted differential on the
    diagonal, plus the twists (j, i) that glue part i into part j.  The sum
    is the complex it builds: it equals any Complex with the same terms and
    differentials.
    """

    __slots__ = ("parts", "offsets", "twists")
    parts: tuple[tuple[Complex, int], ...]
    offsets: dict[int, tuple[tuple[int, ...], ...]]
    twists: tuple[tuple[int, int], ...]

    def inclusion(self, i: int) -> ChainMap:
        """C_i[k_i] -> the sum, a chain map because no twist leaves part i."""
        if any(src == i for _, src in self.twists):
            raise ValueError(f"a twist leaves part {i}, so it has no inclusion")
        part = shift(*self.parts[i])
        comps = block_components(part, self, 0, {(i, None): (1, identity_map(part).comps)})
        return ChainMap._unchecked(part, self, comps)

    def projection(self, i: int) -> ChainMap:
        """The sum -> C_i[k_i], a chain map because no twist enters part i."""
        if any(tgt == i for tgt, _ in self.twists):
            raise ValueError(f"a twist enters part {i}, so it has no projection")
        part, c = shift(*self.parts[i]), self.parts[i][0]
        comps = block_components(self, part, 0, {(None, i): (1, identity_map(c).comps)})
        return ChainMap._unchecked(self, part, comps)


def _graded_sum(parts, twists=None, cls=GradedSum, **named) -> GradedSum:
    """The graded sum of parts [(C_i, k_i)], twisted by twists[(j, i)] =
    (sign, chain map C_i -> C_j), built as a cls without the dense d²
    product and given the attributes named.

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
    lo, hi = _sum_span(parts) or (0, -1)
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
    out = cls._unchecked(quiver, fld, lo, tuple(terms), tuple(diffs))
    named.update(parts=tuple(parts), offsets=offsets, twists=tuple(twists))
    for name, value in named.items():
        object.__setattr__(out, name, value)
    return out


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
    None when every block is absent; a block that fills them all, leaving
    the rest empty, gives its own matrices, negated when its sign is -1."""
    (src_at, src_dims), (tgt_at, tgt_dims) = src, tgt
    mats = None
    for (j, i), (sign, maps) in table.items():
        g = maps.get(n - parts[i][1])
        if g is None:
            continue
        if g.source.dims == src_dims and g.target.dims == tgt_dims:
            return g.components if sign == 1 else tuple(-b for b in g.components)
        if mats is None:
            mats = [np.zeros(shape, dtype=np.int64) for shape in zip(tgt_dims, src_dims)]
        for a, b, row, col in zip(mats, g.components, tgt_at[j], src_at[i]):
            a[row : row + b.rows, col : col + b.cols] = b.a if sign == 1 else -b.a
    return None if mats is None else tuple(Mat.of(fld, a) for a in mats)


def _layout(side: Complex, whole: bool):
    """(parts, offsets by degree) of a graded sum read by its parts, or of
    any complex read whole, as the one part (side, 0) under the key None."""
    if not whole:
        return side.parts, side.offsets
    at = {None: (0,) * len(side.quiver.vertices)}
    return {None: (side, 0)}, {n: at for n in side.support}


def block_components(source: Complex, target: Complex, degree: int, table) -> dict[int, RepMap]:
    """Components source_n -> target_{n+degree} of a graded map given by blocks.

    table maps (target part j, source part i) to (sign, maps): maps holds the
    components (C_i)_m -> (D_j)_{m + degree + k_i - l_j}, keyed by m.  A side
    keyed by part numbers is a GradedSum read by its parts; a side keyed None
    throughout is read whole, as its own one part, even when it is itself a
    graded sum.  The components are trusted; wrap them in a checking ChainMap
    or Homotopy.
    """
    j, i = next(iter(table))
    parts, src_offsets = _layout(source, i is None)
    _, tgt_offsets = _layout(target, j is None)
    out = {}
    for n in source.support:
        t = n + degree
        if t not in tgt_offsets:
            continue
        s_term, t_term = source.term(n), target.term(t)
        s_side, t_side = (src_offsets[n], s_term.dims), (tgt_offsets[t], t_term.dims)
        mats = _blocks(parts, source.field, n, s_side, t_side, table)
        if mats is not None:
            out[n] = RepMap._unchecked(s_term, t_term, mats)
    return out


def cone_homology_dims(f: ChainMap) -> dict[int, tuple[int, ...]]:
    """homology_dims(cone(f)), without building the cone.

    The cone's differential cone_n -> cone_{n-1} has the blocks
    [[-dX_{n-1}, 0], [f_{n-1}, dY_n]]; they are filled per vertex straight
    from f and the stored differentials of its ends, in the layout of the
    pushout cone(f), less its zero part, which holds no coordinates, and
    ranked.  A differential whose blocks are all absent has rank 0 and is
    not eliminated.  No representation, map or complex is made.
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


class Pullback(GradedSum):
    """The homotopy pullback of f, g : * -> Z, keeping f and g: the graded
    sum fib(X (+) Y -> Z) of the parts (X, 0), (Y, 0) and (Z, -1); the
    projections, the witness and the square are made, and checked, on
    first read; every map into it is its gap_map."""

    def gap_map(self, top: ChainMap, left: ChainMap, witness=None) -> ChainMap:
        """The gap map W -> P, w -> (top w, left w, -h w), of a square over
        the legs f and g; witness holds the components of a homotopy h from
        g . left to f . top (Homotopy.comps), None for a strict square.  The
        checking ChainMap refuses a square that does not commute."""
        w = top.source
        if left.source != w or top.target != self.f.source or left.target != self.g.source:
            raise ValueError("gap map edges do not meet the pullback's legs")
        table = {
            (0, None): (1, top.comps),
            (1, None): (1, left.comps),
            (2, None): (-1, witness or {}),
        }
        return ChainMap(w, self, block_components(w, self, 0, table))

    @cached_property
    def proj_first(self) -> ChainMap:
        return self.projection(0)

    @cached_property
    def proj_second(self) -> ChainMap:
        return self.projection(1)

    @cached_property
    def witness(self) -> Homotopy:
        """From g . proj_second to f . proj_first."""
        z = self.f.target
        return Homotopy(
            compose(self.g, self.proj_second),
            compose(self.f, self.proj_first),
            block_components(self, z, 1, {(None, 2): (-1, identity_map(z).comps)}),
        )

    @cached_property
    def square(self) -> CommutingSquare:
        return CommutingSquare(self.proj_first, self.proj_second, self.f, self.g, self.witness)


def homotopy_pullback(f: ChainMap, g: ChainMap) -> Pullback:
    """W with projections to the sources of f, g : * -> Z and the witness square."""
    if f.target != g.target:
        raise ValueError("pullback legs must share a target")
    parts = [(f.source, 0), (g.source, 0), (f.target, -1)]
    return _graded_sum(parts, {(2, 0): (-1, f), (2, 1): (1, g)}, Pullback, f=f, g=g)


def fib(f: ChainMap) -> Pullback:
    """The fiber of f : X -> Y, the pullback of f and 0 -> Y."""
    return homotopy_pullback(f, initial_map(f.target))


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
    for old, new, side in ((pb_from.f, pb_to.f, on_first), (pb_from.g, pb_to.g, on_second)):
        if compose(on_base, old) != compose(new, side):
            raise ValueError("cospan map does not commute strictly")
    table = {(i, i): (1, g.comps) for i, g in enumerate((on_first, on_second, on_base))}
    return ChainMap(pb_from, pb_to, block_components(pb_from, pb_to, 0, table))


class Pushout(GradedSum):
    """The homotopy pushout of f, g : W -> *, keeping f and g: the graded
    sum cone(W -> X (+) Y) of the parts (W, 1), (X, 0) and (Y, 0); the
    injections, the witness and the square are made, and checked, on
    first read."""

    @cached_property
    def inj_first(self) -> ChainMap:
        return self.inclusion(1)

    @cached_property
    def inj_second(self) -> ChainMap:
        return self.inclusion(2)

    @cached_property
    def witness(self) -> Homotopy:
        """From inj_second . g to inj_first . f."""
        w = self.f.source
        return Homotopy(
            compose(self.inj_second, self.g),
            compose(self.inj_first, self.f),
            block_components(w, self, 1, {(0, None): (1, identity_map(w).comps)}),
        )

    @cached_property
    def square(self) -> CommutingSquare:
        return CommutingSquare(self.f, self.g, self.inj_first, self.inj_second, self.witness)


def homotopy_pushout(f: ChainMap, g: ChainMap) -> Pushout:
    """The double mapping cylinder of X <- W -> Y with its witness square."""
    if f.source != g.source:
        raise ValueError("pushout legs must share a source")
    parts = [(f.source, 1), (f.target, 0), (g.target, 0)]
    return _graded_sum(parts, {(1, 0): (1, f), (2, 0): (-1, g)}, Pushout, f=f, g=g)


def cone(f: ChainMap) -> Pushout:
    """The cofiber of f : X -> Y, the pushout of f and X -> 0."""
    return homotopy_pushout(f, terminal_map(f.source))


def _square_glue_map(sq: CommutingSquare) -> ChainMap:
    """The comparison cone(W -> X (+) Y) -> Z assembled with the witness."""
    z = sq.right.target
    s = _graded_sum(
        [(sq.top.source, 1), (sq.top.target, 0), (sq.left.target, 0)],
        {(1, 0): (1, sq.top), (2, 0): (1, sq.left)},
    )
    table = {
        (None, 0): (1, sq.witness.comps),
        (None, 1): (1, sq.right.comps),
        (None, 2): (-1, sq.bottom.comps),
    }
    return ChainMap(s, z, block_components(s, z, 0, table))


def is_pullout(sq: CommutingSquare) -> bool:
    """True iff the square's total complex is acyclic.

    This is the bicartesian test; is_cartesian and is_cocartesian decide the
    two universal properties separately through their comparison maps.
    """
    return is_quasi_iso(_square_glue_map(sq))


def is_cartesian(sq: CommutingSquare) -> bool:
    pb = homotopy_pullback(sq.right, sq.bottom)
    return is_quasi_iso(pb.gap_map(sq.top, sq.left, sq.witness.comps))


def is_cocartesian(sq: CommutingSquare) -> bool:
    po = homotopy_pushout(sq.top, sq.left)
    z = sq.right.target
    table = {
        (None, 0): (1, sq.witness.comps),
        (None, 1): (1, sq.right.comps),
        (None, 2): (1, sq.bottom.comps),
    }
    return is_quasi_iso(ChainMap(po, z, block_components(po, z, 0, table)))


# -- hom complexes ------------------------------------------------------------


class HomComplex:
    """The mapping complex Hom(X, Y) as a complex of plain vector spaces.

    The degree-n term is the intertwiner space (+)_i Hom(X_i, Y_{i+n}) over
    the one-vertex quiver.  Each slot i keeps its first coordinate, its
    dimension and its flat basis (rep_hom_basis_flat), None for a free slot,
    whose coordinates are its flat maps; coordinates decode back into graded
    maps.  The slots of a degree are built on first read and kept, and D_n
    is built on each read; complex assembles every degree.

    D_n places the post and pre images of each slot's basis once, with no
    d² pass: from d_X² = d_Y² = 0, D_{n-1} D_n = 0 follows by the sign rule
    (test_hom_complex_differentials_square_to_zero checks it on every named
    quiver).  A slot's images are the Kronecker operators d_Y (x) I and
    I (x) (±d_X)^T times its basis, or the operators themselves for a free
    slot.  An image from a free slot into a free slot is written straight
    into its block of D_n; every other image goes through _place, which
    refuses an image outside the intertwiner space.  Every entry written is
    in [0, p), so D_n becomes a Mat without a second reduction
    (linalg._reduced).
    """

    def __init__(self, source: Complex, target: Complex):
        self.source = source
        self.target = target
        # the degrees of the nonzero terms: slot i of degree n exists exactly
        # when X_i and Y_{i+n} are nonzero
        self._xs = [i for i in source.support if not source.term(i).is_zero()]
        self._ys = {i for i in target.support if not target.term(i).is_zero()}
        self._slots: dict[int, dict[int, tuple[int, int, Mat | None]]] = {}

    def _is_slot(self, n: int, i: int) -> bool:
        return i + n in self._ys and i in self._xs

    def slots(self, n: int) -> dict[int, tuple[int, int, Mat | None]]:
        """Slot i of degree n -> (first coordinate, dimension, basis or None)."""
        got = self._slots.get(n)
        if got is None:
            x, y = self.source, self.target
            got, off = {}, 0
            for i in self._xs:
                if i + n in self._ys:
                    src, tgt = x.term(i), y.term(i + n)
                    b = rep_hom_basis_flat(src, tgt)
                    k = flat_dim(src, tgt) if b is None else b.cols
                    got[i] = (off, k, b)
                    off += k
            self._slots[n] = got
        return got

    def dim(self, n: int) -> int:
        return sum(k for _, k, _ in self.slots(n).values())

    def _parts(self, n: int, i: int):
        """The parts of D_n on slot i, as (the slot j of degree n - 1 they
        land in, the operator maker, its map, its ends): the post part
        d_Y phi in slot i, the pre part -(-1)^n phi d_X in slot i + 1, with
        its sign on d_X."""
        x, y = self.source, self.target
        if self._is_slot(n - 1, i):
            yield i, post_op, y.diff(i + n), x.term(i)
        if self._is_slot(n - 1, i + 1):
            d = x.diff(i + 1)
            yield i + 1, pre_op, (d if n % 2 else -d), y.term(i + n)

    def _place(self, n: int, j: int, img, mat: np.ndarray, col: int, what: str) -> None:
        """Write the slot coordinates of the flat maps in the columns of img,
        which lie in slot j of degree n, into mat from column col.  Only a
        slot with a basis computes coordinates; a free slot's flat maps, of
        its height (reshape refuses any other), are their own."""
        off, k, basis = self.slots(n)[j]
        if basis is not None:
            coords = kernel_coords(basis, Mat.of(self.source.field, img))
            if coords is None:
                raise ValueError(f"{what} is not an intertwiner collection")
            img = coords.a
        mat[off : off + k, col : col + img.shape[1]] = img.reshape(k, img.shape[1])

    def diff(self, n: int) -> Mat:
        """D_n : Hom_n -> Hom_{n-1}, (D phi) = d_Y phi - (-1)^n phi d_X."""
        fld, below = self.source.field, self.slots(n - 1)
        mat = np.zeros((self.dim(n - 1), self.dim(n)), dtype=np.int64)
        for i, (col, k, b) in self.slots(n).items():
            stack = None if b is None else b.a
            for j, op, m, ends in self._parts(n, i):
                off, rows, basis = below[j]
                if b is None and basis is None:  # free to free
                    op(m, ends, out=mat[off : off + rows, col : col + k])
                    continue
                img = _apply(op(m, ends), stack, fld.p)
                self._place(n - 1, j, img, mat, col, "hom differential image")
        return _reduced(fld, mat) if mat.size else Mat.zeros(fld, *mat.shape)

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
        for i, (off, k, basis) in self.slots(n).items():
            src, tgt = x.term(i), y.term(i + n)
            vec = coeffs[off : off + k] if basis is None else (basis.a @ coeffs[off : off + k]) % p
            out[i] = RepMap(src, tgt, graded_from_flat(src, tgt, vec))
        return out

    def encode(self, n: int, graded: dict[int, RepMap]) -> np.ndarray:
        """Coordinates of a graded collection of maps X_i -> Y_{i+n}, as a column."""
        slots = self.slots(n)
        out = np.zeros((self.dim(n), 1), dtype=np.int64)
        for i, g in graded.items():
            if g.is_zero():
                continue
            if i not in slots:
                raise ValueError("graded map has a component outside the hom complex")
            self._place(n, i, g.flat().reshape(-1, 1), out, 0, "graded map")
        return out


def _apply(op: np.ndarray, stack: np.ndarray | None, p: int) -> np.ndarray:
    """The images of a stack of flat maps under the operator op (post_op,
    pre_op): one product reduced in place, or op itself for a free slot (None)."""
    if stack is None:
        return op
    out = op @ stack
    return np.remainder(out, p, out=out)


def hom_complex(x: Complex, y: Complex) -> HomComplex:
    """The mapping complex Hom(X, Y); each degree is built when first read."""
    if x.quiver != y.quiver or x.field != y.field:
        raise ValueError("hom complex of incompatible complexes")
    return HomComplex(x, y)


def hom_transport(src: HomComplex, dst: HomComplex, n: int, pre=None, post=None) -> Mat:
    """Degree n of hom(A, B) -> hom(A', B'), phi -> post phi pre, between the
    given mapping complexes src = hom(A, B) and dst = hom(A', B'), for
    pre : A' -> A and post : B -> B', at least one given; an absent map is
    the identity."""
    a, b, p = src.source, src.target, src.source.field.p
    pre_ends = (a, a) if pre is None else (pre.target, pre.source)
    post_ends = (b, b) if post is None else (post.source, post.target)
    if pre is post is None or pre_ends != (a, dst.source) or post_ends != (b, dst.target):
        raise ValueError("transport between the wrong mapping complexes")
    dst_slots = dst.slots(n)
    mat = np.zeros((dst.dim(n), src.dim(n)), dtype=np.int64)
    for i, (col, _, basis) in src.slots(n).items():
        if i not in dst_slots:
            continue
        img = None if basis is None else basis.a
        if pre is not None:
            img = _apply(pre_op(pre.comp(i), b.term(i + n)), img, p)
        if post is not None:
            img = _apply(post_op(post.comp(i + n), dst.source.term(i)), img, p)
        dst._place(n, i, img, mat, col, "transported map")
    return Mat.of(a.field, mat)


# -- total complexes of mapping complexes ---------------------------------------


def _node_offsets(nodes, k: int) -> list[int]:
    """Where each node's degree-(k + shift) coordinates start in the stack,
    then the stack's size."""
    return list(accumulate((h.dim(k + s) for h, s in nodes), initial=0))


def total_diff(nodes, edges, k: int) -> Mat:
    """Degree k of the total complex of a diagram of mapping complexes.

    nodes: (HomComplex, shift) pairs; node j contributes its degree
    k + shift maps as unknowns and its degree k + shift - 1 maps as rows,
    with its own D on the diagonal, signed (-1)^shift.  edges: (j, i, sign,
    pre, post) tuples, each the transport phi -> post phi pre from node i
    into node j (hom_transport) times sign, at rows j, columns i.  Columns
    and rows are stacked in node order.
    """
    cols, rows = _node_offsets(nodes, k), _node_offsets(nodes, k - 1)
    mat = np.zeros((rows[-1], cols[-1]), dtype=np.int64)
    for j, (h, s) in enumerate(nodes):
        mat[rows[j] : rows[j + 1], cols[j] : cols[j + 1]] = (-1) ** s * h.diff(k + s).a
    for j, i, sign, pre, post in edges:
        (h, s), dst = nodes[i], nodes[j][0]
        carried = hom_transport(h, dst, k + s, pre, post)
        mat[rows[j] : rows[j + 1], cols[i] : cols[i + 1]] += sign * carried.a
    return Mat.of(nodes[0][0].source.field, mat)


def total_solve(nodes, edges, rhs) -> tuple[list[dict[int, RepMap]], int] | None:
    """A degree-0 solution of the total complex: x with total_diff(nodes,
    edges, 0) x = rhs and free variables zero, where rhs[j] holds node j's
    graded maps of degree shift - 1.  Returns (each node's part of x,
    decoded into graded maps of degree shift, the nullity), or None when
    there is no solution."""
    b = np.concatenate([h.encode(s - 1, graded) for (h, s), graded in zip(nodes, rhs)])
    got = solve(total_diff(nodes, edges, 0), Mat.of(nodes[0][0].source.field, b))
    if got is None:
        return None
    x, nullity = got
    at = _node_offsets(nodes, 0)
    parts = [h.decode(s, x.a[at[j] : at[j + 1], 0]) for j, (h, s) in enumerate(nodes)]
    return parts, nullity


# -- homotopies and chain maps, on the mapping complex ----------------------------


def homotopic(f: ChainMap, g: ChainMap) -> Homotopy | None:
    """A homotopy from g to f, or None when the maps are not homotopic: the
    one-node total solve on Hom(X, Y) at shift 1, -D_1 h = g - f."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("homotopy test needs shared endpoints")
    got = total_solve([(hom_complex(f.source, f.target), 1)], [], [(g - f).comps])
    if got is None:
        return None
    return Homotopy(g, f, got[0][0])


def chain_map_basis(x: Complex, y: Complex) -> list[ChainMap]:
    """Deterministic basis of the space of chain maps X -> Y: the degree-0
    cycles of the mapping complex, from the standard kernel basis of D_0."""
    hom = hom_complex(x, y)
    ker = kernel_basis(hom.diff(0))
    return [ChainMap(x, y, hom.decode(0, ker.a[:, j])) for j in range(ker.cols)]


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
            coeffs = rng.integers(0, field.p, flat_dim(src, tgt) if basis is None else basis.cols)
        else:
            stack = None if basis is None else basis.a
            ker = kernel_basis(Mat.of(field, _apply(post_op(prev, src), stack, field.p)))
            coeffs = (ker.a @ rng.integers(0, field.p, size=ker.cols)) % field.p
        vec = coeffs if basis is None else (basis.a @ coeffs) % field.p
        d = RepMap(src, tgt, graded_from_flat(src, tgt, vec))
        diffs.append(d)
        prev = d
    return Complex(quiver, field, slo, tuple(terms), tuple(diffs))


def random_chain_map(x: Complex, y: Complex, rng: np.random.Generator) -> ChainMap:
    """Uniform draw from the space of chain maps X -> Y: a random combination
    of the kernel basis of D_0, drawing nothing when degree 0 is zero.  A D_0
    without a nonzero entry has every vector as a cycle, and no basis is built."""
    hom, p = hom_complex(x, y), x.field.p
    if not hom.dim(0):
        return zero_map(x, y)
    d0 = hom.diff(0)
    ker = kernel_basis(d0) if d0.a.any() else None
    coeffs = rng.integers(0, p, size=hom.dim(0) if ker is None else ker.cols)
    return ChainMap(x, y, hom.decode(0, coeffs if ker is None else (ker.a @ coeffs) % p))
