"""Torsion theories carved out of a truncation cutoff.

A cutoff t determines two morphism classes:

    E = maps whose below-cutoff truncation is a quasi-iso,
    M = maps whose at-or-above truncation is a quasi-iso,

and every map factors as an E-map into the homotopy pullback of its
below-cutoff square followed by an M-map out of it.  This module decides
membership, builds the factorization with its witnesses, and implements
the certificate suite around it: orthogonality, a lifting-count oracle,
the six normality conditions, 3-for-2, the initial/terminal symmetry,
semiexactness, and the reconstruction roundtrips.

Orthogonality is decided exactly: the filler space for (e, m) is governed
by hom(cofib e, fib m), and contractibility is equivalent to acyclicity of
that complex in non-negative degrees.  solve_lifting is an independent
oracle at the level of maps-and-homotopies; it counts homotopy classes of
fillers by linear algebra over F_p and must agree with the criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import (
    ChainMap,
    CommutingSquare,
    Complex,
    Homotopy,
    Pullback,
    block_components,
    cofib,
    compose,
    fib,
    hom_complex,
    hom_postcompose,
    hom_precompose,
    homology_dims,
    homotopy_pullback,
    homotopy_pushout,
    is_pullout,
    is_quasi_iso,
    pullback_induced,
    solve_block_system,
    block_matrix,
    zero_complex,
    zero_map,
)
from .linalg import rank
from .quiver import RepMap
from .tstruct import (
    TStructure,
    in_aisle,
    in_coaisle,
    truncate_ge,
    truncate_lt,
    truncate_map_ge,
    truncate_map_lt,
    truncation_square,
)

__all__ = [
    "TorsionTheory",
    "Factorization",
    "NormalityReport",
    "in_E",
    "in_M",
    "torsion_contains",
    "free_contains",
    "reflection",
    "coreflection",
    "reflection_fiber",
    "coreflection_cofiber",
    "normality_report",
    "factor",
    "factorization_pullout_square",
    "is_orthogonal",
    "solve_lifting",
    "three_for_two_check",
    "sator_check",
    "semiexact_data",
    "semiexact_check",
    "in_E_via_reconstruction",
    "roundtrip_check",
    "cobase_change",
    "base_change",
    "antitone_check",
]


@dataclass(frozen=True)
class TorsionTheory:
    """A torsion theory presented by its truncation cutoff.

    The classes E and M are predicates (in_E / in_M), never materialized;
    the torsion class is the objects whose initial arrow lies in E, the
    torsion-free class the objects whose terminal arrow lies in M.
    """

    t: TStructure

    @classmethod
    def at(cls, n: int) -> "TorsionTheory":
        return cls(TStructure(n))

    def shifted(self, k: int) -> "TorsionTheory":
        return TorsionTheory(self.t.shifted(k))


def in_E(f: ChainMap, tt: TorsionTheory) -> bool:
    return is_quasi_iso(truncate_map_lt(f, tt.t))


def in_M(f: ChainMap, tt: TorsionTheory) -> bool:
    return is_quasi_iso(truncate_map_ge(f, tt.t))


def torsion_contains(x: Complex, tt: TorsionTheory) -> bool:
    """x lies in the torsion class: its initial arrow is in E."""
    return in_E(zero_map(zero_complex(x.quiver, x.field), x), tt)


def free_contains(x: Complex, tt: TorsionTheory) -> bool:
    """x lies in the torsion-free class: its terminal arrow is in M."""
    return in_M(zero_map(x, zero_complex(x.quiver, x.field)), tt)


# -- (co)reflections ---------------------------------------------------------------


def reflection(x: Complex, tt: TorsionTheory) -> tuple[Complex, ChainMap]:
    """The torsion-free reflection: the below-cutoff quotient with its unit."""
    return truncate_lt(x, tt.t)


def coreflection(x: Complex, tt: TorsionTheory) -> tuple[Complex, ChainMap]:
    """The torsion coreflection: the at-or-above subcomplex with its counit."""
    return truncate_ge(x, tt.t)


def reflection_fiber(x: Complex, tt: TorsionTheory) -> tuple[Complex, ChainMap]:
    """fib(unit) together with the canonical comparison from the coreflection.

    The comparison sends s to (counit s, 0); it is strict because the unit
    kills the coreflection on the nose.
    """
    _, unit = reflection(x, tt)
    fb = fib(unit)
    sx, counit = coreflection(x, tt)
    comps = block_components(sx, fb.blocks, 0, {(0, 0): (1, counit.comps)})
    return fb.complex, ChainMap(sx, fb.complex, comps)


def coreflection_cofiber(x: Complex, tt: TorsionTheory) -> tuple[Complex, ChainMap]:
    """cofib(counit) together with the canonical comparison onto the reflection."""
    _, counit = coreflection(x, tt)
    cf = cofib(counit)
    rx, unit = reflection(x, tt)
    comps = block_components(cf.cone.blocks, rx, 0, {(0, 1): (1, unit.comps)})
    return cf.complex, ChainMap(cf.complex, rx, comps)


@dataclass(frozen=True)
class NormalityReport:
    """The six equivalent conditions, evaluated independently."""

    kernel_is_torsion: bool  # fib(unit) -> 0 lies in E
    cokernel_is_torsion_free: bool  # cofib(counit) -> 0 lies in M
    two_sided: bool
    cokernel_comparison_iso: bool  # cofib(counit) -> reflection is a quasi-iso
    kernel_comparison_iso: bool  # coreflection -> fib(unit) is a quasi-iso
    fiber_sequence_pullout: bool  # the truncation square is a pullout

    def as_tuple(self) -> tuple[bool, ...]:
        return (
            self.kernel_is_torsion,
            self.cokernel_is_torsion_free,
            self.two_sided,
            self.cokernel_comparison_iso,
            self.kernel_comparison_iso,
            self.fiber_sequence_pullout,
        )

    def agree(self) -> bool:
        return len(set(self.as_tuple())) == 1

    def all_hold(self) -> bool:
        return all(self.as_tuple())


def normality_report(x: Complex, tt: TorsionTheory) -> NormalityReport:
    zc = zero_complex(x.quiver, x.field)
    k, k_cmp = reflection_fiber(x, tt)
    q, q_cmp = coreflection_cofiber(x, tt)
    # torsion membership via the terminal arrow: the initial/terminal
    # symmetry makes this equivalent to the usual initial-arrow test.
    cond1 = in_E(zero_map(k, zc), tt)
    cond2 = in_M(zero_map(q, zc), tt)
    return NormalityReport(
        kernel_is_torsion=cond1,
        cokernel_is_torsion_free=cond2,
        two_sided=cond1 and cond2,
        cokernel_comparison_iso=is_quasi_iso(q_cmp),
        kernel_comparison_iso=is_quasi_iso(k_cmp),
        fiber_sequence_pullout=is_pullout(truncation_square(x, tt.t)),
    )


# -- the factorization -------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """f = m . e through the homotopy pullback of the below-cutoff square.

    The witness records m . e == f; it is the zero homotopy here because
    truncation is strictly functorial, but consumers must not rely on that.
    """

    e: ChainMap
    m: ChainMap
    witness: Homotopy
    mid: Pullback


def factor(f: ChainMap, tt: TorsionTheory) -> Factorization:
    x, y = f.source, f.target
    below = truncate_map_lt(f, tt.t)
    _, unit_y = reflection(y, tt)
    pb = homotopy_pullback(below, unit_y)
    _, unit_x = reflection(x, tt)
    comps = block_components(x, pb.blocks, 0, {(0, 0): (1, unit_x.comps), (1, 0): (1, f.comps)})
    e = ChainMap(x, pb.complex, comps)
    m = pb.proj_second
    witness = Homotopy(compose(m, e), f, {})
    return Factorization(e, m, witness, pb)


def factorization_pullout_square(
    f: ChainMap, tt: TorsionTheory, fac: Factorization | None = None
) -> CommutingSquare:
    """The coreflected face of the factorization diagram; always a pullout.

    Top and left are the counits/coreflections of f, right is e, and the
    bottom leg embeds the target's coreflection into the middle object.
    """
    if fac is None:
        fac = factor(f, tt)
    x, y = f.source, f.target
    _, counit_x = coreflection(x, tt)
    sy, counit_y = coreflection(y, tt)
    above = truncate_map_ge(f, tt.t)
    comps = block_components(sy, fac.mid.blocks, 0, {(1, 0): (1, counit_y.comps)})
    bottom = ChainMap(sy, fac.mid.complex, comps)
    return CommutingSquare.strict(counit_x, above, fac.e, bottom)


# -- orthogonality and lifting ------------------------------------------------------


def is_orthogonal(e: ChainMap, m: ChainMap) -> bool:
    """Fillers for (e, m) form a contractible space iff hom(cofib e, fib m)
    is acyclic in all non-negative degrees."""
    h = hom_complex(cofib(e).complex, fib(m).complex)
    return not any(
        any(dims) for n, dims in homology_dims(h.complex).items() if n >= 0
    )


def _op(cm: ChainMap, n: int) -> np.ndarray:
    return cm.comp(n).components[0].a


def _diff(hc, n: int) -> np.ndarray:
    return hc.complex.diff(n).components[0].a


def _dim(hc, n: int) -> int:
    return hc.complex.term(n).dims[0]


def solve_lifting(
    sq: CommutingSquare,
) -> tuple[int, tuple[ChainMap, Homotopy, Homotopy] | None]:
    """Count homotopy classes of fillers for the square; exact, by linear algebra.

    The left edge plays the E role and the right edge the M role.  A filler
    is a map a from the left target to the right source, a homotopy from
    the top edge to a.left, a homotopy from the bottom edge to right.a,
    and a second-order cell tying the two to the square's own witness.
    Fillers are counted modulo the gauge action by homotopies of a and
    higher cells.  Returns (count, one representative) with the
    representative omitted when no filler exists.
    """
    w_, x_, y_, z_ = (
        sq.top.source,
        sq.top.target,
        sq.left.target,
        sq.right.target,
    )
    fld = w_.field
    hyx = hom_complex(y_, x_)
    hwx = hom_complex(w_, x_)
    hyz = hom_complex(y_, z_)
    hwz = hom_complex(w_, z_)
    pre_e_x = hom_precompose(sq.left, x_)  # hom(Y,X) -> hom(W,X)
    pre_e_z = hom_precompose(sq.left, z_)
    post_m_y = hom_postcompose(y_, sq.right)  # hom(Y,X) -> hom(Y,Z)
    post_m_w = hom_postcompose(w_, sq.right)
    u = hwx.encode(0, {i: sq.top.comp(i) for i in w_.support})
    w = hyz.encode(0, {i: sq.bottom.comp(i) for i in y_.support})
    hwit = hwz.encode(1, dict(sq.witness.comps))

    unknowns = [
        ("a", _dim(hyx, 0)),
        ("ht", _dim(hwx, 1)),
        ("hb", _dim(hyz, 1)),
        ("s", _dim(hwz, 2)),
    ]
    equations = [
        (_dim(hyx, -1), [("a", _diff(hyx, 0))], np.zeros(_dim(hyx, -1), dtype=np.int64)),
        (_dim(hwx, 0), [("a", _op(pre_e_x, 0)), ("ht", -_diff(hwx, 1))], u),
        (_dim(hyz, 0), [("a", _op(post_m_y, 0)), ("hb", -_diff(hyz, 1))], w),
        (
            _dim(hwz, 1),
            [
                ("ht", _op(post_m_w, 1)),
                ("hb", -_op(pre_e_z, 1)),
                ("s", -_diff(hwz, 2)),
            ],
            -hwit,
        ),
    ]
    sol = solve_block_system(fld, unknowns, equations)
    if sol is None:
        return 0, None
    assign, ker_dim = sol

    gauge_unknowns = [
        ("g", _dim(hyx, 1)),
        ("lt", _dim(hwx, 2)),
        ("lb", _dim(hyz, 2)),
        ("mu", _dim(hwz, 3)),
    ]
    gauge = [
        (_dim(hyx, 0), [("g", _diff(hyx, 1))]),
        (_dim(hwx, 1), [("g", _op(pre_e_x, 1)), ("lt", _diff(hwx, 2))]),
        (_dim(hyz, 1), [("g", _op(post_m_y, 1)), ("lb", _diff(hyz, 2))]),
        (
            _dim(hwz, 2),
            [("lt", _op(post_m_w, 2)), ("lb", -_op(pre_e_z, 2)), ("mu", _diff(hwz, 3))],
        ),
    ]
    gmat, _ = block_matrix(fld, gauge_unknowns, gauge)
    classes = fld.p ** (ker_dim - rank(gmat))

    a = hyx.cycle_to_chain_map(0, assign["a"])
    a = ChainMap(y_, x_, a.comps)
    ht_graded = hwx.decode(1, assign["ht"])
    ht = Homotopy(
        sq.top,
        compose(a, sq.left),
        {i: RepMap(w_.term(i), x_.term(i + 1), m) for i, m in ht_graded.items()},
    )
    hb_graded = hyz.decode(1, assign["hb"])
    hb = Homotopy(
        sq.bottom,
        compose(sq.right, a),
        {i: RepMap(y_.term(i), z_.term(i + 1), m) for i, m in hb_graded.items()},
    )
    return classes, (a, ht, hb)


# -- class algebra -----------------------------------------------------------------


def three_for_two_check(which: str, tt: TorsionTheory, pairs) -> bool:
    """Composition closure plus both cancellation laws, over composable pairs."""
    if which not in ("E", "M"):
        raise ValueError("class selector must be 'E' or 'M'")
    member = in_E if which == "E" else in_M
    for f, g in pairs:
        a = member(f, tt)
        b = member(g, tt)
        c = member(compose(g, f), tt)
        if (a and b and not c) or (a and c and not b) or (b and c and not a):
            return False
    return True


def sator_check(a: Complex, tt: TorsionTheory) -> bool:
    """The initial arrow of a lies in a class iff the terminal arrow does."""
    zc = zero_complex(a.quiver, a.field)
    initial = zero_map(zc, a)
    terminal = zero_map(a, zc)
    return in_E(initial, tt) == in_E(terminal, tt) and in_M(initial, tt) == in_M(
        terminal, tt
    )


def cobase_change(f: ChainMap, along: ChainMap) -> ChainMap:
    """The pushout of f against along (shared source); E is closed under these."""
    return homotopy_pushout(f, along).inj_second


def base_change(f: ChainMap, along: ChainMap) -> ChainMap:
    """The pullback of f against along (shared target); M is closed under these."""
    return homotopy_pullback(f, along).proj_second


def antitone_check(f: ChainMap, lower: TorsionTheory, higher: TorsionTheory) -> bool:
    """Raising the cutoff only grows M: membership below implies membership above."""
    if lower.t.n > higher.t.n:
        raise ValueError("cutoffs out of order")
    return (not in_M(f, lower)) or in_M(f, higher)


# -- semiexactness ------------------------------------------------------------------


def semiexact_data(
    f: ChainMap, tt: TorsionTheory
) -> tuple[ChainMap, ChainMap]:
    """The comparison from the coreflected pushout to the reflected pullback,
    plus the pulled-back unit.

    Strictness of the truncations makes the comparison a strict chain map:
    it sends (s, t, x) to (unit x, counit t + f x, 0).
    """
    x, y = f.source, f.target
    _, unit_x = reflection(x, tt)
    _, unit_y = reflection(y, tt)
    _, counit_y = coreflection(y, tt)
    below = truncate_map_lt(f, tt.t)
    above = truncate_map_ge(f, tt.t)
    pb = homotopy_pullback(below, unit_y)
    po = homotopy_pushout(above, coreflection(x, tt)[1])
    # pushout parts (sx, 1), (sy, 0), (x, 0); pullback parts (rx, 0), (y, 0), (ry, -1)
    table = {(0, 2): (1, unit_x.comps), (1, 1): (1, counit_y.comps), (1, 2): (1, f.comps)}
    w = ChainMap(po.complex, pb.complex, block_components(po.blocks, pb.blocks, 0, table))
    return w, pb.proj_first


def semiexact_check(f: ChainMap, tt: TorsionTheory) -> bool:
    w, pulled_unit = semiexact_data(f, tt)
    return is_quasi_iso(w) and in_E(pulled_unit, tt)


# -- roundtrips ---------------------------------------------------------------------


def in_E_via_reconstruction(f: ChainMap, tt: TorsionTheory) -> bool:
    """Decide E-membership through the reflection rebuilt from the
    factorization of terminal arrows, instead of truncating f directly."""
    x, y = f.source, f.target
    zc = zero_complex(x.quiver, x.field)
    fx = factor(zero_map(x, zc), tt)
    fy = factor(zero_map(y, zc), tt)
    zid = zero_map(zc, zc)
    induced = pullback_induced(
        fx.mid, fy.mid, truncate_map_lt(f, tt.t), zid, zid
    )
    return is_quasi_iso(induced)


def roundtrip_check(tt: TorsionTheory, morphisms=(), objects=()) -> bool:
    """Both directions of the correspondence, on samples.

    Morphism side: direct truncation membership in E equals membership via
    the reconstructed reflection.  Object side: the upper class is the
    torsion class of (E, M) and the lower class is the torsion-free class.
    """
    for f in morphisms:
        if in_E(f, tt) != in_E_via_reconstruction(f, tt):
            return False
    for x in objects:
        if in_coaisle(x, tt.t) != torsion_contains(x, tt):
            return False
        if in_aisle(x, tt.t) != free_contains(x, tt):
            return False
    return True
