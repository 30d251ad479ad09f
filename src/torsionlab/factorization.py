"""The normal torsion theory of a t-structure.

A t-structure t determines its torsion theory (E_t, M_t), so every function
here takes the TStructure itself.  With the cut at n,

    E_t = maps whose below-cutoff truncation (truncate_lt) is a quasi-iso,
    M_t = maps whose at-or-above truncation (truncate_ge) is a quasi-iso;

both are predicates (in_E, in_M), never materialized.  truncate_lt is the
reflection onto the torsion-free class and truncate_ge the coreflection
onto the torsion class.  Every map factors as an E-map, the gap map into
the homotopy pullback of its below-cutoff square, followed by an M-map out
of it, m . e == f on the nose.  This module decides membership, builds the
factorization, and implements the certificate suite around it: orthogonality,
a lifting-count oracle, the six normality conditions, 3-for-2, the
initial/terminal symmetry, semiexactness, and the reconstruction
roundtrips.  The class checks take the class they test as a predicate
member(map, cut) -> bool and one input, so besides in_E and in_M they can
be handed a class that breaks the law and must then answer no.

Normality and semiexactness are pullout conditions on squares built
elsewhere, read by the pullout tests of complexes.  Normality asks the
truncation square (coreflection -> x -> reflection, over zero) to be
cartesian, cocartesian and a pullout.  Semiexactness asks the
factorization's coreflected face (factorization_pullout_square) to be
cocartesian, and its pulled-back unit to lie in E.

is_orthogonal and solve_lifting decide in the homotopy category K(rep Q),
which agrees with the derived category D on the factored pairs the suite
draws but not on all (the strict xfail
test_orthogonality_and_fillers_are_decided_in_the_derived_category).  The
filler space for (e, m) is governed by hom(cone e, fib m), and
contractibility is equivalent to acyclicity of that complex in non-negative
degrees; solve_lifting, an independent oracle, counts homotopy classes of
fillers by linear algebra over F_p and must agree with the criterion.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

from .complexes import (
    ChainMap,
    CommutingSquare,
    Complex,
    Homotopy,
    Pullback,
    compose,
    cone,
    fib,
    hom_complex,
    homology_dims,
    homotopy_pullback,
    initial_map,
    is_cartesian,
    is_cocartesian,
    is_pullout,
    is_quasi_iso,
    pullback_induced,
    terminal_map,
    total_diff,
    total_solve,
    zero_map,
)
from .linalg import rank
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
    "Factorization",
    "NormalityReport",
    "in_E",
    "in_M",
    "torsion_contains",
    "free_contains",
    "normality_report",
    "factor",
    "factorization_pullout_square",
    "is_orthogonal",
    "solve_lifting",
    "three_for_two_check",
    "sator_check",
    "semiexact_check",
    "in_E_via_reconstruction",
    "roundtrip_check",
    "antitone_check",
]


def in_E(f: ChainMap, t: TStructure) -> bool:
    return is_quasi_iso(truncate_map_lt(f, t))


def in_M(f: ChainMap, t: TStructure) -> bool:
    return is_quasi_iso(truncate_map_ge(f, t))


def torsion_contains(x: Complex, t: TStructure) -> bool:
    """x lies in the torsion class: its initial arrow is in E."""
    return in_E(initial_map(x), t)


def free_contains(x: Complex, t: TStructure) -> bool:
    """x lies in the torsion-free class: its terminal arrow is in M."""
    return in_M(terminal_map(x), t)


# -- normality ---------------------------------------------------------------------


@dataclass(frozen=True)
class NormalityReport:
    """The six equivalent conditions, evaluated independently on the
    truncation square sq: conditions 1 and 2 on fib(sq.right) and
    cone(sq.top), the comparisons as sq cartesian and cocartesian, and the
    fiber sequence as sq a pullout."""

    kernel_is_torsion: bool  # fib(unit) -> 0 lies in E
    cokernel_is_torsion_free: bool  # cone(counit) -> 0 lies in M
    two_sided: bool
    cokernel_comparison_iso: bool  # cone(counit) -> reflection is a quasi-iso
    kernel_comparison_iso: bool  # coreflection -> fib(unit) is a quasi-iso
    fiber_sequence_pullout: bool  # the truncation square is a pullout

    def as_tuple(self) -> tuple[bool, ...]:
        return astuple(self)

    def all_hold(self) -> bool:
        return all(self.as_tuple())


def normality_report(x: Complex, t: TStructure) -> NormalityReport:
    sq = truncation_square(x, t)
    # torsion membership via the terminal arrow: the initial/terminal
    # symmetry makes this equivalent to the usual initial-arrow test.
    cond1 = in_E(terminal_map(fib(sq.right)), t)
    cond2 = in_M(terminal_map(cone(sq.top)), t)
    return NormalityReport(
        kernel_is_torsion=cond1,
        cokernel_is_torsion_free=cond2,
        two_sided=cond1 and cond2,
        cokernel_comparison_iso=is_cocartesian(sq),
        kernel_comparison_iso=is_cartesian(sq),
        fiber_sequence_pullout=is_pullout(sq),
    )


# -- the factorization -------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """f = m . e through the homotopy pullback of the below-cutoff square.

    m . e == f on the nose, as truncation is strictly functorial, so no
    witness is kept; the suite's factorization property and tests check it.
    """

    e: ChainMap
    m: ChainMap
    mid: Pullback


def factor(f: ChainMap, t: TStructure) -> Factorization:
    x, y = f.source, f.target
    below = truncate_map_lt(f, t)
    _, unit_y = truncate_lt(y, t)
    pb = homotopy_pullback(below, unit_y)
    _, unit_x = truncate_lt(x, t)
    e = pb.gap_map(unit_x, f)
    return Factorization(e, pb.proj_second, pb)


def factorization_pullout_square(f: ChainMap, t: TStructure, fac: Factorization) -> CommutingSquare:
    """The coreflected face of the factorization diagram; always a pullout.

    Top and left are the counits/coreflections of f, right is e, and the
    bottom leg embeds the target's coreflection into the middle object.
    """
    x, y = f.source, f.target
    _, counit_x = truncate_ge(x, t)
    sy, counit_y = truncate_ge(y, t)
    above = truncate_map_ge(f, t)
    bottom = fac.mid.gap_map(zero_map(sy, fac.mid.f.source), counit_y)
    return CommutingSquare.strict(counit_x, above, fac.e, bottom)


# -- orthogonality and lifting ------------------------------------------------------


def is_orthogonal(e: ChainMap, m: ChainMap) -> bool:
    """Fillers for (e, m) form a contractible space iff hom(cone e, fib m)
    is acyclic in all non-negative degrees."""
    dims = homology_dims(hom_complex(cone(e), fib(m)).complex)
    return not any(any(d) for n, d in dims.items() if n >= 0)


def _lifting_total(sq: CommutingSquare):
    """The nodes and edges of the total complex whose degree-0 cycles are
    the fillers of sq: Hom(Y, X) at shift 0, Hom(W, X) and Hom(Y, Z) at 1,
    Hom(W, Z) at 2, joined by precomposition with the left edge e and
    postcomposition with the right edge m."""
    w, x, y, z = sq.top.source, sq.top.target, sq.left.target, sq.right.target
    e, m = sq.left, sq.right
    nodes = [(hom_complex(y, x), 0), (hom_complex(w, x), 1)]
    nodes += [(hom_complex(y, z), 1), (hom_complex(w, z), 2)]
    edges = [(1, 0, 1, e, None), (2, 0, 1, None, m), (3, 1, -1, None, m), (3, 2, 1, e, None)]
    return nodes, edges


def solve_lifting(
    sq: CommutingSquare,
) -> tuple[int, tuple[ChainMap, Homotopy, Homotopy] | None]:
    """Count homotopy classes of fillers for the square; exact, by linear algebra.

    The left edge plays the E role and the right edge the M role.  A filler
    is a map a from the left target to the right source, a homotopy from
    the top edge to a.left, a homotopy from the bottom edge to right.a,
    and a second-order cell tying the two to the square's own witness.
    These are the degree-0 unknowns of one total complex (_lifting_total),
    and a filler solves its D^0 against (0, top, bottom, witness).  Its
    degree 1 is the gauge, homotopies of a and higher cells, so fillers
    are counted as p^(nullity of D^0 - rank of D^1).  Returns (count, one
    representative) with the representative omitted when no filler exists.
    """
    nodes, edges = _lifting_total(sq)
    got = total_solve(nodes, edges, [{}, sq.top.comps, sq.bottom.comps, sq.witness.comps])
    if got is None:
        return 0, None
    (a_comps, top_h, bottom_h, _), nullity = got
    classes = sq.top.source.field.p ** (nullity - rank(total_diff(nodes, edges, 1)))
    a = ChainMap(sq.left.target, sq.right.source, a_comps)
    ht = Homotopy(sq.top, compose(a, sq.left), top_h)
    hb = Homotopy(sq.bottom, compose(sq.right, a), bottom_h)
    return classes, (a, ht, hb)


# -- class algebra -----------------------------------------------------------------


def three_for_two_check(member, f: ChainMap, g: ChainMap, t: TStructure) -> bool:
    """Composition closure and both cancellation laws on g . f: of f, g
    and g . f, never exactly two lie in member's class."""
    return member(f, t) + member(g, t) + member(compose(g, f), t) != 2


def sator_check(member, a: Complex, t: TStructure) -> bool:
    """The initial arrow of a lies in member's class iff the terminal arrow does."""
    return member(initial_map(a), t) == member(terminal_map(a), t)


def antitone_check(member, f: ChainMap, lower: TStructure, higher: TStructure) -> bool:
    """Membership at the lower cut implies membership at the higher one,
    as for M, which only grows as the cut rises (E only shrinks)."""
    if lower > higher:
        raise ValueError("cutoffs out of order")
    return not member(f, lower) or member(f, higher)


# -- semiexactness ------------------------------------------------------------------


def semiexact_check(f: ChainMap, t: TStructure) -> bool:
    fac = factor(f, t)
    return is_cocartesian(factorization_pullout_square(f, t, fac)) and in_E(fac.mid.proj_first, t)


# -- roundtrips ---------------------------------------------------------------------


def in_E_via_reconstruction(f: ChainMap, t: TStructure) -> bool:
    """Decide E-membership through the reflection rebuilt from the
    factorization of terminal arrows, instead of truncating f directly."""
    fx = factor(terminal_map(f.source), t)
    fy = factor(terminal_map(f.target), t)
    zid = initial_map(fx.m.target)  # fx.m ends at the zero complex
    return is_quasi_iso(pullback_induced(fx.mid, fy.mid, truncate_map_lt(f, t), zid, zid))


def roundtrip_check(f: ChainMap, x: Complex, t: TStructure) -> bool:
    """Both directions of the correspondence, on one map and one object.

    Morphism side: direct truncation membership in E equals membership via
    the reconstructed reflection.  Object side: the upper class is the
    torsion class of (E, M) and the lower class is the torsion-free class.
    """
    if in_E(f, t) != in_E_via_reconstruction(f, t):
        return False
    return in_coaisle(x, t) == torsion_contains(x, t) and in_aisle(x, t) == free_contains(x, t)
