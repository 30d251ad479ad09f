"""Integer truncation structures: the degree-n homology cut and its two
classes, good truncations, and the abelian layer sitting between them.

The cut at n divides complexes into an upper class (homology concentrated in
degrees >= n) and a lower class (degrees < n).  Truncations are the good
ones: the subcomplex keeping cycles at the cut degree and the matching
quotient.  Because kernels and quotients of representations are computed by
deterministic eliminations, these truncations are strictly functorial here:
truncating a composite equals composing the truncated maps on the nose, and
both constructions are literally idempotent.  Downstream code leans on that
strictness for zero witnesses but never assumes it when checking laws.

Each cut is computed once per complex: the cycles at the cut, the quotient
by them and both truncations are kept on the Complex object (outside its
equality), and every truncation of it or of a map at its ends reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .complexes import (
    ChainMap,
    CommutingSquare,
    Complex,
    Homotopy,
    chain_map_constraints,
    compose,
    cofib,
    fib,
    homology_dims,
    identity_map,
    random_chain_map,
    random_complex,
    solve_block_system,
    zero_complex,
    zero_map,
    _graded_maps,
    _hom_bases_for_homotopy,
)
from .linalg import Mat, kernel_coords
from .quiver import (
    QuiverRep,
    RepMap,
    flat_dim,
    post_op,
    pre_op,
    quotient_rep,
    rep_kernel,
)

__all__ = [
    "TStructure",
    "HeartMorphism",
    "in_coaisle",
    "in_aisle",
    "truncate_ge",
    "truncate_lt",
    "truncate_map_ge",
    "truncate_map_lt",
    "lt_restriction",
    "truncation_square",
    "heart_contains",
    "heart_kernel",
    "heart_cokernel",
    "heart_image",
    "heart_coimage",
    "heart_comparison",
    "random_heart_object",
    "random_heart_morphism",
]


@dataclass(frozen=True)
class TStructure:
    """The standard homology cut placed at degree n.

    The upper class keeps H_k for k >= n, the lower class for k < n.
    Shifting the cut is the suspension action; cuts are totally ordered.
    """

    n: int = 0

    def shifted(self, k: int) -> "TStructure":
        return TStructure(self.n + k)


def in_coaisle(x: Complex, t: TStructure) -> bool:
    """Homology vanishes strictly below the cut."""
    dims = homology_dims(x)
    return all(
        all(d == 0 for d in dims[k]) for k in dims if k < t.n
    )


def in_aisle(x: Complex, t: TStructure) -> bool:
    """Homology vanishes at and above the cut."""
    dims = homology_dims(x)
    return all(
        all(d == 0 for d in dims[k]) for k in dims if k >= t.n
    )


def heart_contains(x: Complex, t: TStructure) -> bool:
    dims = homology_dims(x)
    return all(
        all(d == 0 for d in dims[k]) for k in dims if k != t.n
    )


class _Cut:
    """The cut of complex x at degree n, each piece computed on first use:
    the cycles Z_n with their inclusion, X_n / Z_n with its projection and
    sections, and both truncations, built by the checking constructors."""

    def __init__(self, x: Complex, n: int):
        self.x, self.n = x, n

    @cached_property
    def kernel(self) -> tuple[QuiverRep, RepMap]:
        return rep_kernel(self.x.diff(self.n))

    @cached_property
    def quotient(self) -> tuple[QuiverRep, RepMap, tuple[Mat, ...]]:
        return quotient_rep(self.x.term(self.n), self.kernel[1].components)

    @cached_property
    def ge(self) -> tuple[Complex, ChainMap]:
        x, n = self.x, self.n
        if x.is_zero() or x.hi < n:
            z = zero_complex(x.quiver, x.field)
            return z, zero_map(z, x)
        ker, inc = self.kernel
        terms = [ker] + [x.term(k) for k in range(n + 1, x.hi + 1)]
        diffs = []
        if x.hi > n:
            broken = "boundaries are not cycles; d-squared broken"
            comps = _cycle_coords(inc, x.diff(n + 1).components, broken)
            diffs.append(RepMap(x.term(n + 1), ker, comps))
            diffs.extend(x.diff(k) for k in range(n + 2, x.hi + 1))
        sub = Complex(x.quiver, x.field, n, tuple(terms), tuple(diffs))
        iota_comps = {k: RepMap.identity(x.term(k)) for k in range(n + 1, x.hi + 1)}
        return sub, ChainMap(sub, x, {n: inc, **iota_comps})

    @cached_property
    def lt(self) -> tuple[Complex, ChainMap]:
        x, n = self.x, self.n
        if x.is_zero() or x.lo > n:
            z = zero_complex(x.quiver, x.field)
            return z, zero_map(x, z)
        quo, proj, sects = self.quotient
        terms = [x.term(k) for k in range(x.lo, n)] + [quo]
        diffs = [x.diff(k) for k in range(x.lo + 1, n)]
        if n > x.lo:
            comps = tuple(d @ s for d, s in zip(x.diff(n).components, sects))
            diffs.append(RepMap(quo, x.term(n - 1), comps))
        quot = Complex(x.quiver, x.field, x.lo, tuple(terms), tuple(diffs))
        pi_comps = {k: RepMap.identity(x.term(k)) for k in range(x.lo, n)}
        return quot, ChainMap(x, quot, {n: proj, **pi_comps})


def _cycle_coords(inc: RepMap, mats, broken: str) -> tuple[Mat, ...]:
    """Vertexwise coordinates of the columns of mats in the cycle basis inc."""
    coords = tuple(kernel_coords(k, m) for k, m in zip(inc.components, mats))
    if any(c is None for c in coords):
        raise AssertionError(broken)
    return coords


def _cut(x: Complex, n: int) -> _Cut:
    """The cut of x at n, one record per complex object and degree."""
    memo = x._cut_memo()
    return memo[n] if n in memo else memo.setdefault(n, _Cut(x, n))


def truncate_ge(x: Complex, t: TStructure) -> tuple[Complex, ChainMap]:
    """The subcomplex: cycles at the cut degree, everything above, 0 below.

    Returns the truncation and its strict inclusion.
    """
    return _cut(x, t.n).ge


def truncate_lt(x: Complex, t: TStructure) -> tuple[Complex, ChainMap]:
    """The quotient by truncate_ge: degrees below the cut, the quotient by
    cycles at the cut, nothing above.  Returns it with its strict projection.
    """
    return _cut(x, t.n).lt


def truncate_map_ge(f: ChainMap, t: TStructure) -> ChainMap:
    n = t.n
    sub_x, _ = truncate_ge(f.source, t)
    sub_y, _ = truncate_ge(f.target, t)
    comps = {k: f.comp(k) for k in sub_x.support if k > n}
    if n in sub_x.support and not sub_x.term(n).is_zero():
        kx = _cut(f.source, n).kernel[1]
        ky = _cut(f.target, n).kernel[1]
        carried = [c @ k for c, k in zip(f.comp(n).components, kx.components)]
        parts = _cycle_coords(ky, carried, "chain map does not preserve cycles")
        comps[n] = RepMap(sub_x.term(n), sub_y.term(n), parts)
    return ChainMap(sub_x, sub_y, comps)


def truncate_map_lt(f: ChainMap, t: TStructure) -> ChainMap:
    n = t.n
    quo_x, _ = truncate_lt(f.source, t)
    quo_y, _ = truncate_lt(f.target, t)
    comps = {k: f.comp(k) for k in quo_x.support if k < n}
    if n in quo_x.support and not quo_x.term(n).is_zero():
        sects_x = _cut(f.source, n).quotient[2]
        proj_y = _cut(f.target, n).quotient[1]
        parts = tuple(
            proj_y.components[v] @ f.comp(n).components[v] @ sects_x[v]
            for v in range(len(f.source.quiver.vertices))
        )
        comps[n] = RepMap(quo_x.term(n), quo_y.term(n), parts)
    return ChainMap(quo_x, quo_y, comps)


def lt_restriction(x: Complex, t_lo: TStructure, t_hi: TStructure) -> ChainMap:
    """The strict surjection from the wider lower truncation to the narrower."""
    if t_hi.n < t_lo.n:
        raise ValueError("restriction runs from the higher cut to the lower")
    wide, _ = truncate_lt(x, t_hi)
    narrow, pi_n = truncate_lt(x, t_lo)
    if t_hi.n == t_lo.n:
        return identity_map(wide)
    # the narrow support lies below the higher cut, where wide is x itself
    return ChainMap(wide, narrow, pi_n.comps)


def truncation_square(x: Complex, t: TStructure) -> CommutingSquare:
    """The strict fiber-sequence square: subcomplex over zero against the
    quotient projection.  Its pullout property is the cut's third axiom."""
    sub, iota = truncate_ge(x, t)
    quo, pi = truncate_lt(x, t)
    zc = zero_complex(x.quiver, x.field)
    return CommutingSquare.strict(iota, zero_map(sub, zc), pi, zero_map(zc, quo))


# -- the abelian layer ----------------------------------------------------------


@dataclass(frozen=True)
class HeartMorphism:
    """A chain map between objects with homology concentrated at the cut."""

    map: ChainMap
    t: TStructure

    def __post_init__(self):
        if not heart_contains(self.map.source, self.t):
            raise ValueError("source homology is not concentrated at the cut")
        if not heart_contains(self.map.target, self.t):
            raise ValueError("target homology is not concentrated at the cut")

    @property
    def source(self) -> Complex:
        return self.map.source

    @property
    def target(self) -> Complex:
        return self.map.target


def heart_kernel(f: HeartMorphism) -> HeartMorphism:
    """The upper truncation of the fiber, as a mono into the source."""
    fibration = fib(f.map)
    ker, iota = truncate_ge(fibration.complex, f.t)
    return HeartMorphism(compose(fibration.to_source, iota), f.t)


def heart_cokernel(f: HeartMorphism) -> HeartMorphism:
    """The lower truncation of the cofiber, as an epi out of the target."""
    cofibration = cofib(f.map)
    _, pi = truncate_lt(cofibration.complex, f.t.shifted(1))
    return HeartMorphism(compose(pi, cofibration.from_target), f.t)


def heart_image(f: HeartMorphism) -> HeartMorphism:
    """Kernel of the cokernel: a mono into the target."""
    return heart_kernel(heart_cokernel(f))


def heart_coimage(f: HeartMorphism) -> HeartMorphism:
    """Cokernel of the kernel: an epi out of the source."""
    return heart_cokernel(heart_kernel(f))


def heart_comparison(f: HeartMorphism) -> tuple[ChainMap, Homotopy]:
    """The first-isomorphism comparison u from coimage to image.

    u is the deterministic solution of: u a chain map with
    (image mono) . u . (coimage epi) homotopic to f.  Up to homotopy there is
    exactly one such u, so the certificate is canonical.
    """
    epi = heart_coimage(f)
    mono = heart_image(f)
    x = f.source
    y = f.target
    coim = epi.target
    img = mono.source
    fld = x.field
    u_bases, u_equations = chain_map_constraints(coim, img)
    h_bases = _hom_bases_for_homotopy(x, y, 1)
    unknowns = [(("u", k), b.cols) for k, b in sorted(u_bases.items())] + [
        (("h", k), b.cols) for k, b in sorted(h_bases.items())
    ]
    equations = [(r, c, np.zeros(r, dtype=np.int64)) for r, c in u_equations]
    for k in sorted(set(x.support) | set(f.map.comps)):
        rowdim = flat_dim(x.term(k), y.term(k))
        if rowdim == 0:
            continue
        coefs = []
        if k in u_bases:
            through = post_op(
                mono.map.comp(k), x.term(k), pre_op(epi.map.comp(k), img.term(k), u_bases[k].a)
            )
            coefs.append((("u", k), through))
        if k in h_bases:
            post = post_op(y.diff(k + 1), x.term(k), h_bases[k].a)
            coefs.append((("h", k), (-post) % fld.p))
        if k - 1 in h_bases:
            pre = pre_op(x.diff(k), y.term(k), h_bases[k - 1].a)
            coefs.append((("h", k - 1), (-pre) % fld.p))
        equations.append((rowdim, coefs, f.map.comp(k).flat()))
    got = solve_block_system(fld, unknowns, equations)
    if got is None:
        raise AssertionError("first-isomorphism comparison has no solution")
    assign, _ = got
    u_coords = {k: assign[("u", k)] for k in u_bases}
    h_coords = {k: assign[("h", k)] for k in h_bases}
    u = ChainMap(coim, img, _graded_maps(coim, img, 0, u_bases, u_coords))
    h_comps = _graded_maps(x, y, 1, h_bases, h_coords)
    wit = Homotopy(f.map, compose(mono.map, compose(u, epi.map)), h_comps)
    return u, wit


def random_heart_object(quiver, field, t: TStructure, rng) -> Complex:
    """A two-term complex with homology concentrated at the cut."""
    x = random_complex(quiver, field, rng, max_dim=3, lo=t.n - 1, hi=t.n + 1)
    upper, _ = truncate_ge(x, t)
    heart, _ = truncate_lt(upper, t.shifted(1))
    return heart


def random_heart_morphism(quiver, field, t: TStructure, rng) -> HeartMorphism:
    a = random_heart_object(quiver, field, t, rng)
    b = random_heart_object(quiver, field, t, rng)
    return HeartMorphism(random_chain_map(a, b, rng), t)
