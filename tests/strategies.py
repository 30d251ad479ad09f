"""Shared hypothesis strategies.

Structured objects (representations, complexes, chain maps) are drawn by
handing a hypothesis-chosen seed to the library's own seeded generators, so
shrinking works on the seed and generation logic lives in one place.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from torsionlab.complexes import (
    ChainMap,
    HomComplex,
    hom_transport,
    random_chain_map,
    random_complex,
)
from torsionlab.linalg import Mat, PrimeField
from torsionlab.quiver import (
    Quiver,
    QuiverRep,
    RepMap,
    flat_dim,
    graded_from_flat,
    random_rep,
    rep_hom_basis_flat,
)

PRIMES = (2, 3, 5)


@st.composite
def fields(draw):
    return PrimeField(draw(st.sampled_from(PRIMES)))


@st.composite
def quivers(draw):
    return draw(st.sampled_from((Quiver.point(), Quiver.a2())))


@st.composite
def matrices(draw, max_dim=4):
    field = draw(fields())
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = draw(
        st.lists(st.integers(0, field.p - 1), min_size=rows * cols, max_size=rows * cols)
    )
    return Mat(field, np.asarray(entries, dtype=np.int64).reshape(rows, cols))


@st.composite
def reps(draw, max_dim=3):
    quiver = draw(quivers())
    field = draw(fields())
    seed = draw(st.integers(0, 2**32 - 1))
    return random_rep(quiver, field, max_dim, np.random.default_rng(seed))


@st.composite
def complexes(draw, max_dim=3, lo=-2, hi=2):
    quiver = draw(quivers())
    field = draw(fields())
    seed = draw(st.integers(0, 2**32 - 1))
    return random_complex(quiver, field, np.random.default_rng(seed), max_dim=max_dim, lo=lo, hi=hi)


@st.composite
def chain_maps(draw, max_dim=3, lo=-2, hi=2):
    quiver = draw(quivers())
    field = draw(fields())
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = random_complex(quiver, field, rng, max_dim=max_dim, lo=lo, hi=hi)
    y = random_complex(quiver, field, rng, max_dim=max_dim, lo=lo, hi=hi)
    return random_chain_map(x, y, rng)


def random_rep_map(a: QuiverRep, b: QuiverRep, rng: np.random.Generator) -> RepMap:
    """Uniform draw from the intertwiner space Hom(a, b); when no equation
    constrains it (no basis), every flat map of flat_dim(a, b) intertwines."""
    basis = rep_hom_basis_flat(a, b)
    coeffs = rng.integers(0, a.field.p, size=(flat_dim(a, b) if basis is None else basis.cols, 1))
    vec = coeffs if basis is None else (basis.a @ coeffs) % a.field.p
    return RepMap(a, b, graded_from_flat(a, b, vec.reshape(-1)))


def transport_map(src: HomComplex, dst: HomComplex, pre=None, post=None) -> ChainMap:
    """The checked chain map src.complex -> dst.complex whose degree-n
    component is hom_transport(src, dst, n, pre, post)."""
    a, b = src.complex, dst.complex
    comps = {
        n: RepMap(a.term(n), b.term(n), (hom_transport(src, dst, n, pre, post),))
        for n in set(a.support) | set(b.support)
    }
    return ChainMap(a, b, comps)
