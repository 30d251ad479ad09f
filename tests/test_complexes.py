"""Complexes: conventions pinned by hand, then properties.

The brute-force helpers at the top enumerate literal maps over small fields;
they are the oracle for the mapping-complex homology and never call the code
paths they check.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import torsionlab.complexes as complexes_module
from tests.strategies import chain_maps, complexes, random_rep_map, transport_map
from torsionlab.complexes import (
    ChainMap,
    CommutingSquare,
    Complex,
    GradedSum,
    Homotopy,
    _graded_sum,
    block_components,
    chain_map_basis,
    compose,
    cone,
    cone_homology_dims,
    direct_sum_complex,
    fib,
    hom_complex,
    hom_postcompose,
    hom_precompose,
    homology,
    homology_data,
    homology_dims,
    homotopic,
    homotopy_pullback,
    homotopy_pushout,
    identity_map,
    induced_homology_map,
    is_cartesian,
    is_cocartesian,
    is_pullout,
    is_quasi_iso,
    random_chain_map,
    random_complex,
    shift,
    zero_complex,
    zero_map,
)
from torsionlab.factorization import is_orthogonal
from torsionlab.linalg import Mat, PrimeField, rank
from torsionlab.postnikov import BoundWindow, _certify, boundedness_window
from torsionlab.quiver import Quiver, QuiverRep, RepMap

F2 = PrimeField(2)
F3 = PrimeField(3)
PT = Quiver.point()


def _pt_complex(field, lo, dims, diff_entries):
    """Point-quiver complex from dimension list and differential matrices."""
    terms = tuple(QuiverRep(PT, field, (d,), ()) for d in dims)
    diffs = tuple(
        RepMap(terms[i + 1], terms[i], (Mat(field, np.asarray(m, dtype=np.int64)),))
        for i, m in enumerate(diff_entries)
    )
    return Complex(PT, field, lo, terms, diffs)


def _simple(field, deg=0):
    """The field placed in a single degree."""
    return _pt_complex(field, deg, [1], [])


# -- brute-force oracles -------------------------------------------------------


def _all_graded(x, y, step, p):
    """All degreewise maps X_n -> Y_{n+step} on the point quiver, as dicts."""
    degs = [n for n in x.support if not y.term(n + step).is_zero()]
    shapes = [(y.term(n + step).dims[0], x.term(n).dims[0]) for n in degs]
    counts = [r * c for r, c in shapes]
    for flat in itertools.product(range(p), repeat=sum(counts)):
        out = {}
        off = 0
        for n, (r, c), k in zip(degs, shapes, counts):
            out[n] = np.asarray(flat[off : off + k], dtype=np.int64).reshape(r, c)
            off += k
        yield out


def _enumerate_chain_maps(x, y, shift_by, p):
    """Literal enumeration of chain maps X[shift_by] -> Y on the point quiver."""
    sx = shift(x, shift_by)
    found = []
    for comps in _all_graded(sx, y, 0, p):
        ok = True
        degs = range(min(sx.lo, y.lo) - 1, max(sx.hi, y.hi) + 2)
        for n in degs:
            f_n = comps.get(n)
            f_prev = comps.get(n - 1)
            d_y = y.diff(n).components[0].a
            d_x = sx.diff(n).components[0].a
            lhs = d_y @ f_n if f_n is not None else np.zeros((y.term(n - 1).dims[0], sx.term(n).dims[0]), dtype=np.int64)
            rhs = f_prev @ d_x if f_prev is not None else np.zeros_like(lhs)
            if ((lhs - rhs) % p != 0).any():
                ok = False
                break
        if ok:
            found.append(comps)
    return found


def _key(comps, p):
    return tuple(sorted((n, tuple(m.reshape(-1) % p)) for n, m in comps.items() if m.size))


def _enumerate_homotopy_classes(x, y, shift_by, p):
    """Number of chain maps X[shift_by] -> Y up to literal homotopy."""
    sx = shift(x, shift_by)
    maps = _enumerate_chain_maps(x, y, shift_by, p)
    boundaries = set()
    for h in _all_graded(sx, y, 1, p):
        comps = {}
        for n in sx.support:
            if y.term(n).is_zero():
                continue
            acc = np.zeros((y.term(n).dims[0], sx.term(n).dims[0]), dtype=np.int64)
            if n in h:
                acc = acc + y.diff(n + 1).components[0].a @ h[n]
            if n - 1 in h:
                acc = acc + h[n - 1] @ sx.diff(n).components[0].a
            comps[n] = acc % p
        boundaries.add(_key(comps, p))
    assert len(maps) % len(boundaries) == 0
    return len(maps) // len(boundaries)


# -- homology ------------------------------------------------------------------


def test_two_term_homology_frozen():
    # F2^2 --[[1,0],[0,0]]--> F2^2 in degrees 1, 0
    x = _pt_complex(F2, 0, [2, 2], [[[1, 0], [0, 0]]])
    assert homology_dims(x) == {0: (1,), 1: (1,)}
    assert homology(x, 0).dims == (1,)
    assert homology(x, 1).dims == (1,)
    assert homology(x, 5).dims == (0,)


def test_homology_data_representatives_are_cycles():
    x = _pt_complex(F3, -1, [2, 3, 1], [[[1, 2, 0], [0, 0, 0]], [[2], [2], [1]]])
    for n in x.support:
        data = homology_data(x, n)
        reps = data.reps[0]
        carried = x.diff(n).components[0] @ reps
        assert carried.is_zero()
        # class_of inverts the representatives
        back = data.class_of(0, reps)
        assert back == Mat.identity(F3, data.rep.dims[0])


@given(complexes())
def test_homology_dims_agree_with_explicit_quotient(x):
    dims = homology_dims(x)
    for n in x.support:
        assert homology(x, n).dims == dims[n]


@given(complexes(max_dim=2, lo=-1, hi=1))
def test_induced_map_functorial(x):
    ident = identity_map(x)
    for n in x.support:
        h = induced_homology_map(ident, n)
        assert h == RepMap.identity(h.source)


@given(chain_maps(max_dim=2, lo=-1, hi=1), st.integers(0, 2**32 - 1))
def test_induced_map_respects_composition(f, seed):
    rng = np.random.default_rng(seed)
    z = random_complex(f.target.quiver, f.target.field, rng, max_dim=2, lo=-1, hi=1)
    g = random_chain_map(f.target, z, rng)
    gf = compose(g, f)
    for n in set(f.source.support) | set(z.support):
        lhs = induced_homology_map(gf, n)
        rhs = induced_homology_map(g, n).compose(induced_homology_map(f, n))
        assert lhs == rhs


# -- shift ---------------------------------------------------------------------


def test_shift_relabels_and_negates():
    x = _pt_complex(F3, 0, [1, 1], [[[1]]])
    y = shift(x, 1)
    assert y.lo == 1
    assert y.term(1) == x.term(0)
    assert y.diff(2).components[0].a[0, 0] == 2  # -1 mod 3
    assert shift(y, -1) == x


def test_shift_round_trip_and_double():
    x = _pt_complex(F3, -1, [2, 2, 1], [[[1, 0], [0, 0]], [[0], [2]]])
    assert shift(shift(x, 3), -3) == x
    assert shift(x, 2).diffs == x.diffs  # even shifts keep signs


@given(complexes(), st.integers(-3, 3))
def test_shift_moves_homology(x, k):
    hx = homology_dims(x)
    hy = homology_dims(shift(x, k))
    assert hy == {n + k: d for n, d in hx.items()}


# -- cones, fibers, triangles ----------------------------------------------------


def test_cone_of_identity_is_acyclic():
    x = _pt_complex(F2, 0, [2, 1], [[[1], [0]]])
    assert not any(any(d) for d in homology_dims(cone(identity_map(x)).complex).values())


def test_cone_of_map_from_zero_is_target():
    y = _pt_complex(F2, 0, [2, 1], [[[1], [0]]])
    c = cone(zero_map(zero_complex(PT, F2), y))
    assert c.complex == y


def test_fib_is_shifted_cone():
    f = _rand_map(7)
    assert fib(f).complex == shift(cone(f).complex, -1)


def _rand_map(seed, quiver=PT, field=F2, max_dim=3):
    rng = np.random.default_rng(seed)
    x = random_complex(quiver, field, rng, max_dim=max_dim)
    y = random_complex(quiver, field, rng, max_dim=max_dim)
    return random_chain_map(x, y, rng)


def test_cone_of_into_recovers_shifted_source():
    f = _rand_map(11)
    c = cone(f)
    c2 = cone(c.into)  # parts (Y, 1), (cone f, 0)
    target = shift(f.source, 1)
    comps = block_components(c2.blocks, target, 0, {(0, 1): (1, c.outof.comps)})
    collapse = ChainMap(c2.complex, target, comps)
    assert is_quasi_iso(collapse)


@given(chain_maps(max_dim=2, lo=-1, hi=1))
def test_cone_homology_bookkeeping(f):
    # dim H_n(cone f) = dim coker H_n(f) + dim ker H_{n-1}(f), vertexwise
    c = cone(f).complex
    hc = homology_dims(c)
    degs = set(hc) | set(homology_dims(f.source)) | set(homology_dims(f.target))
    for n in degs:
        hn = induced_homology_map(f, n)
        hn1 = induced_homology_map(f, n - 1)
        for v in range(len(f.source.quiver.vertices)):
            coker = hn.target.dims[v] - rank(hn.components[v])
            ker = hn1.source.dims[v] - rank(hn1.components[v])
            got = hc.get(n, tuple(0 for _ in f.source.quiver.vertices))[v]
            assert got == coker + ker


@given(chain_maps(max_dim=2, lo=-1, hi=1))
def test_quasi_iso_matches_induced_iso(f):
    byn = {}
    for n in set(f.source.support) | set(f.target.support):
        h = induced_homology_map(f, n)
        byn[n] = all(
            h.source.dims[v] == h.target.dims[v] == rank(h.components[v])
            for v in range(len(f.source.quiver.vertices))
        )
    assert is_quasi_iso(f) == all(byn.values())


# -- mapping complexes -----------------------------------------------------------


def test_hom_of_simples_concentrated_on_the_shift():
    s = _simple(F2)
    for k in range(-2, 3):
        h = hom_complex(s, shift(s, k))
        dims = homology_dims(h.complex)
        for n in range(-3, 4):
            want = 1 if n == k else 0
            assert dims.get(n, (0,))[0] == want


def test_hom_complex_against_literal_enumeration():
    pairs = [
        (_pt_complex(F2, 0, [1, 1], [[[1]]]), _simple(F2)),
        (_pt_complex(F2, 0, [1, 1], [[[1]]]), _pt_complex(F2, 0, [1, 1], [[[0]]])),
        (_pt_complex(F2, 0, [1, 1], [[[0]]]), _pt_complex(F2, 0, [1, 1], [[[0]]])),
        (_pt_complex(F2, 0, [2, 1], [[[1], [0]]]), _pt_complex(F2, -1, [1, 1], [[[1]]])),
    ]
    for x, y in pairs:
        h = hom_complex(x, y)
        dims = homology_dims(h.complex)
        for n in (-1, 0, 1):
            classes = _enumerate_homotopy_classes(x, y, n, 2)
            assert 2 ** dims.get(n, (0,))[0] == classes


def test_hom_zero_cycles_are_chain_maps():
    x = _pt_complex(F2, 0, [1, 1], [[[0]]])
    h = hom_complex(x, x)
    from torsionlab.linalg import kernel_basis

    cyc = kernel_basis(h.complex.diff(0).components[0])
    assert cyc.cols == len(chain_map_basis(x, x))
    for j in range(cyc.cols):
        f = h.cycle_to_chain_map(0, cyc.a[:, j])
        assert f.source == x and f.target == x


def test_hom_complex_checks_the_d_squared_law():
    """Each hom differential D_n is built without the dense d² product; its
    own graded-map check must still reject inputs whose d² is not zero,
    when the whole complex is assembled and when a solver reads D_1 alone."""
    ones = [[[1]], [[1]]]
    with pytest.raises(ValueError, match="d-squared law fails"):
        _pt_complex(F2, 0, [1, 1, 1], ones)
    c = _pt_complex(F2, 0, [1, 1, 1], [[[1]], [[0]]])
    bad = Complex._unchecked(PT, F2, 0, c.terms, (c.diffs[0], c.diffs[0]))
    for x, y in ((bad, _simple(F2)), (_simple(F2), bad)):
        with pytest.raises(ValueError, match="d-squared law fails"):
            hom_complex(x, y).complex
    # D_1 of Hom(bad, S[1]) and Hom(S[1], bad) meets d² through degree -1
    for x, y in ((bad, _simple(F2, 1)), (_simple(F2, 1), bad)):
        with pytest.raises(ValueError, match="d-squared law fails"):
            homotopic(zero_map(x, y), zero_map(x, y))


KRONECKER = Quiver(("a", "b"), (("a", "b"), ("a", "b")))


@given(
    st.sampled_from((PT, Quiver.a2(), KRONECKER)),
    st.sampled_from((2, 3, 5)),
    st.integers(0, 2**32 - 1),
)
def test_hom_complex_differentials_square_to_zero(quiver, p, seed):
    rng = np.random.default_rng(seed)
    x, y = (random_complex(quiver, PrimeField(p), rng, max_dim=3, lo=-2, hi=2) for _ in "xy")
    diffs = [d.components[0].a for d in hom_complex(x, y).complex.diffs]
    for lower, upper in zip(diffs, diffs[1:]):
        assert not (lower @ upper % p).any()


@given(complexes(max_dim=2, lo=-1, hi=1))
def test_hom_from_unit_recovers_the_complex(x):
    if x.quiver != PT:
        return
    s = _simple(x.field)
    h = hom_complex(s, x)
    assert homology_dims(h.complex) == homology_dims(x)


# -- homotopies ------------------------------------------------------------------


def _random_graded(x, y, rng):
    comps = {}
    for n in x.support:
        if y.term(n + 1).is_zero():
            continue
        comps[n] = random_rep_map(x.term(n), y.term(n + 1), rng)
    return comps


def _boundary(x, y, h):
    """The null-homotopic chain map d h + h d for graded h_n : X_n -> Y_{n+1}."""
    comps = {}
    for n in x.support:
        acc = RepMap.zero(x.term(n), y.term(n))
        if n in h:
            acc = acc + y.diff(n + 1).compose(h[n])
        if n - 1 in h:
            acc = acc + h[n - 1].compose(x.diff(n))
        comps[n] = acc
    return ChainMap(x, y, comps)


def _pt_map(field, x, y, entries):
    """Point-quiver chain map from {degree: matrix entries}; checked."""
    comps = {
        n: RepMap(x.term(n), y.term(n), (Mat(field, np.asarray(m, dtype=np.int64)),))
        for n, m in entries.items()
    }
    return ChainMap(x, y, comps)


def test_chain_map_law_enforced():
    # F3 --1--> F3 in degrees 1, 0, mapped to itself
    x = _pt_complex(F3, 0, [1, 1], [[[1]]])
    assert _pt_map(F3, x, x, {0: [[2]], 1: [[2]]}) == -identity_map(x)
    for entries in (
        {1: [[1]]},  # degree 0 absent: only the left side is nonzero
        {0: [[1]]},  # degree 1 absent: only the right side is nonzero
        {0: [[1]], 1: [[2]]},
    ):
        with pytest.raises(ValueError, match="chain-map law fails at degree 1"):
            _pt_map(F3, x, x, entries)


def test_homotopy_law_enforced():
    # h : X_0 -> Y_1 with X = F3 in degree 0 and Y = F3 --1--> F3 in degrees 1, 0
    x = _simple(F3)
    y = _pt_complex(F3, 0, [1, 1], [[[1]]])
    zero, f = zero_map(x, y), _pt_map(F3, x, y, {0: [[1]]})
    wit = Homotopy(zero, f, {0: RepMap(x.term(0), y.term(1), (Mat(F3, [[1]]),))})
    assert wit.comp(0).components[0] == Mat(F3, [[1]])
    for from_map, to_map, h in ((zero, f, [[2]]), (zero, f, None), (zero, zero, [[1]])):
        comps = {}
        if h is not None:
            comps[0] = RepMap(x.term(0), y.term(1), (Mat(F3, h),))
        with pytest.raises(ValueError, match="homotopy law fails at degree 0"):
            Homotopy(from_map, to_map, comps)


def test_homotopy_law_check_builds_no_zero_maps(monkeypatch):
    # absent components and differentials count as zero without being built
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(10):
        f = _rand_map(int(rng.integers(0, 2**31)), quiver=Quiver.a2())
        x, y = f.source, f.target
        h = {n: c for n, c in _random_graded(x, y, rng).items() if not c.is_zero()}
        cases.append((f, f + _boundary(x, y, h), h))
    built = []
    zero = RepMap.zero.__func__

    def counted_zero(cls, source, target):
        built.append((source, target))
        return zero(cls, source, target)

    monkeypatch.setattr(RepMap, "zero", classmethod(counted_zero))
    for f, g, h in cases:
        assert Homotopy(f, g, h).comps.keys() == h.keys()
    assert built == []


def test_homotopic_detects_boundary_perturbation():
    rng = np.random.default_rng(40)
    for _ in range(10):
        f = _rand_map(int(rng.integers(0, 2**31)), quiver=Quiver.a2())
        x, y = f.source, f.target
        g = f + _boundary(x, y, _random_graded(x, y, rng))
        wit = homotopic(f, g)
        assert wit is not None
        assert wit.from_map == g and wit.to_map == f


def test_homotopic_rejects_homologically_distinct_maps():
    x = _simple(F2)
    assert homotopic(identity_map(x), zero_map(x, x)) is None


# -- squares ---------------------------------------------------------------------


def test_pullback_of_zero_legs_is_loop():
    z = _pt_complex(F2, 0, [2, 1], [[[1], [0]]])
    zc = zero_complex(PT, F2)
    pb = homotopy_pullback(zero_map(zc, z), zero_map(zc, z))
    assert pb.complex == shift(z, -1)


def test_pushout_of_zero_legs_is_suspension():
    w = _pt_complex(F2, 0, [2, 1], [[[1], [0]]])
    zc = zero_complex(PT, F2)
    po = homotopy_pushout(zero_map(w, zc), zero_map(w, zc))
    assert po.complex == shift(w, 1)


def _fiber_square(f):
    fb = fib(f)
    zc = zero_complex(f.source.quiver, f.source.field)
    return CommutingSquare(
        fb.to_source,
        zero_map(fb.complex, zc),
        f,
        zero_map(zc, f.target),
        fb.null_wit,
    )


def test_fiber_square_is_pullout():
    for seed in (1, 2, 9):
        f = _rand_map(seed, quiver=Quiver.a2(), max_dim=2)
        sq = _fiber_square(f)
        assert is_pullout(sq)
        assert is_cartesian(sq)
        assert is_cocartesian(sq)


def test_degenerate_non_pullouts():
    s = _simple(F2)
    zc = zero_complex(PT, F2)
    z0 = zero_map(zc, zc)
    sq = CommutingSquare(
        z0, z0, zero_map(zc, s), zero_map(zc, s), Homotopy(zero_map(zc, s), zero_map(zc, s), {})
    )
    assert not is_pullout(sq)
    assert not is_cartesian(sq)
    assert not is_cocartesian(sq)


def test_pullback_and_pushout_squares_are_pullouts():
    rng = np.random.default_rng(5)
    # odd p as well: over F2 every sign convention looks the same
    for fld in (F2, F3) * 3:
        quiver = Quiver.a2()
        x = random_complex(quiver, fld, rng, max_dim=2, lo=-1, hi=1)
        y = random_complex(quiver, fld, rng, max_dim=2, lo=-1, hi=1)
        z = random_complex(quiver, fld, rng, max_dim=2, lo=-1, hi=1)
        f = random_chain_map(x, z, rng)
        g = random_chain_map(y, z, rng)
        assert is_pullout(homotopy_pullback(f, g).square)
        h = random_chain_map(z, x, rng)
        k = random_chain_map(z, y, rng)
        assert is_pullout(homotopy_pushout(h, k).square)


# -- generators -------------------------------------------------------------------


@given(complexes())
def test_random_complex_total_dim_bounded(x):
    assert all(sum(x.term(n).dims) <= 3 * len(x.quiver.vertices) for n in x.support)


def test_random_complex_hits_varied_supports():
    rng = np.random.default_rng(0)
    los = set()
    for _ in range(200):
        x = random_complex(PT, F2, rng, max_dim=2)
        if not x.is_zero():
            los.add(x.lo)
    assert len(los) >= 3


def test_graded_sum_offsets_and_biproduct_laws():
    f = _rand_map(31, quiver=Quiver.a2(), field=F3)
    x, y = f.source, f.target
    s = direct_sum_complex(x, y)
    for n in s.complex.support:
        assert s.offsets[n] == ((0, 0), x.term(n).dims)
    incs, projs = (s.inclusion(0), s.inclusion(1)), (s.projection(0), s.projection(1))
    assert compose(projs[0], incs[0]) == identity_map(x)
    assert compose(projs[1], incs[1]) == identity_map(y)
    assert compose(projs[0], incs[1]).is_zero() and compose(projs[1], incs[0]).is_zero()
    both = compose(incs[0], projs[0]) + compose(incs[1], projs[1])
    table = {(0, 0): (1, identity_map(x).comps), (1, 1): (1, identity_map(y).comps)}
    assert both == identity_map(s.complex)
    assert ChainMap(s.complex, s.complex, block_components(s, s, 0, table)) == both


def test_pullback_is_the_fiber_of_the_difference_map():
    # nested sums concatenate their parts: fib(X (+) Y -> Z) has parts X, Y, Z[-1]
    rng = np.random.default_rng(8)
    x, y, z = (random_complex(Quiver.a2(), F3, rng, max_dim=2) for _ in range(3))
    f, g = random_chain_map(x, z, rng), random_chain_map(y, z, rng)
    pb = homotopy_pullback(f, g)
    assert pb.blocks.parts == ((x, 0), (y, 0), (z, -1))
    s = direct_sum_complex(x, y)
    diff = compose(f, s.projection(0)) - compose(g, s.projection(1))
    assert pb.complex == fib(diff).complex


def test_direct_sum_projection_is_quasi_iso_off_acyclic():
    x = _pt_complex(F2, 0, [2, 1], [[[1], [0]]])
    a = cone(identity_map(_pt_complex(F2, 0, [1], []))).complex
    s = direct_sum_complex(x, a)
    assert is_quasi_iso(s.projection(0))
    assert is_quasi_iso(s.inclusion(0))
    assert not is_quasi_iso(s.inclusion(1))


# -- the trusted graded sum: its law is checked on the blocks ----------------------


def test_graded_sum_rejects_a_twist_between_the_wrong_parts():
    f = _rand_map(41, quiver=Quiver.a2(), field=F3)
    x, y = f.source, f.target
    other = cone(identity_map(_pt_complex(F3, 0, [1], []))).complex
    with pytest.raises(ValueError, match="does not run from part 0 to part 1"):
        _graded_sum([(y, 1), (x, 0)], {(1, 0): (1, f)})
    with pytest.raises(ValueError, match="does not run from part 0 to part 1"):
        _graded_sum([(x, 1), (other, 0)], {(1, 0): (1, f)})


def test_graded_sum_rejects_a_twist_that_does_not_lower_the_degree():
    f = _rand_map(42, quiver=Quiver.a2(), field=F3)
    for k_x, k_y in ((0, 0), (2, 0), (0, 1)):
        with pytest.raises(ValueError, match="does not lower the degree"):
            _graded_sum([(f.source, k_x), (f.target, k_y)], {(1, 0): (1, f)})


def test_graded_sum_rejects_twists_that_compose():
    rng = np.random.default_rng(43)
    x, y, z = (random_complex(Quiver.a2(), F3, rng, max_dim=2) for _ in "xyz")
    f, g = random_chain_map(x, y, rng), random_chain_map(y, z, rng)
    with pytest.raises(ValueError, match="two twists compose"):
        _graded_sum([(x, 2), (y, 1), (z, 0)], {(1, 0): (1, f), (2, 1): (1, g)})
    # two twists out of one part, or into one part, do not compose
    _graded_sum([(x, 1), (y, 0), (y, 0)], {(1, 0): (1, f), (2, 0): (-1, f)})
    _graded_sum([(x, 1), (x, 1), (y, 0)], {(2, 0): (1, f), (2, 1): (1, f)})


def test_inclusion_and_projection_refuse_to_cross_a_twist():
    c = cone(_rand_map(44, quiver=Quiver.a2(), field=F3)).blocks
    with pytest.raises(ValueError, match="a twist leaves part 0"):
        c.inclusion(0)
    with pytest.raises(ValueError, match="a twist enters part 1"):
        c.projection(1)


@given(chain_maps(max_dim=2), st.integers(-2, 2))
def test_trusted_sums_pass_the_checks_they_skip(f, k):
    """Every graded sum, shift and biproduct inclusion or projection, built
    without the d² or chain-law check, passes it when rebuilt checked."""
    x, y = f.source, f.target
    sums = [
        _graded_sum([(x, k), (y, 0)]),
        _graded_sum([(x, k + 1), (y, k)], {(1, 0): (1, f)}),
        _graded_sum([(x, k), (y, k - 1)], {(1, 0): (-1, f)}),
        _graded_sum([(x, 1), (y, 0), (y, 0)], {(1, 0): (1, f), (2, 0): (-1, f)}),
    ]
    for s in sums:
        c = s.complex
        assert Complex(c.quiver, c.field, c.lo, c.terms, c.diffs) == c
        for i in range(len(s.parts)):
            if all(src != i for _, src in s.twists):
                g = s.inclusion(i)
                assert ChainMap(g.source, g.target, g.comps) == g
            if all(tgt != i for tgt, _ in s.twists):
                g = s.projection(i)
                assert ChainMap(g.source, g.target, g.comps) == g
    moved = shift(x, k)
    assert Complex(x.quiver, x.field, moved.lo, moved.terms, moved.diffs) == moved


# -- structure maps made on first read ------------------------------------------


def _rechecked_map(g):
    """g rebuilt through the checking constructor."""
    again = ChainMap(g.source, g.target, g.comps)
    assert again == g
    return again


def _rechecked_homotopy(h):
    """h rebuilt through the checking constructors, its ends included."""
    again = Homotopy(_rechecked_map(h.from_map), _rechecked_map(h.to_map), h.comps)
    assert again.comps == h.comps
    return again


def _rechecked_square(sq):
    edges = (sq.top, sq.left, sq.right, sq.bottom)
    return CommutingSquare(*map(_rechecked_map, edges), _rechecked_homotopy(sq.witness))


@given(
    st.sampled_from((PT, Quiver.a2(), KRONECKER)),
    st.sampled_from((2, 3, 5)),
    st.integers(0, 2**32 - 1),
)
def test_structure_maps_made_on_first_read_pass_the_checks_and_are_kept(quiver, p, seed):
    """Every cached map, null-homotopy and witness square of cone, fib and
    the homotopy (co)limits passes the checking constructors when
    rebuilt, and a second read returns the identical object."""
    rng = np.random.default_rng(seed)
    x, y, w = (random_complex(quiver, PrimeField(p), rng, max_dim=2, lo=-1, hi=1) for _ in "xyw")
    f, g, k = random_chain_map(x, y, rng), random_chain_map(w, y, rng), random_chain_map(x, w, rng)
    c, fb = cone(f), fib(f)
    pb, po = homotopy_pullback(f, g), homotopy_pushout(f, k)
    reads = [
        (c, "into", y, c.complex),
        (c, "outof", c.complex, shift(x, 1)),
        (fb, "to_source", fb.complex, x),
        (pb, "proj_first", pb.complex, x),
        (pb, "proj_second", pb.complex, w),
        (po, "inj_first", y, po.complex),
        (po, "inj_second", w, po.complex),
    ]
    for obj, name, source, target in reads:
        got = getattr(obj, name)
        assert getattr(obj, name) is got
        assert got.source == source and got.target == target
        _rechecked_map(got)
    for obj, composite in ((c, compose(c.into, f)), (fb, compose(f, fb.to_source))):
        wit = obj.null_wit
        assert obj.null_wit is wit
        assert wit.from_map.is_zero() and wit.to_map == composite
        _rechecked_homotopy(wit)
    for obj, legs, edges in ((pb, (f, g), ("right", "bottom")), (po, (f, k), ("top", "left"))):
        sq = obj.square
        assert obj.square is sq
        assert all(getattr(sq, edge) is leg for edge, leg in zip(edges, legs))
        _rechecked_square(sq)


def _counted(built, name, method):
    """method, appending name to built on every call."""

    def wrapper(*args, **kwargs):
        built.append(name)
        return method(*args, **kwargs)

    return wrapper


def test_readers_of_the_complex_alone_build_no_structure_maps(monkeypatch):
    """fib(f).complex, is_orthogonal and boundedness_window read only the
    graded sums: no Homotopy is made and no inclusion or projection taken."""
    rng = np.random.default_rng(45)
    cases = []
    for _ in range(6):
        x, y, z = (random_complex(Quiver.a2(), F3, rng, max_dim=2, lo=-1, hi=1) for _ in "xyz")
        cases.append((random_chain_map(x, y, rng), random_chain_map(y, z, rng)))
    built = []
    monkeypatch.setattr(Homotopy, "__init__", _counted(built, "Homotopy", Homotopy.__init__))
    for name in ("inclusion", "projection"):
        monkeypatch.setattr(GradedSum, name, _counted(built, name, getattr(GradedSum, name)))
    for e, m in cases:
        fib(e).complex
        is_orthogonal(e, m)
        boundedness_window(m)
    assert built == []


@given(
    st.sampled_from((PT, Quiver.a2(), KRONECKER)),
    st.sampled_from((2, 3, 5)),
    st.integers(0, 2**32 - 1),
    st.sampled_from(("random", "zero map", "out of zero", "into zero")),
    st.integers(-2, 1),
    st.integers(-2, 1),
)
def test_cone_homology_dims_matches_the_built_cone(quiver, p, seed, kind, x_lo, y_lo):
    """The ranks of the cone's blocks give the built cone's homology, key
    for key, and the fiber window read from them is the built fiber's.
    Independent windows let either end of the cone come from either part,
    and terms drawn zero at the ends trim the supports."""
    rng = np.random.default_rng(seed)
    fld = PrimeField(p)
    x, y = (random_complex(quiver, fld, rng, max_dim=2, lo=lo, hi=lo + 2) for lo in (x_lo, y_lo))
    if kind == "out of zero":
        x = zero_complex(quiver, fld)
    if kind == "into zero":
        y = zero_complex(quiver, fld)
    f = zero_map(x, y) if kind == "zero map" else random_chain_map(x, y, rng)
    assert cone_homology_dims(f) == homology_dims(cone(f).complex)
    fiber = [k for k, dims in homology_dims(fib(f).complex).items() if any(dims)]
    window = BoundWindow(min(fiber), max(fiber) + 1) if fiber else None
    assert boundedness_window(f) == window


def test_quasi_iso_and_fiber_homology_build_no_graded_sum(monkeypatch):
    """is_quasi_iso, boundedness_window and _certify read the cone's ranks
    without assembling a graded sum or a direct-sum representation."""
    rng = np.random.default_rng(47)
    maps = []
    for quiver in (PT, Quiver.a2(), KRONECKER):
        x, y = (random_complex(quiver, F3, rng, max_dim=2, lo=-1, hi=1) for _ in "xy")
        maps += [random_chain_map(x, y, rng), identity_map(x), zero_map(x, y)]
    built = []
    for name in ("_graded_sum", "direct_sum"):
        original = getattr(complexes_module, name)
        monkeypatch.setattr(complexes_module, name, _counted(built, name, original))
    for f in maps:
        is_quasi_iso(f)
        boundedness_window(f)
        _certify(f, 0)
    assert built == []


def test_hom_transports_refuse_the_wrong_mapping_complexes():
    f = _rand_map(46, quiver=Quiver.a2(), field=F3)
    x, y = f.source, f.target
    with pytest.raises(ValueError, match="postcomposition between the wrong"):
        hom_postcompose(hom_complex(x, y), hom_complex(x, y), f, 0)
    with pytest.raises(ValueError, match="precomposition between the wrong"):
        hom_precompose(hom_complex(x, x), hom_complex(x, x), f, 0)
    hxy = hom_complex(x, y)
    for n in (-1, 0, 1):
        post = hom_postcompose(hom_complex(x, x), hxy, f, n)
        pre = hom_precompose(hom_complex(y, y), hxy, f, n)
        assert post.rows == pre.rows == hxy.dim(n)


@given(
    st.sampled_from((PT, Quiver.a2(), KRONECKER)),
    st.sampled_from((2, 3, 5)),
    st.integers(0, 2**32 - 1),
)
def test_hom_transports_commute_with_the_hom_differentials(quiver, p, seed):
    """D_n T_n = T_{n-1} D_n in every degree for both transports, so the
    chain-map check they no longer make would have passed."""
    rng = np.random.default_rng(seed)
    x, y, t = (random_complex(quiver, PrimeField(p), rng, max_dim=2, lo=-2, hi=2) for _ in "xyt")
    f = random_chain_map(x, y, rng)
    pairs = (
        (hom_postcompose, hom_complex(t, x), hom_complex(t, y)),
        (hom_precompose, hom_complex(y, t), hom_complex(x, t)),
    )
    for transport, src, dst in pairs:
        for n in range(-5, 6):
            lhs = dst.diff(n) @ transport(src, dst, f, n)
            assert lhs == transport(src, dst, f, n - 1) @ src.diff(n)
        transport_map(transport, src, dst, f)  # the checking constructor agrees


def test_solvers_build_only_the_degrees_they_read(monkeypatch):
    """homotopic reads D_1 (degrees 1 and 0); chain_map_basis and
    random_chain_map read D_0 (degrees 0 and -1; random_chain_map reads only
    degree 0 when it is zero).  rep_hom_basis_flat runs once per slot of
    those degrees and for no other degree."""
    rng = np.random.default_rng(48)
    pairs = []
    for quiver in (PT, Quiver.a2(), KRONECKER):
        for _ in range(4):
            x, y = (random_complex(quiver, F3, rng, max_dim=2, lo=-2, hi=2) for _ in "xy")
            drawn = (-1,) if hom_complex(x, y).dim(0) else ()
            pairs.append((x, y, random_chain_map(x, y, rng), drawn))

    def slot_count(x, y, degrees):
        return sum(
            not (x.term(i).is_zero() or y.term(i + n).is_zero())
            for n in degrees
            for i in x.support
        )

    built = []
    original = complexes_module.rep_hom_basis_flat
    monkeypatch.setattr(
        complexes_module, "rep_hom_basis_flat", _counted(built, "basis", original)
    )
    for x, y, f, drawn in pairs:
        for run, degrees in (
            (lambda: homotopic(f, f), (1, 0)),
            (lambda: chain_map_basis(x, y), (0, -1)),
            (lambda: random_chain_map(x, y, rng), (0, *drawn)),
        ):
            built.clear()
            run()
            assert len(built) == slot_count(x, y, degrees)
