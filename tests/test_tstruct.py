"""Truncation structure: class membership, strictness claims, heart algebra.

Strictness tests compare complexes and maps for literal equality, not just
up to quasi-isomorphism; the factorization layer relies on that.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.strategies import complexes, transport_map
from torsionlab.complexes import (
    ChainMap,
    Complex,
    cone,
    compose,
    hom_complex,
    homology_dims,
    identity_map,
    induced_homology_map,
    initial_map,
    is_pullout,
    is_quasi_iso,
    random_chain_map,
    random_complex,
    shift,
    terminal_map,
    zero_complex,
    zero_map,
)
from torsionlab.linalg import Mat, PrimeField, rank
from torsionlab.quiver import Quiver, QuiverRep, rep_cokernel, rep_kernel
from torsionlab.suite import resolve_quiver
from torsionlab.tstruct import (
    HeartMorphism,
    TStructure,
    heart_cokernel,
    heart_comparison,
    heart_contains,
    heart_image,
    heart_coimage,
    heart_kernel,
    heart_stalk,
    in_aisle,
    in_coaisle,
    lt_restriction,
    random_heart_morphism,
    random_heart_object,
    truncate_ge,
    truncate_lt,
    truncate_map_ge,
    truncate_map_lt,
    truncation_square,
)

F2 = PrimeField(2)
PT = Quiver.point()
T0 = TStructure(0)


def _simple(field=F2, deg=0):
    s = QuiverRep(PT, field, (1,), ())
    return Complex(PT, field, deg, (s,), ())


def _rand(seed, quiver=PT, field=F2, **kw):
    return random_complex(quiver, field, np.random.default_rng(seed), **kw)


def _rand_map(seed, quiver=PT, field=F2, **kw):
    rng = np.random.default_rng(seed)
    x = random_complex(quiver, field, rng, **kw)
    y = random_complex(quiver, field, rng, **kw)
    return random_chain_map(x, y, rng)


# -- cuts -----------------------------------------------------------------------


def test_cuts_are_ordered_by_degree_and_print_as_it():
    for a, b in itertools.product(range(-2, 3), repeat=2):
        assert (TStructure(a) < TStructure(b)) == (a < b)
        assert (TStructure(a) <= TStructure(b)) == (a <= b)
        assert (TStructure(a) == TStructure(b)) == (a == b)
    assert str(TStructure(-2)) == "-2" and f"{TStructure(3)}" == "3"


# -- membership -----------------------------------------------------------------


def test_membership_on_spheres():
    s = _simple()
    assert in_coaisle(s, T0)
    assert not in_aisle(s, T0)
    assert in_aisle(shift(s, -1), T0)
    assert not in_coaisle(shift(s, -1), T0)
    assert heart_contains(s, T0)
    assert not heart_contains(shift(s, 1), T0)
    assert heart_contains(shift(s, 1), TStructure(1))


def test_membership_degenerate_objects():
    z = zero_complex(PT, F2)
    assert in_coaisle(z, T0) and in_aisle(z, T0) and heart_contains(z, T0)
    acyclic = cone(identity_map(_simple()))
    assert not acyclic.is_zero()
    assert in_coaisle(acyclic, T0) and in_aisle(acyclic, T0)


@given(complexes(), st.integers(-2, 2))
def test_shift_stability(x, n):
    t = TStructure(n)
    if in_coaisle(x, t):
        assert in_coaisle(shift(x, 1), t)
    if in_aisle(x, t):
        assert in_aisle(shift(x, -1), t)


# -- truncations ------------------------------------------------------------------


@given(complexes(), st.integers(-2, 2))
def test_truncations_split_homology(x, n):
    t = TStructure(n)
    sub, iota = truncate_ge(x, t)
    quo, pi = truncate_lt(x, t)
    hx = homology_dims(x)
    zero = tuple(0 for _ in x.quiver.vertices)
    hsub = homology_dims(sub)
    hquo = homology_dims(quo)
    degs = set(hx) | set(hsub) | set(hquo)
    for k in degs:
        want_hi = hx.get(k, zero) if k >= n else zero
        want_lo = hx.get(k, zero) if k < n else zero
        assert hsub.get(k, zero) == want_hi
        assert hquo.get(k, zero) == want_lo
    assert in_coaisle(sub, t) and in_aisle(quo, t)


@given(complexes(), st.integers(-2, 2))
def test_truncations_idempotent_on_the_nose(x, n):
    t = TStructure(n)
    sub = truncate_ge(x, t)[0]
    assert truncate_ge(sub, t)[0] == sub
    quo = truncate_lt(x, t)[0]
    assert truncate_lt(quo, t)[0] == quo
    assert truncate_lt(sub, t)[0].is_zero()


@given(complexes(), st.integers(-2, 2))
def test_projection_kills_inclusion_strictly(x, n):
    t = TStructure(n)
    sub, iota = truncate_ge(x, t)
    quo, pi = truncate_lt(x, t)
    assert compose(pi, iota).is_zero()


def test_truncate_membership_extremes():
    x = _rand(3, quiver=Quiver.a2())
    sub, iota = truncate_ge(x, TStructure(-10))
    assert sub == x and is_quasi_iso(iota)
    sub, _ = truncate_ge(x, TStructure(10))
    assert sub.is_zero()
    quo, pi = truncate_lt(x, TStructure(10))
    assert quo == x and is_quasi_iso(pi)
    quo, _ = truncate_lt(x, TStructure(-10))
    assert quo.is_zero()


def test_truncation_commutes_with_shift_exactly():
    x = _rand(11, quiver=Quiver.a2(), field=PrimeField(3))
    for k in (-2, 1, 3):
        t = TStructure(0)
        assert truncate_ge(shift(x, k), t.shifted(k))[0] == shift(truncate_ge(x, t)[0], k)
        assert truncate_lt(shift(x, k), t.shifted(k))[0] == shift(truncate_lt(x, t)[0], k)


@given(st.integers(0, 2**32 - 1), st.integers(-1, 1))
def test_truncate_map_functorial_on_the_nose(seed, n):
    t = TStructure(n)
    rng = np.random.default_rng(seed)
    x = random_complex(PT, F2, rng, max_dim=2)
    y = random_complex(PT, F2, rng, max_dim=2)
    z = random_complex(PT, F2, rng, max_dim=2)
    f = random_chain_map(x, y, rng)
    g = random_chain_map(y, z, rng)
    lhs = truncate_map_ge(compose(g, f), t)
    rhs = compose(truncate_map_ge(g, t), truncate_map_ge(f, t))
    assert lhs == rhs
    lhs = truncate_map_lt(compose(g, f), t)
    rhs = compose(truncate_map_lt(g, t), truncate_map_lt(f, t))
    assert lhs == rhs


@given(st.integers(0, 2**32 - 1), st.integers(-1, 1))
def test_truncate_map_natural_on_the_nose(seed, n):
    t = TStructure(n)
    rng = np.random.default_rng(seed)
    x = random_complex(Quiver.a2(), F2, rng, max_dim=2)
    y = random_complex(Quiver.a2(), F2, rng, max_dim=2)
    f = random_chain_map(x, y, rng)
    _, iota_x = truncate_ge(x, t)
    _, iota_y = truncate_ge(y, t)
    assert compose(f, iota_x) == compose(iota_y, truncate_map_ge(f, t))
    _, pi_x = truncate_lt(x, t)
    _, pi_y = truncate_lt(y, t)
    assert compose(pi_y, f) == compose(truncate_map_lt(f, t), pi_x)


def test_truncate_map_identity_and_zero():
    x = _rand(5, quiver=Quiver.a2())
    t = TStructure(0)
    assert truncate_map_ge(identity_map(x), t) == identity_map(truncate_ge(x, t)[0])
    assert truncate_map_lt(identity_map(x), t) == identity_map(truncate_lt(x, t)[0])
    y = _rand(6, quiver=Quiver.a2())
    assert truncate_map_ge(zero_map(x, y), t).is_zero()
    assert truncate_map_lt(zero_map(x, y), t).is_zero()


def test_lt_restriction_tower_coheres():
    x = _rand(21, quiver=Quiver.a2())
    lo, mid, hi = TStructure(-1), TStructure(0), TStructure(2)
    r_hm = lt_restriction(x, mid, hi)
    r_ml = lt_restriction(x, lo, mid)
    r_hl = lt_restriction(x, lo, hi)
    assert compose(r_ml, r_hm) == r_hl
    assert lt_restriction(x, hi, hi) == identity_map(truncate_lt(x, hi)[0])
    with pytest.raises(ValueError, match="from the higher cut to the lower"):
        lt_restriction(x, hi, lo)


@given(complexes(max_dim=2, lo=-2, hi=2), st.integers(-1, 1))
def test_truncation_square_is_pullout(x, n):
    assert is_pullout(truncation_square(x, TStructure(n)))


# -- one cut per complex ---------------------------------------------------------

KRONECKER = Quiver(("a", "b"), (("a", "b"), ("a", "b")))


def _fresh(x):
    """An equal complex with nothing cut yet."""
    return Complex(x.quiver, x.field, x.lo, x.terms, x.diffs)


def _cuts_of(f, t):
    """Every truncation of f and its ends, and their lower restrictions, as
    calls to make in any order."""
    x, y = f.source, f.target
    return [
        lambda: truncate_map_ge(f, t),
        lambda: truncate_map_lt(f, t),
        lambda: lt_restriction(x, t, t.shifted(1)),
        lambda: lt_restriction(y, t.shifted(-1), t),
        lambda: truncate_ge(x, t),
        lambda: truncate_lt(x, t),
        lambda: truncate_ge(y, t.shifted(1)),
        lambda: truncate_lt(y, t.shifted(-1)),
    ]


@given(
    st.sampled_from((PT, Quiver.a2(), KRONECKER)),
    st.sampled_from((2, 3, 5)),
    st.integers(0, 2**32 - 1),
    st.integers(-2, 2),
)
def test_kept_cuts_equal_cuts_of_a_fresh_complex(quiver, p, seed, n):
    rng = np.random.default_rng(seed)
    x, y = (random_complex(quiver, PrimeField(p), rng, max_dim=2) for _ in "xy")
    f = random_chain_map(x, y, rng)
    t = TStructure(n)
    kept = [cut() for cut in _cuts_of(f, t)]
    assert [cut() for cut in _cuts_of(f, t)] == kept
    fx, fy = _fresh(x), _fresh(y)
    assert fx._cuts is None and fy._cuts is None
    # the fresh complexes are cut in the other order: objects before maps
    fresh = [cut() for cut in _cuts_of(ChainMap(fx, fy, f.comps), t)[::-1]][::-1]
    assert fresh == kept


def test_repeated_cuts_are_the_identical_objects():
    x = _rand(21, quiver=Quiver.a2(), field=PrimeField(3))
    y = _rand(22, quiver=Quiver.a2(), field=PrimeField(3))
    f = random_chain_map(x, y, np.random.default_rng(23))
    for n in (-1, 0, 1):
        t = TStructure(n)
        for cut in (truncate_ge, truncate_lt):
            first, again = cut(x, t), cut(x, t)
            assert first[0] is again[0] and first[1] is again[1]
        # the truncated maps run between the kept truncations
        assert truncate_map_ge(f, t).source is truncate_ge(x, t)[0]
        assert truncate_map_lt(f, t).target is truncate_lt(y, t)[0]
        assert lt_restriction(x, t, t.shifted(1)).target is truncate_lt(x, t)[0]
    assert sorted(x._cuts) == [-1, 0, 1, 2]


def test_mapping_complexes_never_keep_cuts():
    x = _rand(31, quiver=Quiver.a2(), field=PrimeField(3))
    y = _rand(32, quiver=Quiver.a2(), field=PrimeField(3))
    f = random_chain_map(x, y, np.random.default_rng(33))
    assert x._cuts is None
    homs = [hom_complex(x, y), hom_complex(truncate_ge(x, T0)[0], truncate_lt(y, T0)[0])]
    homs += [hom_complex(x, x), hom_complex(y, y), hom_complex(y, x)]
    transport_map(homs[2], homs[0], post=f)
    transport_map(homs[3], homs[0], pre=f)
    transport_map(homs[4], homs[0], pre=f, post=f)
    assert x._cuts is not None and y._cuts is not None
    assert all(h.complex._cuts is None for h in homs)


def test_the_zero_complex_keeps_no_cuts():
    """Every truncation at and around the zero complex, at cuts -1..2,
    leaves the shared object as it was, while a complex beside it keeps
    its cuts."""
    for quiver in (PT, Quiver.a2()):
        zc = zero_complex(quiver, F2)
        x = _rand(41, quiver=quiver)
        for n in range(-1, 3):
            t = TStructure(n)
            assert truncate_ge(zc, t)[0] is zc and truncate_lt(zc, t)[0] is zc
            truncate_map_ge(initial_map(x), t)
            truncate_map_lt(terminal_map(x), t)
            lt_restriction(zc, t, t.shifted(1))
            truncation_square(zc, t)
        assert zc._cuts is None and x._cuts is not None


# -- heart ------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["point", "a2", "d4"])
def test_heart_stalk_is_the_one_dimensional_stalk_at_the_cut(name):
    quiver = resolve_quiver(name)
    dims = tuple(1 for _ in quiver.vertices)
    for fld, n in itertools.product((F2, PrimeField(3)), (-1, 0, 2)):
        mats = tuple(Mat.zeros(fld, 1, 1) for _ in quiver.arrows)
        stalk = Complex(quiver, fld, n, (QuiverRep(quiver, fld, dims, mats),), ())
        assert heart_stalk(quiver, fld, TStructure(n)) == stalk
        assert heart_contains(stalk, TStructure(n))


def test_heart_object_generator_lands_in_heart():
    rng = np.random.default_rng(0)
    for n in (-1, 0, 2):
        t = TStructure(n)
        for _ in range(5):
            a = random_heart_object(Quiver.a2(), F2, t, rng)
            assert heart_contains(a, t)
            assert a.is_zero() or (a.lo >= n and a.hi <= n + 1)


def test_heart_kernel_of_identity_and_zero():
    rng = np.random.default_rng(1)
    t = TStructure(0)
    a = random_heart_object(PT, F2, t, rng)
    ident = HeartMorphism(identity_map(a), t)
    for c in (heart_kernel(ident).source, heart_cokernel(ident).target):
        assert not any(any(d) for d in homology_dims(c).values())
    b = random_heart_object(PT, F2, t, rng)
    z = HeartMorphism(zero_map(a, b), t)
    assert is_quasi_iso(heart_kernel(z).map)  # kernel of 0 is all of the source
    assert is_quasi_iso(heart_cokernel(z).map)


def _heart_cases(count, seed, quiver=Quiver.a2(), field=F2, n=0):
    rng = np.random.default_rng(seed)
    t = TStructure(n)
    out = []
    for _ in range(count):
        out.append(random_heart_morphism(quiver, field, t, rng))
    return out


def test_heart_kernel_matches_rep_kernel_dims():
    for f in _heart_cases(15, 7):
        hk = heart_kernel(f)
        hn = induced_homology_map(f.map, f.t.n)
        want = rep_kernel(hn)[0].dims
        got = homology_dims(hk.source).get(f.t.n, want if want == () else None)
        if got is None:
            got = tuple(0 for _ in want)
        assert got == want or (all(d == 0 for d in want) and hk.source.is_zero())
        # the mono really is mono on homology
        hmono = induced_homology_map(hk.map, f.t.n)
        for v in range(len(hmono.source.quiver.vertices)):
            assert rank(hmono.components[v]) == hmono.source.dims[v]


def test_heart_cokernel_matches_rep_cokernel_dims():
    for f in _heart_cases(15, 8):
        hc = heart_cokernel(f)
        hn = induced_homology_map(f.map, f.t.n)
        want = rep_cokernel(hn)[0].dims
        got = homology_dims(hc.target).get(f.t.n, None)
        if got is None:
            got = tuple(0 for _ in want)
        assert got == want
        hepi = induced_homology_map(hc.map, f.t.n)
        for v in range(len(hepi.source.quiver.vertices)):
            assert rank(hepi.components[v]) == hepi.target.dims[v]


def test_image_mono_coimage_epi_and_rank():
    for f in _heart_cases(10, 6):
        img = heart_image(f)
        coim = heart_coimage(f)
        hn_f = induced_homology_map(f.map, f.t.n)
        h_img = induced_homology_map(img.map, f.t.n)
        h_coim = induced_homology_map(coim.map, f.t.n)
        for v in range(len(hn_f.source.quiver.vertices)):
            r = rank(hn_f.components[v])
            assert rank(h_img.components[v]) == h_img.source.dims[v]
            assert rank(h_coim.components[v]) == h_coim.target.dims[v]
            assert h_img.source.dims[v] == r
            assert h_coim.target.dims[v] == r


def test_first_isomorphism_comparison():
    for f in _heart_cases(10, 9) + _heart_cases(5, 10, quiver=PT, n=-2):
        u, wit = heart_comparison(f)
        assert is_quasi_iso(u)
        assert wit.from_map == f.map


def test_kernel_universal_property_via_mapping_complexes():
    rng = np.random.default_rng(12)
    t = TStructure(0)
    for f in _heart_cases(8, 13):
        k = heart_kernel(f)
        test_obj = random_heart_object(f.map.source.quiver, f.map.source.field, t, rng)
        post = transport_map(
            hom_complex(test_obj, f.map.source),
            hom_complex(test_obj, f.map.target),
            post=f.map,
        )
        h0 = induced_homology_map(post, 0)
        ker_dim = h0.source.dims[0] - rank(h0.components[0])
        hk = hom_complex(test_obj, k.source)
        got = homology_dims(hk.complex).get(0, (0,))[0]
        assert got == ker_dim


def test_cokernel_universal_property_via_mapping_complexes():
    rng = np.random.default_rng(14)
    t = TStructure(0)
    for f in _heart_cases(8, 15):
        c = heart_cokernel(f)
        test_obj = random_heart_object(f.map.source.quiver, f.map.source.field, t, rng)
        pre = transport_map(
            hom_complex(f.map.target, test_obj),
            hom_complex(f.map.source, test_obj),
            pre=f.map,
        )
        h0 = induced_homology_map(pre, 0)
        ker_dim = h0.source.dims[0] - rank(h0.components[0])
        hc = hom_complex(c.target, test_obj)
        got = homology_dims(hc.complex).get(0, (0,))[0]
        assert got == ker_dim


def test_heart_rejects_non_heart_input():
    s = _simple()
    t = TStructure(0)
    try:
        HeartMorphism(identity_map(shift(s, 2)), t)
    except ValueError:
        return
    raise AssertionError("expected rejection of non-heart endpoints")
