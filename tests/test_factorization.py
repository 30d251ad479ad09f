"""Factorization layer: memberships, normality, orthogonality, lifting counts."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab.complexes import (
    Complex,
    CommutingSquare,
    compose,
    homology_dims,
    homotopy_pullback,
    homotopy_pushout,
    identity_map,
    is_pullout,
    is_quasi_iso,
    random_chain_map,
    random_complex,
    shift,
    zero_complex,
    zero_map,
)
from torsionlab.factorization import (
    antitone_check,
    coreflection_cofiber,
    factor,
    factorization_pullout_square,
    free_contains,
    in_E,
    in_M,
    is_orthogonal,
    normality_report,
    reflection_fiber,
    roundtrip_check,
    sator_check,
    semiexact_check,
    semiexact_data,
    solve_lifting,
    three_for_two_check,
    torsion_contains,
)
from torsionlab.linalg import PrimeField
from torsionlab.quiver import Quiver, QuiverRep
from torsionlab.tstruct import TStructure, random_heart_object, truncate_ge, truncate_lt

F2 = PrimeField(2)
F3 = PrimeField(3)
PT = Quiver.point()
A2 = Quiver.a2()
T = TStructure(0)


def _sphere(deg=0, field=F2):
    s = QuiverRep(PT, field, (1,), ())
    return Complex(PT, field, deg, (s,), ())


def _rand(seed, quiver=A2, field=F2, **kw):
    return random_complex(quiver, field, np.random.default_rng(seed), **kw)


def _rand_map(seed, quiver=A2, field=F2, **kw):
    rng = np.random.default_rng(seed)
    x = random_complex(quiver, field, rng, **kw)
    y = random_complex(quiver, field, rng, **kw)
    return random_chain_map(x, y, rng)


# -- memberships -------------------------------------------------------------------


def test_membership_trivia():
    s = _sphere()
    zc = zero_complex(PT, F2)
    assert in_E(identity_map(s), T) and in_M(identity_map(s), T)
    initial = zero_map(zc, s)
    assert in_E(initial, T) and not in_M(initial, T)
    terminal_low = zero_map(shift(s, -1), zc)
    assert in_M(terminal_low, T) and not in_E(terminal_low, T)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_quasi_isos_are_exactly_the_intersection(seed):
    f = _rand_map(seed, max_dim=2)
    assert (in_E(f, T) and in_M(f, T)) == is_quasi_iso(f)


def test_reflection_and_coreflection_endpoints():
    x = _rand(42)
    rx, unit = truncate_lt(x, T)
    assert in_E(unit, T) and free_contains(rx, T)
    sx, counit = truncate_ge(x, T)
    assert in_M(counit, T) and torsion_contains(sx, T)
    # reflection of a torsion object vanishes on the nose here
    assert truncate_lt(sx, T)[0].is_zero()
    # unit is invertible on torsion-free objects
    ax = truncate_lt(x, T)[0]
    assert is_quasi_iso(truncate_lt(ax, T)[1])


def test_torsion_parts_of_extreme_objects():
    x = _rand(7)
    sx = truncate_ge(x, T)[0]
    k, k_cmp = reflection_fiber(sx, T)
    assert is_quasi_iso(k_cmp)
    assert homology_dims(k) == homology_dims(sx)
    fx = truncate_lt(x, T)[0]
    q, q_cmp = coreflection_cofiber(fx, T)
    assert is_quasi_iso(q_cmp)
    assert homology_dims(q) == homology_dims(fx)


# -- normality ---------------------------------------------------------------------


def test_normality_zero_and_heart():
    rep = normality_report(zero_complex(A2, F2), T)
    assert rep.all_hold() and rep.agree()
    rng = np.random.default_rng(3)
    h = random_heart_object(A2, F2, T, rng)
    rep = normality_report(h, T)
    assert rep.all_hold() and rep.agree()


@given(st.integers(0, 2**32 - 1), st.integers(-1, 1), st.sampled_from([2, 3]))
@settings(max_examples=30)
def test_normality_holds_everywhere(seed, n, p):
    x = random_complex(A2, PrimeField(p), np.random.default_rng(seed), max_dim=2)
    rep = normality_report(x, TStructure(n))
    assert rep.all_hold() and rep.agree()


# -- the factorization -------------------------------------------------------------


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_factor_is_strict_and_lands_in_the_classes(seed):
    f = _rand_map(seed, max_dim=2)
    fac = factor(f, T)
    assert compose(fac.m, fac.e) == f
    assert not fac.witness.comps
    assert in_E(fac.e, T) and in_M(fac.m, T)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_factor_is_idempotent_up_to_equivalence(seed):
    f = _rand_map(seed, max_dim=2, lo=-2, hi=2)
    fac = factor(f, T)
    assert is_quasi_iso(factor(fac.e, T).m)
    assert is_quasi_iso(factor(fac.m, T).e)


def test_factor_of_initial_and_terminal_arrows():
    y = _rand(19)
    zc = zero_complex(A2, F2)
    fac = factor(zero_map(zc, y), T)
    assert homology_dims(fac.mid.complex) == homology_dims(truncate_ge(y, T)[0])
    x = _rand(23)
    fac = factor(zero_map(x, zc), T)
    assert homology_dims(fac.mid.complex) == homology_dims(truncate_lt(x, T)[0])
    assert compose(fac.m, fac.e) == zero_map(x, zc)


@given(st.integers(0, 2**32 - 1), st.integers(-1, 1))
@settings(max_examples=20)
def test_factorization_square_is_a_pullout(seed, n):
    f = _rand_map(seed, max_dim=2)
    t = TStructure(n)
    assert is_pullout(factorization_pullout_square(f, t))


# -- orthogonality and lifting -------------------------------------------------------


def test_orthogonality_trivia():
    s = _sphere()
    zc = zero_complex(PT, F2)
    m = zero_map(s, zc)
    assert is_orthogonal(identity_map(s), m)
    # sphere against itself: fillers form a Hom(S,S)-torsor, not a point
    assert not is_orthogonal(zero_map(zc, s), zero_map(s, zc))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10)
def test_factor_classes_are_orthogonal(seed):
    rng = np.random.default_rng(seed)
    f = random_chain_map(
        random_complex(PT, F2, rng, max_dim=2, lo=-2, hi=2),
        random_complex(PT, F2, rng, max_dim=2, lo=-2, hi=2),
        rng,
    )
    g = random_chain_map(
        random_complex(PT, F2, rng, max_dim=2, lo=-2, hi=2),
        random_complex(PT, F2, rng, max_dim=2, lo=-2, hi=2),
        rng,
    )
    assert is_orthogonal(factor(f, T).e, factor(g, T).m)


def test_lifting_identity_square():
    s = _sphere()
    sq = CommutingSquare.strict(
        identity_map(s), identity_map(s), identity_map(s), identity_map(s)
    )
    count, wit = solve_lifting(sq)
    assert count == 1 and wit is not None
    a, ht, hb = wit
    assert is_quasi_iso(a)


def test_lifting_sphere_torsor():
    for p in (2, 3):
        s = _sphere(field=PrimeField(p))
        zc = zero_complex(PT, PrimeField(p))
        e = zero_map(zc, s)
        m = zero_map(s, zc)
        sq = CommutingSquare.strict(zero_map(zc, s), e, m, zero_map(s, zc))
        count, wit = solve_lifting(sq)
        assert count == p
        assert wit is not None
        assert not is_orthogonal(e, m)


def _square_between(e, m, rng):
    """A strict square with the given vertical edges, glued by a random map."""
    t = random_chain_map(e.target, m.source, rng)
    return CommutingSquare.strict(compose(t, e), e, m, compose(m, t))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_lifting_agrees_with_orthogonality(seed):
    rng = np.random.default_rng(seed)
    f = random_chain_map(
        random_complex(PT, F2, rng, max_dim=2, lo=-1, hi=1),
        random_complex(PT, F2, rng, max_dim=2, lo=-1, hi=1),
        rng,
    )
    g = random_chain_map(
        random_complex(PT, F2, rng, max_dim=2, lo=-1, hi=1),
        random_complex(PT, F2, rng, max_dim=2, lo=-1, hi=1),
        rng,
    )
    e, m = factor(f, T).e, factor(g, T).m
    assert is_orthogonal(e, m)
    count, wit = solve_lifting(_square_between(e, m, rng))
    assert count == 1 and wit is not None


def test_lifting_detects_non_orthogonal_pairs():
    rng = np.random.default_rng(77)
    for k in (0, 1):
        s = _sphere(deg=k)
        zc = zero_complex(PT, F2)
        e = zero_map(zc, s)
        m = zero_map(shift(s, 0), zc)
        sq = _square_between(e, m, rng)
        count, _ = solve_lifting(sq)
        assert (count == 1) == is_orthogonal(e, m)


# -- class algebra -------------------------------------------------------------------


def test_three_for_two_on_constructed_pairs():
    rng = np.random.default_rng(5)
    pairs = []
    for seed in range(8):
        f = _rand_map(seed, max_dim=2)
        fac = factor(f, T)
        onward = random_chain_map(
            fac.mid.complex, random_complex(A2, F2, rng, max_dim=2), rng
        )
        pairs.append((fac.e, onward))
        pairs.append((fac.e, factor(onward, T).e))
        pairs.append((fac.e, fac.m))
    assert three_for_two_check("E", T, pairs)
    assert three_for_two_check("M", T, pairs)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_sator_identity(seed):
    a = _rand(seed, max_dim=2)
    assert sator_check(a, T)
    assert sator_check(a, TStructure(-2))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=12)
def test_class_closure_under_co_base_change(seed):
    rng = np.random.default_rng(seed)
    f = random_chain_map(
        random_complex(A2, F2, rng, max_dim=2),
        random_complex(A2, F2, rng, max_dim=2),
        rng,
    )
    fac = factor(f, T)
    along_out = random_chain_map(f.source, random_complex(A2, F2, rng, max_dim=2), rng)
    assert in_E(homotopy_pushout(fac.e, along_out).inj_second, T)
    along_in = random_chain_map(random_complex(A2, F2, rng, max_dim=2), f.target, rng)
    assert in_M(homotopy_pullback(fac.m, along_in).proj_second, T)


@given(st.integers(0, 2**32 - 1), st.integers(-2, 1), st.integers(0, 2))
@settings(max_examples=20)
def test_antitone_membership(seed, n, gap):
    f = _rand_map(seed, max_dim=2)
    assert antitone_check(f, TStructure(n), TStructure(n + gap))


# -- semiexactness and roundtrips ------------------------------------------------------


def test_semiexact_identity_and_initial():
    x = _rand(31)
    assert semiexact_check(identity_map(x), T)
    zc = zero_complex(A2, F2)
    assert semiexact_check(zero_map(zc, x), T)


@given(st.integers(0, 2**32 - 1), st.integers(-1, 1))
@settings(max_examples=20)
def test_semiexact_everywhere(seed, n):
    f = _rand_map(seed, max_dim=2)
    t = TStructure(n)
    w, pulled_unit = semiexact_data(f, t)
    assert is_quasi_iso(w)
    assert in_E(pulled_unit, t)


def test_roundtrip_on_spheres_and_randoms():
    spheres = [shift(_sphere(), k) for k in range(-3, 4)]
    morphisms = [_rand_map(seed, max_dim=2) for seed in range(6)]
    objects = spheres + [_rand(seed, max_dim=2) for seed in range(6)]
    assert roundtrip_check(T, morphisms, objects)
    assert roundtrip_check(TStructure(1), morphisms, objects)
