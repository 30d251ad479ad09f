"""Towers: windows, stage certificates, checker behaviour on corrupted input."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab.complexes import (
    ChainMap,
    Complex,
    block_components,
    cone,
    compose,
    fib,
    homology_dims,
    identity_map,
    is_quasi_iso,
    random_chain_map,
    random_complex,
    shift,
    zero_complex,
    zero_map,
)
import torsionlab.postnikov
from torsionlab.linalg import Mat, PrimeField
from torsionlab.postnikov import (
    MAX_SPAN,
    BoundWindow,
    Tower,
    TowerStage,
    _fiber_support,
    boundedness_window,
    postnikov_tower,
    verify_tower,
)
from torsionlab.quiver import Quiver, QuiverRep, RepMap
from torsionlab.suite import resolve_quiver
from torsionlab.tstruct import TStructure, heart_contains, truncate_lt

F2 = PrimeField(2)
F3 = PrimeField(3)
PT = Quiver.point()
A2 = Quiver.a2()


def _sphere(deg=0, field=F2):
    s = QuiverRep(PT, field, (1,), ())
    return Complex(PT, field, deg, (s,), ())


def _split_complex(degrees, field=F2):
    """Zero-differential complex with a 1-dim term in each listed degree."""
    lo, hi = min(degrees), max(degrees)
    s = QuiverRep(PT, field, (1,), ())
    z = QuiverRep.zero(PT, field)
    terms = tuple(s if n in degrees else z for n in range(lo, hi + 1))
    diffs = tuple(
        RepMap.zero(terms[n - lo], terms[n - 1 - lo]) for n in range(lo + 1, hi + 1)
    )
    return Complex(PT, field, lo, terms, diffs)


def _rand_map(seed, quiver=A2, field=F2, **kw):
    rng = np.random.default_rng(seed)
    x = random_complex(quiver, field, rng, **kw)
    y = random_complex(quiver, field, rng, **kw)
    return random_chain_map(x, y, rng)


def _composite(tw):
    """The stages of a tower composed in order; a tower keeps no witness, so
    the tests compare this with f itself."""
    composite = tw.stages[0].map
    for stage in tw.stages[1:]:
        composite = compose(stage.map, composite)
    return composite


# -- windows ----------------------------------------------------------------------


def test_window_of_quasi_iso_is_absent():
    x = _rand_map(0).source
    assert boundedness_window(identity_map(x)) is None
    acyclic = cone(identity_map(x))
    assert boundedness_window(zero_map(acyclic, zero_complex(A2, F2))) is None


def test_window_of_sphere_arrows():
    s = _sphere()
    zc = zero_complex(PT, F2)
    w = boundedness_window(zero_map(zc, s))
    assert w == BoundWindow(-1, 0)
    x = _split_complex({0, 2})
    w = boundedness_window(zero_map(x, zc))
    assert w == BoundWindow(0, 3)
    assert w.width == 3


def _stalks(span):
    """The zero map from a one-term a2 complex at degree span to one at 0."""
    rep = QuiverRep(A2, F2, (1, 0), (Mat.zeros(F2, 0, 1),))
    return zero_map(Complex(A2, F2, span, (rep,), ()), Complex(A2, F2, 0, (rep,), ()))


def test_window_refuses_a_map_spanning_more_than_max_span(monkeypatch):
    """A tower has one stage per degree of the window, so a wider map is
    refused, and refused before any homology is ranked."""
    assert boundedness_window(_stalks(MAX_SPAN)) == BoundWindow(-1, MAX_SPAN + 1)
    assert boundedness_window(_stalks(-MAX_SPAN)) == BoundWindow(-MAX_SPAN, 0)

    def ranked(f):
        raise AssertionError("ranked a map wider than MAX_SPAN")

    monkeypatch.setattr(torsionlab.postnikov, "cone_homology_dims", ranked)
    for span in (MAX_SPAN + 1, -MAX_SPAN - 1, 10**30):
        with pytest.raises(ValueError, match=f"more than {MAX_SPAN}"):
            boundedness_window(_stalks(span))


def test_window_rejects_empty():
    try:
        BoundWindow(2, 2)
    except ValueError:
        return
    raise AssertionError("empty window accepted")


# -- towers -----------------------------------------------------------------------


def test_single_stage_tower_is_the_map_itself():
    s = _sphere()
    zc = zero_complex(PT, F2)
    f = zero_map(zc, s)
    tw = postnikov_tower(f)
    assert tw.window == BoundWindow(-1, 0)
    assert len(tw.stages) == 1
    assert tw.stages[0].map == f
    assert tw.stages[0].degree == -1
    assert _fiber_support(tw.stages[0].map) == [-1]
    assert verify_tower(f, tw)


def test_quasi_iso_gets_the_degenerate_tower():
    x = _rand_map(1).source
    f = identity_map(x)
    tw = postnikov_tower(f)
    assert tw.window is None
    assert len(tw.stages) == 1 and tw.stages[0].degree is None
    assert verify_tower(f, tw)


def test_split_complex_two_stage_tower():
    x = _split_complex({0, 1})
    f = zero_map(x, zero_complex(PT, F2))
    tw = postnikov_tower(f)
    assert tw.window == BoundWindow(0, 2)
    assert len(tw.stages) == 2
    assert [st.degree for st in tw.stages] == [1, 0]
    for st in tw.stages:
        fb = fib(st.map)
        assert heart_contains(shift(fb, -st.degree), TStructure(0))
    assert verify_tower(f, tw)


def test_tower_composite_is_strict():
    f = _rand_map(17, max_dim=3)
    assert _composite(postnikov_tower(f)) == f


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
@settings(max_examples=30)
def test_random_towers_verify(seed, p):
    f = _rand_map(seed, field=PrimeField(p), max_dim=2)
    tw = postnikov_tower(f)
    assert verify_tower(f, tw)
    w = boundedness_window(f)
    if w is not None:
        assert len(tw.stages) == w.width
        assert sorted(st.degree for st in tw.stages) == list(range(w.lo, w.hi))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_stage_fibers_reproduce_the_fiber_homology(seed):
    f = _rand_map(seed, max_dim=2)
    w = boundedness_window(f)
    if w is None:
        return
    tw = postnikov_tower(f)
    total = homology_dims(fib(f))
    zero = tuple(0 for _ in f.source.quiver.vertices)
    for st_ in tw.stages:
        fb = fib(st_.map)
        got = homology_dims(fb).get(st_.degree, zero)
        assert got == total.get(st_.degree, zero)


@pytest.mark.parametrize("name", ["point", "a2", "kronecker", "d4"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_top_stage_is_the_gap_map_of_the_hand_built_lift(name, p):
    """The top stage x -> (f x, 0, -h x) lifts f into the deepest fiber,
    h being the cofiber's null-homotopy pushed through the truncation."""
    quiver, fld = resolve_quiver(name), PrimeField(p)
    rng = np.random.default_rng([p, 55])
    lifts = 0
    for _ in range(8):
        x, y = (random_complex(quiver, fld, rng, max_dim=2, lo=-2, hi=2) for _ in "xy")
        f = random_chain_map(x, y, rng)
        window = boundedness_window(f)
        if window is None or window.width == 1:
            continue
        cf, top = cone(f), postnikov_tower(f).stages[0].map
        _, pi = truncate_lt(cf, TStructure(window.hi))
        pushed = {m: pi.comp(m + 1).compose(h) for m, h in cf.witness.comps.items()}
        fb, table = top.target, {(0, None): (1, f.comps), (2, None): (-1, pushed)}
        assert top == ChainMap(x, fb, block_components(x, fb, 0, table))
        lifts += 1
    assert lifts


def test_wide_window_tower():
    x = _split_complex({-1, 0, 1, 2}, field=F3)
    f = zero_map(x, zero_complex(PT, F3))
    tw = postnikov_tower(f)
    assert tw.window == BoundWindow(-1, 3)
    assert len(tw.stages) == 4
    assert sorted(st.degree for st in tw.stages) == [-1, 0, 1, 2]
    assert verify_tower(f, tw)


def test_interior_gap_keeps_length():
    # homology in degrees 0 and 2 only: the degree-1 stage has acyclic fiber
    x = _split_complex({0, 2})
    f = zero_map(x, zero_complex(PT, F2))
    tw = postnikov_tower(f)
    assert len(tw.stages) == 3
    assert sorted(st.degree for st in tw.stages) == [0, 1, 2]
    mid = [st for st in tw.stages if st.degree == 1][0]
    assert is_quasi_iso(mid.map)
    assert verify_tower(f, tw)


# -- checker rejects corrupted towers ------------------------------------------------


def test_checker_rejects_zeroed_stage():
    x = _split_complex({0, 1})
    f = zero_map(x, zero_complex(PT, F2))
    tw = postnikov_tower(f)
    assert _composite(tw) == f
    bad_stage = TowerStage(
        zero_map(tw.stages[0].map.source, tw.stages[0].map.target),
        tw.stages[0].degree,
    )
    bad = Tower((tw.objects), (bad_stage,) + tw.stages[1:], tw.window)
    assert not verify_tower(f, bad)


def test_checker_rejects_wrong_degree():
    s = _sphere()
    f = zero_map(zero_complex(PT, F2), s)
    tw = postnikov_tower(f)
    assert _composite(tw) == f
    bad = Tower(
        tw.objects,
        (TowerStage(tw.stages[0].map, 5),),
        BoundWindow(5, 6),
    )
    assert not verify_tower(f, bad)


def test_checker_rejects_window_mismatch():
    x = _split_complex({0, 1})
    f = zero_map(x, zero_complex(PT, F2))
    tw = postnikov_tower(f)
    assert _composite(tw) == f
    bad = Tower(tw.objects, tw.stages, BoundWindow(0, 3))
    assert not verify_tower(f, bad)
