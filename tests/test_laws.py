"""The law checks on raw vertex arrays, and graded sums that reuse their
one live part.

The intertwiner, d², chain-map and homotopy laws are checked by
quiver._law_breaks, which multiplies and sums raw vertex arrays.  The
reference functions below are the earlier checks, which composed RepMaps
and compared the composites; on lawful values and on copies with one entry
changed, both must refuse at the same first arrow or degree with the same
message.  A graded sum whose term at a degree has one nonzero part holds
that part's term itself, and every graded sum equals the complex laid out
block by block from its parts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.strategies import random_rep_map
from tests.test_complexes import _boundary, _random_graded
from torsionlab.complexes import (
    ChainMap,
    Complex,
    Homotopy,
    cone,
    fib,
    homotopy_pullback,
    homotopy_pushout,
    random_chain_map,
    random_complex,
    zero_map,
)
from torsionlab.linalg import Mat, PrimeField
from torsionlab.quiver import Quiver, QuiverRep, RepMap, random_rep
from torsionlab.suite import resolve_quiver

QUIVERS = ("point", "a2", "kronecker", "d4")


# -- the earlier compose-and-compare checks, kept as the reference ----------------


def _after(outer, inner):
    return None if outer is None or inner is None else outer.compose(inner)


def _plus(lhs, rhs):
    return rhs if lhs is None else lhs if rhs is None else lhs + rhs


def _agree(lhs, rhs):
    if lhs is None:
        return rhs is None or rhs.is_zero()
    if rhs is None:
        return lhs.is_zero()
    return lhs.components == rhs.components


def ref_intertwiner(source, target, components):
    quiver = source.quiver
    for (src, tgt), a_s, a_t in zip(quiver.arrows, source.arrow_maps, target.arrow_maps):
        i, j = quiver.index(src), quiver.index(tgt)
        if (a_t @ components[i]) != (components[j] @ a_s):
            return f"intertwiner law fails on arrow ({src}, {tgt})"
    return None


def ref_d_squared(diffs):
    for i in range(len(diffs) - 1):
        if not diffs[i].compose(diffs[i + 1]).is_zero():
            return "d-squared law fails"
    return None


def ref_chain_map(source, target, comps):
    kept = {n: c for n, c in comps.items() if not c.is_zero()}
    for n in sorted({m for k in kept for m in (k, k + 1)}):
        lhs = _after(target._stored_diff(n), kept.get(n))
        rhs = _after(kept.get(n - 1), source._stored_diff(n))
        if not _agree(lhs, rhs):
            return f"chain-map law fails at degree {n}"
    return None


def ref_homotopy(from_map, to_map, comps):
    x, y = from_map.source, from_map.target
    kept = {n: c for n, c in comps.items() if not c.is_zero()}
    degs = {m for k in kept for m in (k, k + 1)} | set(from_map.comps) | set(to_map.comps)
    for n in sorted(degs):
        got = _plus(
            _plus(from_map.comps.get(n), _after(y._stored_diff(n + 1), kept.get(n))),
            _after(kept.get(n - 1), x._stored_diff(n)),
        )
        if not _agree(got, to_map.comps.get(n)):
            return f"homotopy law fails at degree {n}"
    return None


def refusal(build):
    """The message of the ValueError that build() raises, None if it builds."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


# -- drawing values and changing one entry -------------------------------------


def _changed(mats, rng, p):
    """mats with one entry of one nonempty matrix moved by a nonzero step;
    mats itself when every matrix is empty."""
    where = [k for k, m in enumerate(mats) if m.a.size]
    if not where:
        return tuple(mats)
    k = where[int(rng.integers(len(where)))]
    a = mats[k].a.copy()
    r, c = (int(rng.integers(s)) for s in a.shape)
    a[r, c] += int(rng.integers(1, p))
    return tuple(Mat(mats[k].field, a) if i == k else m for i, m in enumerate(mats))


def _changed_map(m, rng, p):
    return RepMap._unchecked(m.source, m.target, _changed(m.components, rng, p))


def _changed_graded(comps, rng, p):
    """A copy of a graded map {n: RepMap} with one entry changed, when any
    component has an entry."""
    live = [n for n, c in comps.items() if any(m.a.size for m in c.components)]
    if not live:
        return dict(comps)
    n = live[int(rng.integers(len(live)))]
    return {**comps, n: _changed_map(comps[n], rng, p)}


def _with_zeros(x, y, comps):
    """comps with a zero component at every other degree of x's support, so
    that an entry can be changed wherever X_n and Y_n are nonzero."""
    return {**{n: RepMap.zero(x.term(n), y.term(n)) for n in x.support}, **comps}


SETUP = st.tuples(
    st.sampled_from(QUIVERS), st.sampled_from((2, 3, 5)), st.integers(0, 2**32 - 1), st.booleans()
)
# a changed entry that no nonzero differential meets leaves the value
# lawful, so about one changed copy in ten is refused; more draws than the
# default make sure that every law sees refusals
LAW_DRAWS = settings(max_examples=200)


@LAW_DRAWS
@given(SETUP)
def test_intertwiner_law_refuses_as_the_composite_comparison_did(setup):
    name, p, seed, change = setup
    quiver, fld, rng = resolve_quiver(name), PrimeField(p), np.random.default_rng(seed)
    a, b = (random_rep(quiver, fld, 3, rng) for _ in "ab")
    comps = random_rep_map(a, b, rng).components
    if change:
        comps = _changed(comps, rng, p)
    assert refusal(lambda: RepMap(a, b, comps)) == ref_intertwiner(a, b, comps)


@LAW_DRAWS
@given(SETUP)
def test_d_squared_law_refuses_as_the_composite_check_did(setup):
    name, p, seed, change = setup
    quiver, fld, rng = resolve_quiver(name), PrimeField(p), np.random.default_rng(seed)
    x = random_complex(quiver, fld, rng, max_dim=3)
    diffs = x.diffs
    if change and diffs:
        k = int(rng.integers(len(diffs)))
        diffs = diffs[:k] + (_changed_map(diffs[k], rng, p),) + diffs[k + 1 :]
    got = refusal(lambda: Complex(quiver, fld, x.lo, x.terms, diffs))
    assert got == ref_d_squared(diffs)


@LAW_DRAWS
@given(SETUP)
def test_chain_map_law_refuses_at_the_same_degree(setup):
    name, p, seed, change = setup
    quiver, fld, rng = resolve_quiver(name), PrimeField(p), np.random.default_rng(seed)
    x, y = (random_complex(quiver, fld, rng, max_dim=2) for _ in "xy")
    comps = dict(random_chain_map(x, y, rng).comps)
    if change:
        comps = _changed_graded(_with_zeros(x, y, comps), rng, p)
    assert refusal(lambda: ChainMap(x, y, comps)) == ref_chain_map(x, y, comps)


@LAW_DRAWS
@given(SETUP, st.sampled_from(("h", "from", "to")))
def test_homotopy_law_refuses_at_the_same_degree(setup, where):
    name, p, seed, change = setup
    quiver, fld, rng = resolve_quiver(name), PrimeField(p), np.random.default_rng(seed)
    x, y = (random_complex(quiver, fld, rng, max_dim=2) for _ in "xy")
    f = random_chain_map(x, y, rng)
    h = _random_graded(x, y, rng)
    g = f + _boundary(x, y, h)
    if change and where == "h":
        h = _changed_graded(h, rng, p)
    elif change:
        side = f if where == "from" else g
        moved = ChainMap._unchecked(x, y, _changed_graded(_with_zeros(x, y, side.comps), rng, p))
        f, g = (moved, g) if where == "from" else (f, moved)
    assert refusal(lambda: Homotopy(f, g, h)) == ref_homotopy(f, g, h)


def test_each_law_refuses_a_pinned_example():
    """One refusal per law, so that the comparisons above are not vacuous:
    a = F3 --1--> F3 on a2, and x = a --id--> a in degrees 1 and 0."""
    fld, a2 = PrimeField(3), Quiver.a2()
    a = QuiverRep(a2, fld, (1, 1), (Mat(fld, [[1]]),))
    ident = RepMap.identity(a)
    with pytest.raises(ValueError, match=r"intertwiner law fails on arrow \(a, b\)"):
        RepMap(a, a, (Mat(fld, [[1]]), Mat(fld, [[2]])))
    with pytest.raises(ValueError, match="d-squared law fails"):
        Complex(a2, fld, 0, (a, a, a), (ident, ident))
    x = Complex(a2, fld, 0, (a, a), (ident,))
    with pytest.raises(ValueError, match="chain-map law fails at degree 1"):
        ChainMap(x, x, {1: ident})
    with pytest.raises(ValueError, match="homotopy law fails at degree 0"):
        Homotopy(zero_map(x, x), zero_map(x, x), {0: ident})


# -- graded sums reuse their one live part -----------------------------------------


def ref_graded_sum(parts, twists):
    """The graded sum of parts [(C_i, k_i)] with twists {(j, i): (sign, f)},
    every term a fresh block-diagonal sum and every differential filled
    block by block, built through the checking constructors."""
    quiver, fld = parts[0][0].quiver, parts[0][0].field
    live = [(c, k) for c, k in parts if not c.is_zero()]
    if not live:
        return Complex(quiver, fld, 0, (), ())
    lo = min(c.lo + k for c, k in live)
    hi = max(c.hi + k for c, k in live)
    terms, offsets = [], []
    for n in range(lo, hi + 1):
        reps = [c.term(n - k) for c, k in parts]
        at, offs = [0] * len(quiver.vertices), []
        for r in reps:
            offs.append(tuple(at))
            at = [o + d for o, d in zip(at, r.dims)]
        arrow_maps = []
        for idx, (src, tgt) in enumerate(quiver.arrows):
            i, j = quiver.index(src), quiver.index(tgt)
            block = np.zeros((at[j], at[i]), dtype=np.int64)
            for r, off in zip(reps, offs):
                block[off[j] : off[j] + r.dims[j], off[i] : off[i] + r.dims[i]] = r.arrow_maps[idx].a
            arrow_maps.append(Mat(fld, block))
        terms.append(QuiverRep(quiver, fld, tuple(at), tuple(arrow_maps)))
        offsets.append(offs)
    blocks = {(i, i): (-1 if k % 2 else 1, c.diff) for i, (c, k) in enumerate(parts)}
    blocks.update({key: (sign, f.comp) for key, (sign, f) in twists.items()})
    diffs = []
    for n in range(lo + 1, hi + 1):
        src, tgt = terms[n - lo], terms[n - 1 - lo]
        mats = [np.zeros((t, s), dtype=np.int64) for t, s in zip(tgt.dims, src.dims)]
        for (j, i), (sign, read) in blocks.items():
            g = read(n - parts[i][1])
            for v, m in enumerate(g.components):
                row, col = offsets[n - 1 - lo][j][v], offsets[n - lo][i][v]
                mats[v][row : row + m.rows, col : col + m.cols] += sign * m.a
        diffs.append(RepMap(src, tgt, tuple(Mat(fld, a) for a in mats)))
    return Complex(quiver, fld, lo, tuple(terms), tuple(diffs))


def _sums(f, g):
    """(graded sum, its twists as (sign, map)) for the four constructions."""
    return (
        (cone(f), {(1, 0): (1, f), (2, 0): (-1, cone(f).g)}),
        (fib(f), {(2, 0): (-1, f), (2, 1): (1, fib(f).g)}),
        (homotopy_pullback(f, g), {(2, 0): (-1, f), (2, 1): (1, g)}),
        (homotopy_pushout(f, f), {(1, 0): (1, f), (2, 0): (-1, f)}),
    )


@pytest.mark.parametrize("name", QUIVERS)
@pytest.mark.parametrize("p", (2, 3, 5))
def test_a_graded_sum_holds_its_one_live_part_and_matches_the_block_layout(name, p):
    quiver, fld = resolve_quiver(name), PrimeField(p)
    rng = np.random.default_rng([p, len(name)])
    reused = 0
    for _ in range(6):
        x = random_complex(quiver, fld, rng, max_dim=2, lo=-3, hi=0)
        y = random_complex(quiver, fld, rng, max_dim=2, lo=-1, hi=2)
        f = random_chain_map(x, y, rng)
        g = zero_map(x, y)
        for s, twists in _sums(f, g):
            live = {
                n: [(c, k) for c, k in s.parts if not c.term(n - k).is_zero()] for n in s.support
            }
            for n, parts in live.items():
                if len(parts) == 1:
                    (c, k), = parts
                    assert s.term(n) is c.term(n - k)
                    reused += 1
                    # the same even part alone at n - 1 too: its differential is shared
                    if live.get(n - 1) == parts and k % 2 == 0:
                        assert s.diff(n).components is c.diff(n - k).components
            assert s == ref_graded_sum(s.parts, twists)
    assert reused
