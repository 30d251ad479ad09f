"""Complexes: conventions pinned by hand, then properties.

The brute-force helpers at the top enumerate literal maps over small fields;
they are the oracle for the mapping-complex homology and never call the code
paths they check.
"""

from __future__ import annotations

import ast
import itertools
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import torsionlab.complexes as complexes_module
import torsionlab.quiver as quiver_module
import torsionlab.suite as suite
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
    hom_transport,
    homology,
    homology_data,
    homology_dims,
    homotopic,
    homotopy_pullback,
    homotopy_pushout,
    identity_map,
    induced_homology_map,
    initial_map,
    is_cartesian,
    is_cocartesian,
    is_pullout,
    is_quasi_iso,
    pullback_induced,
    random_chain_map,
    random_complex,
    shift,
    terminal_map,
    total_solve,
    zero_complex,
    zero_map,
)
from torsionlab.document import MAX_DIM
from torsionlab.factorization import is_orthogonal
from torsionlab.linalg import Mat, PrimeField, rank
from torsionlab.postnikov import BoundWindow, _fiber_support, boundedness_window
from torsionlab.quiver import Quiver, QuiverRep, RepMap
from torsionlab.suite import resolve_quiver

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
    assert not any(any(d) for d in homology_dims(cone(identity_map(x))).values())


def test_cone_of_map_from_zero_is_target():
    y = _pt_complex(F2, 0, [2, 1], [[[1], [0]]])
    c = cone(zero_map(zero_complex(PT, F2), y))
    assert c == y


@pytest.mark.parametrize("name", ["point", "a2", "d4"])
def test_one_zero_complex_and_its_initial_and_terminal_arrows(name):
    """zero_complex is one shared object per quiver and field, the two
    arrows equal their zero_map spellings through a freshly built zero, and
    cone and fib are taken along them."""
    quiver = resolve_quiver(name)
    for fld in (F2, F3):
        zc = zero_complex(quiver, fld)
        fresh = Complex(quiver, fld, 0, (), ())
        assert zc is zero_complex(quiver, fld) and zc == fresh and zc is not fresh
        rng = np.random.default_rng(fld.p)
        x, y = (random_complex(quiver, fld, rng, max_dim=2) for _ in "xy")
        for z in (x, zc):
            assert initial_map(z) == zero_map(fresh, z) and initial_map(z).source is zc
            assert terminal_map(z) == zero_map(z, fresh) and terminal_map(z).target is zc
        f = random_chain_map(x, y, rng)
        assert cone(f).g == terminal_map(x) and cone(f).g.target is zc
        assert fib(f).g == initial_map(y) and fib(f).g.source is zc


def test_fib_is_shifted_cone():
    f = _rand_map(7)
    assert fib(f) == shift(cone(f), -1)


def _rand_map(seed, quiver=PT, field=F2, max_dim=3):
    rng = np.random.default_rng(seed)
    x = random_complex(quiver, field, rng, max_dim=max_dim)
    y = random_complex(quiver, field, rng, max_dim=max_dim)
    return random_chain_map(x, y, rng)


def test_cone_of_into_recovers_shifted_source():
    f = _rand_map(11)
    c = cone(f)
    c2 = cone(c.inj_first)  # parts (Y, 1), (cone f, 0), (0, 0)
    target = shift(f.source, 1)
    comps = block_components(c2, target, 0, {(None, 1): (1, c.projection(0).comps)})
    collapse = ChainMap(c2, target, comps)
    assert is_quasi_iso(collapse)


@given(chain_maps(max_dim=2, lo=-1, hi=1))
def test_cone_homology_bookkeeping(f):
    # dim H_n(cone f) = dim coker H_n(f) + dim ker H_{n-1}(f), vertexwise
    c = cone(f)
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
        # the checking constructor accepts every decoded cycle
        ChainMap(x, x, h.decode(0, cyc.a[:, j]))


def test_hom_complex_checks_the_d_squared_law():
    """The mapping complex of lawful ends is lawful by the sign rule, so no
    hom differential checks d² again; what keeps an unlawful end out is the
    checked Complex, which refuses d² != 0."""
    ones = [[[1]], [[1]]]
    with pytest.raises(ValueError, match="d-squared law fails"):
        _pt_complex(F2, 0, [1, 1, 1], ones)


KRONECKER = Quiver(("a", "b"), (("a", "b"), ("a", "b")))
NAMED = ("point", "a2", "a3", "kronecker", "d4")


@given(
    st.sampled_from(NAMED),
    st.sampled_from((2, 3, 5)),
    st.integers(0, 2**32 - 1),
)
def test_hom_complex_differentials_square_to_zero(name, p, seed):
    """D_{n-1} D_n = 0, the check that HomComplex.diff skips, on every named
    quiver: on the assembled complex, and on each D_n read alone from a
    fresh mapping complex, as the solvers read it."""
    rng = np.random.default_rng(seed)
    quiver = resolve_quiver(name)
    x, y = (random_complex(quiver, PrimeField(p), rng, max_dim=3, lo=-2, hi=2) for _ in "xy")
    diffs = [d.components[0].a for d in hom_complex(x, y).complex.diffs]
    for lower, upper in zip(diffs, diffs[1:]):
        assert not (lower @ upper % p).any()
    for n in range(y.lo - x.hi - 1, y.hi - x.lo + 3):
        fresh = hom_complex(x, y)
        assert not (fresh.diff(n - 1) @ fresh.diff(n)).a.any()


@contextmanager
def counted_hom_ops():
    """Records every post_op and pre_op call that complexes makes, as (name,
    how its operator was used): "in place" when it was written into a block
    of the caller's array (out), else whether the stack that _apply then
    multiplied it by was None, every flat map, or None while it is
    unapplied.  Each HomComplex._place call is recorded as ("_place", None)."""
    calls, last = [], []
    apply, place = complexes_module._apply, complexes_module.HomComplex._place

    def counting(name, inner):
        def run(m, ends, out=None):
            calls.append((name, None if out is None else "in place"))
            last[:] = [inner(m, ends, out)]
            return last[0]

        return run

    def applying(op, stack, p):
        assert last and op is last[0], "_apply of an operator that is not the last one made"
        assert calls[-1][1] is None, "_apply of an operator written in place"
        calls[-1] = (calls[-1][0], stack is None)
        return apply(op, stack, p)

    def placing(self, *args):
        calls.append(("_place", None))
        return place(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        for name in ("post_op", "pre_op"):
            patch.setattr(complexes_module, name, counting(name, getattr(complexes_module, name)))
        patch.setattr(complexes_module, "_apply", applying)
        patch.setattr(complexes_module.HomComplex, "_place", placing)
        yield calls


@given(
    st.sampled_from(("point", "a2", "kronecker")),
    st.sampled_from((2, 3)),
    st.integers(0, 2**32 - 1),
)
def test_each_hom_differential_composes_each_slot_once_per_part(name, p, seed):
    """D_n makes the operator of post_op and of pre_op at most once per slot
    of degree n, written in place or applied: its images are placed once
    and never composed again."""
    rng = np.random.default_rng(seed)
    quiver = resolve_quiver(name)
    x, y = (random_complex(quiver, PrimeField(p), rng, max_dim=3, lo=-2, hi=2) for _ in "xy")
    for n in range(y.lo - x.hi - 1, y.hi - x.lo + 3):
        hom = hom_complex(x, y)
        slots = len(hom.slots(n))
        with counted_hom_ops() as calls:
            hom.diff(n)
        names = [op for op, _ in calls]
        assert names.count("post_op") <= slots and names.count("pre_op") <= slots, (n, calls)


def test_a_stack_of_the_wrong_height_is_refused():
    """_apply multiplies an operator by a stack of flat maps of its width
    and refuses any other height, as numpy's matmul does."""
    op = np.eye(3, 4, dtype=np.int64)
    assert complexes_module._apply(op, np.ones((4, 2), dtype=np.int64), 3).shape == (3, 2)
    for rows in (3, 5):
        with pytest.raises(ValueError):
            complexes_module._apply(op, np.ones((rows, 2), dtype=np.int64), 3)


def test_random_chain_map_builds_no_identity_basis_for_a_d0_without_entries():
    """Two one-term point complexes of dimension document.MAX_DIM have a D_0
    of 4,096 columns and no rows, so every coordinate vector is a cycle:
    the draw is the vector itself, the same p-ary draw a kernel basis would
    combine, and no 4,096 x 4,096 identity (134 MB) is built for it."""
    x = _pt_complex(F3, 0, [MAX_DIM], [])
    tracemalloc.start()
    try:
        f = random_chain_map(x, x, np.random.default_rng(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    coeffs = np.random.default_rng(7).integers(0, 3, size=MAX_DIM**2)
    assert f == ChainMap(x, x, hom_complex(x, x).decode(0, coeffs))


@pytest.mark.parametrize("p", (2, 3))
def test_hom_differentials_multiply_no_identity_basis(p):
    """A free slot, one that no equation constrains, has no basis
    (rep_hom_basis_flat gives None): while every degree is built,
    kernel_basis runs once per constrained slot, on constraints with a
    nonzero entry, and never for a free one.  When the slot a free slot's
    image lands in is free too, D_n writes the operator of post_op or
    pre_op straight into its block of D_n, with no _apply and no _place;
    otherwise it hands _apply the stack None, and _place finds the
    coordinates.  A constrained slot hands _apply its basis.  Every slot of
    a point pair is free, so each of its images is written in place; a2
    pairs take the product path on their constrained slots."""
    used = {"point": set(), "a2": set()}
    kernel, reduced = quiver_module.kernel_basis, []

    def counted_kernel(m):
        reduced.append(m)
        return kernel(m)

    for name, seed in itertools.product(used, range(12)):
        rng = np.random.default_rng([p, seed])
        quiver = resolve_quiver(name)
        x, y = (random_complex(quiver, PrimeField(p), rng, max_dim=3, lo=-2, hi=2) for _ in "xy")
        hom, degrees = hom_complex(x, y), range(y.lo - x.hi, y.hi - x.lo + 2)
        reduced.clear()
        for n in degrees:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(quiver_module, "kernel_basis", counted_kernel)
                below = hom.slots(n - 1)
                slots = hom.slots(n)
            want = []
            for i, (_, _, basis) in slots.items():
                for op, j in (("post_op", i), ("pre_op", i + 1)):
                    if j not in below:
                        continue
                    if basis is None and below[j][2] is None:
                        want.append((op, "in place"))
                    else:
                        want += [(op, basis is None), ("_place", None)]
            with counted_hom_ops() as calls:
                hom.diff(n)
            assert calls == want, (name, seed, n)
            used[name].update(how for op, how in calls if op != "_place")
        bases = [b for n in (degrees[0] - 1, *degrees) for _, _, b in hom.slots(n).values()]
        assert len(reduced) == len(bases) - bases.count(None), (name, seed)
        assert all(m.a.any() for m in reduced), (name, seed)
    assert used == {"point": {"in place"}, "a2": {"in place", True, False}}


def shape_comparisons(text: str) -> list[int]:
    """The line of each comparison in text with a .rows and a .cols operand:
    a shape test, where a free slot is told by its missing basis."""
    return [
        c.lineno
        for c in ast.walk(ast.parse(text))
        if isinstance(c, ast.Compare)
        and {"rows", "cols"} <= {getattr(o, "attr", None) for o in (c.left, *c.comparators)}
    ]


def test_complexes_tells_a_free_slot_by_its_missing_basis_not_its_shape():
    assert shape_comparisons("free = basis.rows == basis.cols\n") == [1]
    text = Path(complexes_module.__file__).read_text(encoding="utf-8")
    assert shape_comparisons(text) == []


@pytest.mark.parametrize("p", (2, 3, 5))
def test_kunneth_count_of_the_hom_oracle_matches_the_hom_complex(p):
    """The Künneth count behind the suite's hom-oracle equals the mapping
    complex's homology on seeded point-quiver pairs wider than its micro
    enumeration: dims up to 4 on windows of up to 5 degrees, where the
    ends' own differentials reach rank 3 and more."""
    fld, top = PrimeField(p), 0
    for seed in range(100):
        rng = np.random.default_rng([p, seed])
        x, y = ends = [
            random_complex(PT, fld, rng, max_dim=4, lo=lo, hi=lo + 4)
            for lo in rng.integers(-3, 1, size=2).tolist()
        ]
        top = max([top] + [rank(d.components[0]) for c in ends for d in c.diffs])
        dims = homology_dims(hom_complex(x, y).complex)
        for n in range(y.lo - x.hi - 1, y.hi - x.lo + 2):
            assert suite._class_dim_direct(x, y, n, fld) == dims.get(n, (0,))[0], (seed, n)
    assert top >= 3


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
    assert wit.comps[0].components[0] == Mat(F3, [[1]])
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
    assert pb == shift(z, -1)


def test_pushout_of_zero_legs_is_suspension():
    w = _pt_complex(F2, 0, [2, 1], [[[1], [0]]])
    zc = zero_complex(PT, F2)
    po = homotopy_pushout(zero_map(w, zc), zero_map(w, zc))
    assert po == shift(w, 1)


def _fiber_square(f):
    """fib(f) -> X over 0 -> Y, assembled by hand: the null-homotopy of
    f . proj sends the Y[-1] part back to Y, negated."""
    fb, y = fib(f), f.target
    zc = zero_complex(f.source.quiver, f.source.field)
    proj = fb.projection(0)
    null = block_components(fb, y, 1, {(None, 2): (-1, identity_map(y).comps)})
    wit = Homotopy(zero_map(fb, y), compose(f, proj), null)
    return CommutingSquare(proj, zero_map(fb, zc), f, zero_map(zc, y), wit)


def _cofiber_square(f):
    """X -> Y over X -> 0 into cone(f), assembled by hand: the
    null-homotopy of inj . f sends X to its copy X[1]."""
    c, x = cone(f), f.source
    zc = zero_complex(x.quiver, x.field)
    inj = c.inclusion(1)
    null = block_components(x, c, 1, {(0, None): (1, identity_map(x).comps)})
    wit = Homotopy(zero_map(x, c), compose(inj, f), null)
    return CommutingSquare(f, zero_map(x, zc), inj, zero_map(zc, c), wit)


def test_fiber_square_is_pullout():
    for seed in (1, 2, 9):
        f = _rand_map(seed, quiver=Quiver.a2(), max_dim=2)
        sq = fib(f).square
        assert sq == _fiber_square(f)
        assert is_pullout(sq)
        assert is_cartesian(sq)
        assert is_cocartesian(sq)


@pytest.mark.parametrize("name", ["a3", "kronecker", "d4"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_cone_and_fiber_squares_are_pullouts_past_a2(name, p):
    """The squares of the pushout cone(f) and the pullback fib(f) are the
    cofiber and fiber squares assembled by hand, and are pullouts,
    cartesian and cocartesian, on quivers with paths, parallel arrows and
    branching."""
    quiver, fld = resolve_quiver(name), PrimeField(p)
    rng = np.random.default_rng([p, 51])
    for _ in range(3):
        x, y = (random_complex(quiver, fld, rng, max_dim=2, lo=-1, hi=1) for _ in "xy")
        f = random_chain_map(x, y, rng)
        pairs = ((cone(f).square, _cofiber_square(f)), (fib(f).square, _fiber_square(f)))
        for sq, by_hand in pairs:
            assert sq == by_hand
            assert is_pullout(sq) and is_cartesian(sq) and is_cocartesian(sq)


def test_a_square_with_one_witness_component_negated_is_refused():
    """The cofiber square's witness h_n sends x to (x, 0) in cone_{n+1}.
    Negated at one degree n where f is nonzero, d h + h d there becomes
    (2 dx, -fx) instead of (0, fx), so over an odd prime the checking
    constructors refuse the square."""
    rng = np.random.default_rng(52)
    quiver, refused = resolve_quiver("d4"), 0
    for fld in (F3, PrimeField(5)):
        for _ in range(3):
            x, y = (random_complex(quiver, fld, rng, max_dim=2, lo=-1, hi=1) for _ in "xy")
            f = random_chain_map(x, y, rng)
            sq = cone(f).square
            wit, edges = sq.witness, (sq.top, sq.left, sq.right, sq.bottom)
            assert CommutingSquare(*edges, Homotopy(wit.from_map, wit.to_map, wit.comps)) == sq
            for n in f.comps:
                negated = {**wit.comps, n: -wit.comps[n]}
                with pytest.raises(ValueError, match=f"homotopy law fails at degree {n}"):
                    CommutingSquare(*edges, Homotopy(wit.from_map, wit.to_map, negated))
                refused += 1
    assert refused


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
    for n in s.support:
        assert s.offsets[n] == ((0, 0), x.term(n).dims)
    incs, projs = (s.inclusion(0), s.inclusion(1)), (s.projection(0), s.projection(1))
    assert compose(projs[0], incs[0]) == identity_map(x)
    assert compose(projs[1], incs[1]) == identity_map(y)
    assert compose(projs[0], incs[1]).is_zero() and compose(projs[1], incs[0]).is_zero()
    both = compose(incs[0], projs[0]) + compose(incs[1], projs[1])
    table = {(0, 0): (1, identity_map(x).comps), (1, 1): (1, identity_map(y).comps)}
    assert both == identity_map(s)
    assert ChainMap(s, s, block_components(s, s, 0, table)) == both


def test_pullback_is_the_fiber_of_the_difference_map():
    # nested sums concatenate their parts: fib(X (+) Y -> Z) has parts X, Y, Z[-1]
    rng = np.random.default_rng(8)
    x, y, z = (random_complex(Quiver.a2(), F3, rng, max_dim=2) for _ in range(3))
    f, g = random_chain_map(x, z, rng), random_chain_map(y, z, rng)
    pb = homotopy_pullback(f, g)
    assert pb.parts == ((x, 0), (y, 0), (z, -1))
    s = direct_sum_complex(x, y)
    diff = compose(f, s.projection(0)) - compose(g, s.projection(1))
    assert pb == fib(diff)


GAP_QUIVERS = ["point", "a2", "kronecker", "d4"]


def _cospan(quiver, fld, rng):
    """Random legs f : X -> Z and g : Y -> Z."""
    x, y, z = (random_complex(quiver, fld, rng, max_dim=2, lo=-1, hi=1) for _ in "xyz")
    return random_chain_map(x, z, rng), random_chain_map(y, z, rng)


@pytest.mark.parametrize("name", GAP_QUIVERS)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_gap_map_of_a_pullbacks_own_square_is_the_identity(name, p):
    quiver, fld = resolve_quiver(name), PrimeField(p)
    rng = np.random.default_rng([p, 61])
    for _ in range(8):
        pb = homotopy_pullback(*_cospan(quiver, fld, rng))
        assert pb.gap_map(pb.proj_first, pb.proj_second, pb.witness.comps) == identity_map(pb)


@pytest.mark.parametrize("name", GAP_QUIVERS)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_cartesian_reads_the_gap_map_of_the_hand_built_table(name, p):
    """The gap map of a square into the pullback of its right and bottom
    edges is the table (top, left, -witness) by parts."""
    quiver, fld = resolve_quiver(name), PrimeField(p)
    rng = np.random.default_rng([p, 62])
    for _ in range(4):
        f = _cospan(quiver, fld, rng)[0]
        for sq in (cone(f).square, fib(f).square):
            pb, w = homotopy_pullback(sq.right, sq.bottom), sq.top.source
            table = {
                (0, None): (1, sq.top.comps),
                (1, None): (1, sq.left.comps),
                (2, None): (-1, sq.witness.comps),
            }
            by_hand = ChainMap(w, pb, block_components(w, pb, 0, table))
            assert pb.gap_map(sq.top, sq.left, sq.witness.comps) == by_hand
            assert is_cartesian(sq) == is_quasi_iso(by_hand)


def test_a_square_that_does_not_commute_has_no_gap_map():
    rng = np.random.default_rng(63)
    refused = 0
    for name, fld in itertools.product(GAP_QUIVERS, (F2, F3)):
        f, g = _cospan(resolve_quiver(name), fld, rng)
        if f.is_zero():
            continue
        pb, x = homotopy_pullback(f, g), f.source
        # g . 0 = 0 differs from f . id = f
        with pytest.raises(ValueError, match="chain-map law fails"):
            pb.gap_map(identity_map(x), zero_map(x, g.source))
        with pytest.raises(ValueError, match="do not meet the pullback's legs"):
            pb.gap_map(zero_map(g.source, x), zero_map(x, g.source))
        refused += 1
    assert refused


@pytest.mark.parametrize("name", GAP_QUIVERS)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_pullback_induced_is_the_gap_map_of_the_carried_square(name, p):
    """For a strict cospan map (a, b, c) from (f' a, g' b) to (c f', c g'),
    the induced map is the gap map of a . proj_first and b . proj_second
    with the witness carried by c."""
    quiver, fld = resolve_quiver(name), PrimeField(p)
    rng = np.random.default_rng([p, 64])
    for _ in range(8):
        f2, g2 = _cospan(quiver, fld, rng)
        x, y = (random_complex(quiver, fld, rng, max_dim=2, lo=-1, hi=1) for _ in "xy")
        a, b = random_chain_map(x, f2.source, rng), random_chain_map(y, g2.source, rng)
        z2 = random_complex(quiver, fld, rng, max_dim=2, lo=-1, hi=1)
        c = random_chain_map(f2.target, z2, rng)
        pb_from = homotopy_pullback(compose(f2, a), compose(g2, b))
        pb_to = homotopy_pullback(compose(c, f2), compose(c, g2))
        carried = {n: c.comp(n + 1).compose(h) for n, h in pb_from.witness.comps.items()}
        gap = pb_to.gap_map(
            compose(a, pb_from.proj_first), compose(b, pb_from.proj_second), carried
        )
        assert pullback_induced(pb_from, pb_to, a, b, c) == gap


def test_pullback_induced_refuses_a_cospan_map_that_does_not_commute():
    rng = np.random.default_rng(65)
    f, g = _cospan(Quiver.a2(), F3, rng)
    while f.is_zero():
        f, g = _cospan(Quiver.a2(), F3, rng)
    pb, z = homotopy_pullback(f, g), f.target
    # 0 . f differs from f . id
    with pytest.raises(ValueError, match="cospan map does not commute strictly"):
        pullback_induced(pb, pb, identity_map(f.source), identity_map(g.source), zero_map(z, z))


def test_direct_sum_projection_is_quasi_iso_off_acyclic():
    x = _pt_complex(F2, 0, [2, 1], [[[1], [0]]])
    a = cone(identity_map(_pt_complex(F2, 0, [1], [])))
    s = direct_sum_complex(x, a)
    assert is_quasi_iso(s.projection(0))
    assert is_quasi_iso(s.inclusion(0))
    assert not is_quasi_iso(s.inclusion(1))


# -- the trusted graded sum: its law is checked on the blocks ----------------------


def test_graded_sum_rejects_a_twist_between_the_wrong_parts():
    f = _rand_map(41, quiver=Quiver.a2(), field=F3)
    x, y = f.source, f.target
    other = cone(identity_map(_pt_complex(F3, 0, [1], [])))
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
    c = cone(_rand_map(44, quiver=Quiver.a2(), field=F3))
    with pytest.raises(ValueError, match="a twist leaves part 0"):
        c.inclusion(0)
    with pytest.raises(ValueError, match="a twist enters part 1"):
        c.projection(1)


@given(chain_maps(max_dim=2), st.integers(-2, 2))
def test_trusted_sums_pass_the_checks_they_skip(f, k):
    """Every graded sum, shift and biproduct inclusion or projection, built
    without the d² or chain-law check, passes it when rebuilt checked.  The
    public constructors return such sums, each a Complex in its own right."""
    x, y = f.source, f.target
    sums = [
        _graded_sum([(x, k), (y, 0)]),
        _graded_sum([(x, k + 1), (y, k)], {(1, 0): (1, f)}),
        _graded_sum([(x, k), (y, k - 1)], {(1, 0): (-1, f)}),
        _graded_sum([(x, 1), (y, 0), (y, 0)], {(1, 0): (1, f), (2, 0): (-1, f)}),
        cone(f),
        fib(f),
        homotopy_pullback(f, -f),
        homotopy_pushout(f, -f),
        direct_sum_complex(x, y),
        # parts that are graded sums themselves, read whole by the inclusions
        direct_sum_complex(cone(f), fib(f)),
    ]
    for s in sums:
        assert isinstance(s, Complex)
        assert Complex(s.quiver, s.field, s.lo, s.terms, s.diffs) == s
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
    st.sampled_from((PT, Quiver.a2(), KRONECKER, resolve_quiver("d4"))),
    st.sampled_from((2, 3, 5)),
    st.integers(0, 2**32 - 1),
)
def test_structure_maps_made_on_first_read_pass_the_checks_and_are_kept(quiver, p, seed):
    """Every cached map, witness and square of cone, fib and the homotopy
    (co)limits passes the checking constructors when rebuilt, and a second
    read returns the identical object."""
    rng = np.random.default_rng(seed)
    x, y, w = (random_complex(quiver, PrimeField(p), rng, max_dim=2, lo=-1, hi=1) for _ in "xyw")
    f, g, k = random_chain_map(x, y, rng), random_chain_map(w, y, rng), random_chain_map(x, w, rng)
    c, fb = cone(f), fib(f)
    pb, po = homotopy_pullback(f, g), homotopy_pushout(f, k)
    reads = [
        (c, "inj_first", y, c),
        (fb, "proj_first", fb, x),
        (pb, "proj_first", pb, x),
        (pb, "proj_second", pb, w),
        (po, "inj_first", y, po),
        (po, "inj_second", w, po),
    ]
    for obj, name, source, target in reads:
        got = getattr(obj, name)
        assert getattr(obj, name) is got
        assert got.source == source and got.target == target
        _rechecked_map(got)
    # the cone's projection to X[1] is made on each call, not kept
    proj = c.projection(0)
    assert proj.source == c and proj.target == shift(x, 1)
    _rechecked_map(proj)
    for obj, composite in ((c, compose(c.inj_first, f)), (fb, compose(f, fb.proj_first))):
        wit = obj.witness
        assert obj.witness is wit
        assert wit.from_map.is_zero() and wit.to_map == composite
        _rechecked_homotopy(wit)
    squares = ((pb, (f, g), ("right", "bottom")), (po, (f, k), ("top", "left")))
    squares += ((c, (f,), ("top",)), (fb, (f,), ("right",)))
    for obj, legs, edges in squares:
        sq = obj.square
        assert obj.square is sq and sq.witness is obj.witness
        assert all(getattr(sq, edge) is leg for edge, leg in zip(edges, legs))
        assert _rechecked_square(sq) == sq


def _counted(built, name, method):
    """method, appending name to built on every call."""

    def wrapper(*args, **kwargs):
        built.append(name)
        return method(*args, **kwargs)

    return wrapper


def test_readers_of_the_complex_alone_build_no_structure_maps(monkeypatch):
    """fib(f), is_orthogonal and boundedness_window read only the
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
        fib(e)
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
    assert cone_homology_dims(f) == homology_dims(cone(f))
    fiber = [k for k, dims in homology_dims(fib(f)).items() if any(dims)]
    window = BoundWindow(min(fiber), max(fiber) + 1) if fiber else None
    assert boundedness_window(f) == window


def test_quasi_iso_and_fiber_homology_build_no_graded_sum(monkeypatch):
    """is_quasi_iso, boundedness_window and _fiber_support read the cone's ranks
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
        _fiber_support(f)
    assert built == []


def test_hom_transports_refuse_the_wrong_mapping_complexes():
    f = _rand_map(46, quiver=Quiver.a2(), field=F3)
    x, y = f.source, f.target
    hxx, hxy, hyx, hyy = (hom_complex(a, b) for a, b in ((x, x), (x, y), (y, x), (y, y)))
    for src, dst, maps in (
        (hxy, hxy, {"post": f}),  # f does not start at the target of hom(x, y)
        (hxx, hxx, {"pre": f}),  # f does not end at the source of hom(x, x)
        (hxy, hxy, {}),  # neither map: no identity transport is built
        (hxx, hxy, {}),  # the identity cannot change the target
        (hyy, hxy, {"post": f}),  # nor the source
        (hyx, hxy, {"pre": f, "post": identity_map(x)}),
    ):
        with pytest.raises(ValueError, match="transport between the wrong"):
            hom_transport(src, dst, 0, **maps)
    for n in (-1, 0, 1):
        post = hom_transport(hxx, hxy, n, post=f)
        pre = hom_transport(hyy, hxy, n, pre=f)
        both = hom_transport(hyx, hxy, n, pre=f, post=f)
        assert post.rows == pre.rows == both.rows == hxy.dim(n)


def _transport_cases(quiver, p, seed):
    """(src, dst, pre, post) for post alone, pre alone and both, on random
    complexes x, y, t and a random chain map f : x -> y."""
    rng = np.random.default_rng(seed)
    x, y, t = (random_complex(quiver, PrimeField(p), rng, max_dim=2, lo=-2, hi=2) for _ in "xyt")
    f = random_chain_map(x, y, rng)
    return (
        (hom_complex(t, x), hom_complex(t, y), None, f),
        (hom_complex(y, t), hom_complex(x, t), f, None),
        (hom_complex(y, x), hom_complex(x, y), f, f),
    )


@given(
    st.sampled_from((PT, Quiver.a2(), KRONECKER)),
    st.sampled_from((2, 3, 5)),
    st.integers(0, 2**32 - 1),
)
def test_hom_transports_commute_with_the_hom_differentials(quiver, p, seed):
    """D_n T_n = T_{n-1} D_n in every degree, for post alone, pre alone and
    both, so the chain-map check the transport does not make would have
    passed."""
    for src, dst, pre, post in _transport_cases(quiver, p, seed):
        for n in range(-5, 6):
            lhs = dst.diff(n) @ hom_transport(src, dst, n, pre, post)
            assert lhs == hom_transport(src, dst, n - 1, pre, post) @ src.diff(n)
        transport_map(src, dst, pre, post)  # the checking constructor agrees


@pytest.mark.parametrize("quiver", [Quiver.a2(), KRONECKER], ids=["a2", "kronecker"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_hom_transport_in_one_step_is_the_product_of_its_two_halves(quiver, p):
    """phi -> q phi p carried at once equals precomposing with p, then
    postcomposing with q, through the mapping complex between them.  p is
    the inclusion Y -> cone(X -> Y) and q the projection fib(Y -> X) -> Y,
    nonzero maps, so some transports are nonzero."""
    rng, nonzero = np.random.default_rng([p, 49]), 0
    for _ in range(3):
        x, y = (random_complex(quiver, PrimeField(p), rng, max_dim=2, lo=-1, hi=1) for _ in "xy")
        pre = cone(random_chain_map(x, y, rng)).inj_first
        post = fib(random_chain_map(y, x, rng)).proj_first
        src, mid = hom_complex(pre.target, post.source), hom_complex(y, post.source)
        dst = hom_complex(y, y)
        for n in range(-3, 4):
            halves = hom_transport(mid, dst, n, post=post) @ hom_transport(src, mid, n, pre=pre)
            assert hom_transport(src, dst, n, pre=pre, post=post) == halves, n
            nonzero += bool(halves.a.any())
    assert nonzero


def test_encode_refuses_a_graded_map_of_another_height_in_a_free_slot():
    """A free slot's flat maps are their own coordinates, but only at the
    slot's height: the one flat entry of a map between lines is not spread
    over the four coordinates of the free slot Hom(F2^2, F2^2)."""
    x, line = _pt_complex(F2, 0, [2], []), _simple(F2)
    hom = hom_complex(x, x)
    assert hom.slots(0)[0][1:] == (4, None)
    with pytest.raises(ValueError):
        hom.encode(0, {0: identity_map(line).comp(0)})
    assert hom.encode(0, {0: identity_map(x).comp(0)}).ravel().tolist() == [1, 0, 0, 1]


def test_total_solve_returns_none_without_a_solution():
    """The identity of a complex with homology is not null-homotopic, so the
    one-node system -D_1 h = 0 - id has no solution; the zero map has the
    zero solution, with the nullity of D_1."""
    x = _simple(F2)
    hom = hom_complex(x, x)
    assert total_solve([(hom, 1)], [], [(zero_map(x, x) - identity_map(x)).comps]) is None
    parts, nullity = total_solve([(hom, 1)], [], [{}])
    assert all(c.is_zero() for c in parts[0].values())
    assert nullity == hom.dim(1) - rank(hom.diff(1))


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
