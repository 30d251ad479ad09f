import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import torsionlab.linalg
from tests.strategies import PRIMES, complexes, matrices, reps
from tests.test_quiver import SRC, callers_of
from torsionlab.complexes import homology_dims
from torsionlab.document import MAX_DIM
from torsionlab.linalg import (
    Mat,
    PrimeField,
    image_basis,
    inverse,
    kernel_basis,
    kernel_coords,
    quotient,
    rank,
    rref,
    solve,
)
from torsionlab.quiver import Quiver, QuiverRep, graded_from_flat, hom_constraint_matrix, random_rep

F2 = PrimeField(2)
F5 = PrimeField(5)


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    for modulus in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="not an integer"):
            PrimeField(modulus)
    PrimeField(251)


def test_rref_rank_one_over_f5():
    # hand reduction: subtract twice row 0, leaving a single pivot in column 0
    m = Mat(F5, [[1, 2], [2, 4]])
    r, piv = rref(m)
    assert piv == (0,)
    assert r.a.tolist() == [[1, 2], [0, 0]]
    assert rank(m) == 1


def test_kernel_matches_enumeration_over_f2():
    m = Mat(F2, [[1, 1, 0], [0, 1, 1]])
    # oracle: walk all 8 vectors of F_2^3 and keep those killed by m
    killed = [
        v
        for v in itertools.product((0, 1), repeat=3)
        if not ((m.a @ np.array(v)) % 2).any()
    ]
    assert set(killed) == {(0, 0, 0), (1, 1, 1)}
    k = kernel_basis(m)
    assert k.cols == 1
    assert tuple(int(x) for x in k.a[:, 0]) == (1, 1, 1)


def test_zero_sized_shapes():
    z = Mat.zeros(F2, 0, 3)
    assert rank(z) == 0
    assert kernel_basis(z).shape == (3, 3)
    zz = Mat.zeros(F2, 3, 0)
    assert kernel_basis(zz).shape == (0, 0)
    assert (z @ Mat.zeros(F2, 3, 2)).shape == (0, 2)
    assert image_basis(zz).shape == (3, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("shape", [(0, 0), (0, 1), (0, 3), (1, 0), (3, 0)])
def test_zero_sized_answers(p, shape):
    """Every public answer on a matrix without entries, as elimination gives
    it; rref, rank, kernel_basis and image_basis give it without one."""
    fld = PrimeField(p)
    rows, cols = shape
    m = Mat.zeros(fld, rows, cols)
    with counted_eliminations() as calls:
        assert rref(m) == (m, ())
        assert rank(m) == 0
        assert kernel_basis(m) == Mat.identity(fld, cols)
        assert image_basis(m) == Mat.zeros(fld, rows, 0)
    assert calls == []
    b = Mat(fld, np.arange(2 * cols).reshape(cols, 2))
    assert kernel_coords(kernel_basis(m), b) == b
    free = (Mat.zeros(fld, cols, 2), cols)
    assert solve(m, Mat.zeros(fld, rows, 2)) == free
    assert solve(m, Mat(fld, np.ones((rows, 2), dtype=np.int64))) == (None if rows else free)
    if rows == cols:
        assert inverse(m) == m
    if cols == 0:
        assert quotient(fld, rows, m) == (Mat.identity(fld, rows),) * 2
    else:
        with pytest.raises(ValueError, match="dependent"):
            quotient(fld, rows, m)


# -- shared constants, zero tests, equality and products --------------------------


def test_small_zero_and_identity_matrices_are_shared_read_only_constants():
    side = math.isqrt(torsionlab.linalg._SHARED_CELLS)  # the largest shared identity
    for p in PRIMES:
        zero, one = Mat.zeros(PrimeField(p), 3, 4), Mat.identity(PrimeField(p), side)
        assert Mat.zeros(PrimeField(p), 3, 4) is zero
        assert Mat.identity(PrimeField(p), side) is one
        for m in (zero, one):
            assert not m.a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                m.a[0, 0] = 1
        assert zero.is_zero() and one == Mat(PrimeField(p), np.eye(side, dtype=np.int64))
    assert Mat.zeros(F2, 3, 4) is not Mat.zeros(F5, 3, 4)
    assert Mat.zeros(F2, 3, 4) is not Mat.zeros(F2, 4, 3)
    # a product with an empty operand is the shared zero of its shape
    assert Mat.zeros(F2, 3, 0) @ Mat.identity(F2, 0) @ Mat.zeros(F2, 0, 4) is Mat.zeros(F2, 3, 4)
    assert Mat.identity(F2, 2) @ Mat.zeros(F2, 2, 0) is Mat.zeros(F2, 2, 0)


def test_answers_without_entries_are_the_shared_zeros():
    """quotient, kernel_coords and graded_from_flat build no matrix without
    cells: each returns Mat.zeros of its shape."""
    for p in PRIMES:
        fld = PrimeField(p)
        for n in (0, 3):
            proj, sect = quotient(fld, n, Mat.identity(fld, n))
            assert proj is Mat.zeros(fld, 0, n) and sect is Mat.zeros(fld, n, 0)
        # no columns to write, or a zero basis: coordinates of no cells
        basis = kernel_basis(Mat(fld, [[1, 1]]))
        assert kernel_coords(basis, Mat.zeros(fld, 2, 0)) is Mat.zeros(fld, 1, 0)
        assert kernel_coords(Mat.zeros(fld, 2, 0), Mat.zeros(fld, 2, 3)) is Mat.zeros(fld, 0, 3)
        assert kernel_coords(Mat.zeros(fld, 2, 0), Mat.identity(fld, 2)) is None
        a, b = (QuiverRep(Quiver.a2(), fld, dims, (Mat.zeros(fld, dims[1], dims[0]),))
                for dims in ((2, 0), (1, 3)))
        comps = graded_from_flat(a, b, np.arange(2, dtype=np.int64))
        assert comps[1] is Mat.zeros(fld, 3, 0) and comps[0] == Mat(fld, [[0, 1]])
        # solutions with no unknowns, sums and differences of no cells
        assert solve(Mat.zeros(fld, 2, 0), Mat.zeros(fld, 2, 1)) == (Mat.zeros(fld, 0, 1), 0)
        assert solve(Mat.zeros(fld, 2, 0), Mat.zeros(fld, 2, 1))[0] is Mat.zeros(fld, 0, 1)
        empty = Mat(fld, np.zeros((2, 0), dtype=np.int64))
        assert empty + empty is Mat.zeros(fld, 2, 0) and empty - empty is Mat.zeros(fld, 2, 0)


def test_no_matrix_without_entries_goes_through_the_constructor():
    """Every matrix without entries that the suite asks for is the shared
    Mat.zeros of its shape: on the first cases of every default property,
    Mat.__init__ never receives an array without cells."""
    import torsionlab.suite as suite

    config, init, empty = suite.SuiteConfig(), Mat.__init__, []

    def spying(self, field, data, shape=None):
        init(self, field, data, shape)
        if not self.a.size:
            empty.append(self.shape)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Mat, "__init__", spying)
        for name, _ in suite.PROPERTIES:
            for case in range(4):
                assert suite.replay_case(config, name, case) is None, (name, case)
    assert not empty


def test_shapes_above_the_bound_are_not_kept():
    """The bound protects a document of points at dimension MAX_DIM: a hom
    space between two of them has MAX_DIM**2 unknowns and no equations, so
    its kernel basis is a MAX_DIM**2 identity (134 MB) that must not stay
    cached.  The same path at MAX_DIM unknowns is above the bound too."""
    bound = torsionlab.linalg._SHARED_CELLS
    assert (MAX_DIM**2) ** 2 > MAX_DIM**2 > bound
    side = math.isqrt(bound) + 1
    no_equations = Mat.zeros(F2, 0, MAX_DIM)
    cached = torsionlab.linalg._shared.cache_info().currsize
    kernel = kernel_basis(no_equations)
    assert kernel == Mat(F2, np.eye(MAX_DIM, dtype=np.int64))
    assert kernel is not kernel_basis(no_equations)
    assert Mat.identity(F2, side) is not Mat.identity(F2, side)
    assert Mat.zeros(F2, 1, bound + 1) is not Mat.zeros(F2, 1, bound + 1)
    assert torsionlab.linalg._shared.cache_info().currsize == cached


@st.composite
def viewed(draw, p: int, rows: int, cols: int):
    """(Mat over F_p, the numpy array it stands for), the Mat built from a
    plain array, a transpose or a selection of columns, entries unreduced."""
    def entries(r, c):
        drawn = draw(st.lists(st.integers(-p, 2 * p), min_size=r * c, max_size=r * c))
        return np.asarray(drawn, dtype=np.int64).reshape(r, c)

    kind = draw(st.sampled_from(("plain", "transpose", "columns")))
    if kind == "transpose":
        view = entries(cols, rows).T
    elif kind == "columns":
        picks = draw(st.lists(st.integers(0, cols + 1), min_size=cols, max_size=cols))
        view = entries(rows, cols + 2)[:, picks]
    else:
        view = entries(rows, cols)
    return Mat(PrimeField(p), view), view % p


@given(st.sampled_from(PRIMES), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_zero_test_equality_and_product_agree_with_numpy(p, rows, inner, cols, data):
    (a, ref_a), (b, ref_b) = data.draw(viewed(p, rows, inner)), data.draw(viewed(p, inner, cols))
    c, ref_c = data.draw(viewed(p, rows, inner))
    assert a.is_zero() == (not ref_a.any())
    assert (a == c) == np.array_equal(ref_a, ref_c) == (not a != c)
    assert a == Mat(a.field, ref_a.copy()) and not a != Mat(a.field, ref_a.copy())
    product = a @ b
    assert product.field == a.field and product.shape == (rows, cols)
    assert np.array_equal(product.a, (ref_a @ ref_b) % p)
    # never equal across fields or shapes, even with the same entries
    for q in PRIMES:
        assert (Mat(PrimeField(q), ref_a) == a) == (q == p)
    if rows != inner:
        assert a != Mat(a.field, ref_a.reshape(inner, rows))
    assert (a == Mat(a.field, ref_a.reshape(1, -1))) == (rows == 1)


def test_a_transposed_matrix_is_not_c_contiguous():
    """The view case of the test above reaches a Mat whose array is not
    C-ordered; equality reads its entries in row order all the same."""
    m = Mat(F5, np.arange(6).reshape(2, 3).T)
    assert not m.a.flags.c_contiguous
    assert m == Mat(F5, [[0, 3], [1, 4], [2, 0]])


def test_solve_reports_inconsistency():
    m = Mat(F2, [[1, 1], [1, 1]])
    b = Mat(F2, [[1], [0]])
    assert solve(m, b) is None


def test_solve_batched_rhs():
    m = Mat(F5, [[1, 2], [3, 4]])
    b = Mat(F5, [[1, 0], [0, 1]])
    x, nullity = solve(m, b)
    assert (m @ x) == b
    assert nullity == 0


def test_inverse_round_trip():
    m = Mat(F5, [[1, 2], [3, 4]])
    assert (inverse(m) @ m) == Mat.identity(F5, 2)
    with pytest.raises(ValueError):
        inverse(Mat(F5, [[1, 2], [2, 4]]))


def test_quotient_contract():
    basis = Mat(F2, [[1], [1], [1]])
    q, s = quotient(F2, 3, basis)
    assert q.shape == (2, 3)
    assert s.shape == (3, 2)
    assert (q @ s) == Mat.identity(F2, 2)
    assert (q @ basis).is_zero()


def test_quotient_rejects_dependent_basis():
    with pytest.raises(ValueError):
        quotient(F2, 2, Mat(F2, [[1, 1], [0, 0]]))


def test_quotient_by_zero_subspace_is_identity():
    q, s = quotient(F5, 3, Mat.zeros(F5, 3, 0))
    assert q == Mat.identity(F5, 3)
    assert s == Mat.identity(F5, 3)


@given(matrices())
def test_rref_idempotent(m):
    r, piv = rref(m)
    r2, piv2 = rref(r)
    assert r == r2 and piv == piv2


@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).cols == m.cols


@given(matrices())
def test_kernel_columns_are_killed(m):
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    assert rank(k) == k.cols


@given(matrices())
def test_image_basis_spans(m):
    im = image_basis(m)
    assert rank(im) == im.cols == rank(m)
    # every column of m is expressible in the image basis
    assert solve(im, m) is not None


@given(matrices())
def test_solve_substitutes(m):
    rng = np.random.default_rng(0)
    x0 = Mat(m.field, rng.integers(0, m.field.p, size=(m.cols, 1)))
    b = m @ x0
    got = solve(m, b)
    assert got is not None
    x, nullity = got
    assert (m @ x) == b
    assert nullity == m.cols - rank(m)


@given(matrices(max_dim=3))
def test_quotient_dimension(m):
    sub = image_basis(m)
    q, s = quotient(m.field, m.rows, sub)
    assert q.rows == m.rows - sub.cols
    assert (q @ sub).is_zero()
    assert (q @ s) == Mat.identity(m.field, q.rows)


# -- one elimination per answer ------------------------------------------------


# Every row reduction runs exactly one of these kernels, chosen by the field
# alone: the packed one over F2 and F3 (full, or forward for rank), the numpy
# one over larger primes.
KERNELS = ("_eliminate_packed", "_eliminate_numpy")


@contextmanager
def counted_eliminations():
    """Records every row reduction linalg runs, as the kernel's name and the
    number of rows it reduced."""
    calls = []

    def counting(name, inner):
        def run(rows, *args, **kwargs):
            calls.append((name, len(rows)))
            return inner(rows, *args, **kwargs)

        return run

    with pytest.MonkeyPatch.context() as patch:
        for name in KERNELS:
            patch.setattr(torsionlab.linalg, name, counting(name, getattr(torsionlab.linalg, name)))
        yield calls


def _eliminations(fn, *args) -> int:
    with counted_eliminations() as calls:
        try:
            fn(*args)
        except ValueError:  # singular or dependent input still costs one
            pass
    return len(calls)


@given(matrices())
def test_each_answer_costs_one_elimination(m):
    b = Mat(m.field, np.ones((m.rows, 2), dtype=np.int64))
    assert _eliminations(solve, m, b) == 1
    assert _eliminations(quotient, m.field, m.rows, m) == 1
    if m.rows == m.cols:
        assert _eliminations(inverse, m) == 1
    k = kernel_basis(m)
    assert _eliminations(kernel_coords, k, k) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1_048_573])
def test_the_field_alone_picks_the_kernel(p):
    """rank, kernel_basis, solve and quotient run the packed kernel over F2
    and F3 and the numpy kernel over larger primes, at 1 x 1, 16 x 16 and
    40 x 40 alike: no size switch picks between them."""
    fld = PrimeField(p)
    want = "_eliminate_packed" if p <= 3 else "_eliminate_numpy"
    rng = np.random.default_rng(p)
    for n in (1, 16, 40):
        m = Mat(fld, rng.integers(0, p, size=(n, n)))
        b = Mat(fld, rng.integers(0, p, size=(n, 2)))
        runs = [(rank, m), (kernel_basis, m), (solve, m, b), (quotient, fld, n, image_basis(m))]
        for fn, *args in runs:
            with counted_eliminations() as calls:
                fn(*args)
            assert [name for name, _ in calls] == [want], (fn.__name__, n)


@given(complexes())
def test_homology_dims_ranks_each_stored_component_once(x):
    with counted_eliminations() as calls:
        homology_dims(x)
    assert len(calls) <= sum(len(d.components) for d in x.diffs)


@given(matrices(), st.integers(0, 2**32 - 1))
def test_kernel_coords_match_solving(m, seed):
    """Coordinates read off the free rows equal the eliminated solution, and
    vectors outside the span come back as None exactly when solve says so."""
    rng = np.random.default_rng(seed)
    k = kernel_basis(m)
    p = m.field.p
    inside = Mat(m.field, k.a @ rng.integers(0, p, size=(k.cols, 3)))
    assert kernel_coords(k, inside) == solve(k, inside)[0]
    anywhere = Mat(m.field, rng.integers(0, p, size=(m.cols, 1)))
    got = kernel_coords(k, anywhere)
    want = solve(k, anywhere)
    assert (got is None) == (want is None)
    if want is not None:
        assert got == want[0]
    # a pivot column of m is not killed by m, so its unit vector is outside
    for c in rref(m)[1]:
        unit = Mat(m.field, np.eye(m.cols, dtype=np.int64)[:, c : c + 1])
        assert kernel_coords(k, unit) is None and solve(k, unit) is None


@given(matrices(), st.data())
def test_a_square_kernel_basis_is_the_identity(m, data):
    """A square kernel_basis output has no pivot row, so it is the identity;
    kernel_coords and HomComplex._place pass coordinates in it through.  On
    drawn matrices, their zero multiples, and the intertwiner constraints
    between drawn representations (a HomComplex slot's basis is their
    kernel)."""
    a = data.draw(reps())
    b = random_rep(a.quiver, a.field, 3, np.random.default_rng(data.draw(st.integers(0, 99))))
    for c in (m, Mat(m.field, 0 * m.a), hom_constraint_matrix(a, b)):
        k = kernel_basis(c)
        assert (k.rows == k.cols) == (rank(c) == 0)
        if k.rows == k.cols:
            assert k == Mat.identity(c.field, c.cols)


def test_kernel_coords_in_a_square_basis_are_the_columns_themselves():
    """In a square basis (the identity) kernel_coords returns b itself, after
    the same field and shape checks as every other basis; other bases still
    answer None for a column outside their span."""
    for p in PRIMES:
        fld = PrimeField(p)
        eye = kernel_basis(Mat.zeros(fld, 2, 3))
        b = Mat(fld, [[1, 0], [0, 1], [1, 1]])
        assert eye == Mat.identity(fld, 3) and kernel_coords(eye, b) is b
        other = PrimeField(7)
        with pytest.raises(ValueError, match=rf"^field mismatch: F{p} vs F7$"):
            kernel_coords(eye, Mat(other, [[1], [0], [1]]))
        with pytest.raises(ValueError, match=r"^coordinate shape mismatch: \(3, 3\) vs \(2, 2\)$"):
            kernel_coords(eye, Mat.identity(fld, 2))
        line = kernel_basis(Mat(fld, [[1, 1, 0]]))  # 3 x 2: (p - 1, 1, 0) and e_2
        assert kernel_coords(line, Mat(fld, [[1], [0], [0]])) is None
        assert kernel_coords(line, line @ Mat(fld, [[1], [1]])) == Mat(fld, [[1], [1]])


def test_only_linalg_runs_an_elimination_kernel():
    """Every other module reduces through linalg's public answers, so that
    each reduction is one counted kernel run and every rank is rank's."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    for name in ("_eliminate", *KERNELS, "_packed", "_unpacked"):
        assert callers_of(sources, name) <= {"linalg"}, name
    assert callers_of(sources, "_eliminate_packed") == {"linalg"}


def test_only_linalg_and_complexes_skip_the_reduction_of_a_matrix():
    """linalg._reduced trusts its array to be reduced mod p already: linalg
    makes new zero and identity matrices with it, complexes each D_n of a
    mapping complex.  Every other module builds through Mat or Mat.of."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert callers_of(sources, "_reduced") == {"linalg", "complexes"}


@given(matrices(max_dim=5))
def test_quotient_matches_inverse_of_change_of_basis(m):
    """Reference: extend the basis by unit vectors in index order whenever
    they raise the rank, invert [basis | units], keep its bottom rows."""
    sub = image_basis(m)
    n, k = m.rows, sub.cols
    cob = sub
    for i in range(n):
        unit = Mat(m.field, np.eye(n, dtype=np.int64)[:, i : i + 1])
        wider = Mat(m.field, np.concatenate([cob.a, unit.a], axis=1))
        if rank(wider) > cob.cols:
            cob = wider
    assert cob.cols == n
    q, s = quotient(m.field, n, sub)
    assert q == Mat(m.field, inverse(cob).a[k:, :], (n - k, n))
    assert s == Mat(m.field, cob.a[:, k:], (n, n - k))


# -- elimination against a plain-Python Gauss-Jordan ------------------------------


def _gauss_jordan(rows: list[list[int]], p: int, limit: int) -> tuple[list[list[int]], list[int]]:
    """Reduce rows over F_p, pivoting on the first row with a nonzero entry in
    each column < limit, left to right; returns the rows and the pivots."""
    a = [list(r) for r in rows]
    piv, r = [], 0
    for c in range(limit):
        i = next((i for i in range(r, len(a)) if a[i][c] % p), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [e * inv % p for e in a[r]]
        for k in range(len(a)):
            if k != r and a[k][c]:
                f = a[k][c]
                a[k] = [(e - f * g) % p for e, g in zip(a[k], a[r])]
        piv.append(c)
        r += 1
    return a, piv


def _kernel_runs(a: np.ndarray, p: int, limit: int):
    """(name, the reduced rows as lists, the pivots) of both kernels, each
    called directly on its own copy, and of _eliminate; the numpy kernel,
    which _eliminate runs over primes >= 5 only, is run over F2 and F3 too,
    and the packed one only there."""
    linalg = torsionlab.linalg
    work = a.copy()
    piv = linalg._eliminate_numpy(work, p, limit)
    yield "numpy", work.tolist(), piv
    reduced, piv = linalg._eliminate(a, p, limit)
    yield "dispatch", reduced.tolist(), piv
    if p <= 3:
        packed = linalg._packed(a, p)
        piv = linalg._eliminate_packed(packed, p, limit)
        yield "packed", linalg._unpacked(packed, p, a.shape[1]).tolist(), piv


def _low_rank(rng, p, rows, cols):
    inner = int(rng.integers(0, min(rows, cols) + 1))
    a = rng.integers(0, p, size=(rows, inner)) @ rng.integers(0, p, size=(inner, cols))
    return a % p


# Squares up to 24 x 24, tall 40 x 8 and wide 8 x 40, and arrays without rows
# or columns, for both kernels, as (rows, cols, attached right-side columns);
# the random draws below add more squares and rectangles.
# The 0 x 6 array with 3 attached columns is the empty augmented system that a
# kernel must not write its (empty) row list back into.  70 x 130 and 130 x 70
# have packed rows of more than one 64-bit word for the F2/F3 kernel, packed
# and unpacked through np.packbits; narrower rows go through one product.
KERNEL_SHAPES = [
    (0, 0, 2), (0, 6, 3), (6, 0, 2), (40, 8, 3), (8, 40, 2), (24, 24, 1),
    (70, 130, 2), (130, 70, 2),
]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1_048_573])
def test_elimination_matches_plain_gauss_jordan(p):
    """Each elimination kernel, called directly on the same arrays, the
    dispatch _eliminate, and the answers rref and solve build on it, equal a
    plain-Python Gauss-Jordan; with attached right sides (limit < cols) too,
    down to the rows below the pivots.  Over F2 and F3 the packed kernel
    runs too, and its forward mode, which rank reads, counts the pivots.
    1,048,573 is the largest prime PrimeField accepts."""
    fld = PrimeField(p)
    rng = np.random.default_rng(p)
    shapes = KERNEL_SHAPES + [tuple(int(v) for v in rng.integers(0, 25, size=3)) for _ in range(60)]
    for rows, cols, k in shapes:
        if rng.random() < 0.5:
            m = Mat(fld, _low_rank(rng, p, rows, cols))
        else:
            m = Mat(fld, rng.integers(0, p, size=(rows, cols)))
        want, want_piv = _gauss_jordan(m.a.tolist(), p, cols)
        got, got_piv = rref(m)
        assert got_piv == tuple(want_piv)
        assert rank(m) == len(want_piv)
        assert got == Mat(fld, np.array(want, dtype=np.int64).reshape(rows, cols))
        # attached right sides: half consistent (m times a vector), half random
        if rng.random() < 0.5:
            b = m @ Mat(fld, rng.integers(0, p, size=(cols, k)))
        else:
            b = Mat(fld, rng.integers(0, p, size=(rows, k)))
        aug, piv = _gauss_jordan([r + s for r, s in zip(m.a.tolist(), b.a.tolist())], p, cols)
        a = np.concatenate([m.a, b.a], axis=1)
        for name, reduced, got_piv in _kernel_runs(a, p, cols):
            assert got_piv == piv, name
            assert reduced == aug, name
        if p <= 3:  # the forward mode, which rank reads, counts the same pivots
            packed = torsionlab.linalg._packed(a, p)
            assert len(torsionlab.linalg._eliminate_packed(packed, p, cols, forward=True)) == len(piv)
        assert a.tolist() == np.concatenate([m.a, b.a], axis=1).tolist()  # not written to
        sol = solve(m, b)
        if any(e for r in aug[len(piv):] for e in r[cols:]):
            assert sol is None
            continue
        x = np.zeros((cols, k), dtype=np.int64)
        for r, c in enumerate(piv):
            x[c] = aug[r][cols:]
        assert sol is not None
        assert sol[0] == Mat(fld, x) and sol[1] == cols - len(piv)


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("cols", (61, 62, 63, 64, 127))
def test_packing_round_trips_and_reduces_at_the_word_boundaries(p, cols):
    """_packed takes one product up to 62 columns and np.packbits past them.
    On both sides of that boundary, and at 127 columns, rows come back
    unchanged through _packed and _unpacked, and both modes of
    _eliminate_packed agree with a plain Gauss-Jordan: the reduced rows and
    pivots, and the forward mode's count of them, with and without the last
    column riding along.  The rows include one of all p - 1 (all 2s over
    F3) and one whose only p - 1 sits in the last column."""
    linalg = torsionlab.linalg
    rng = np.random.default_rng([p, cols])
    edge = np.zeros((2, cols), dtype=np.int64)
    edge[0], edge[1, -1] = p - 1, p - 1
    a = np.concatenate([edge, rng.integers(0, p, size=(6, cols)), _low_rank(rng, p, 5, cols)])
    assert linalg._unpacked(linalg._packed(a, p), p, cols).tolist() == a.tolist()
    for limit in (cols, cols - 1):
        want, want_piv = _gauss_jordan(a.tolist(), p, limit)
        rows = linalg._packed(a, p)
        assert len(linalg._eliminate_packed(rows, p, limit, forward=True)) == len(want_piv)
        assert linalg._eliminate_packed(rows, p, limit) == want_piv
        assert linalg._unpacked(rows, p, cols).tolist() == want
