import itertools
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import torsionlab.linalg
from tests.strategies import complexes, matrices
from torsionlab.complexes import homology_dims
from torsionlab.linalg import (
    Mat,
    PrimeField,
    hstack,
    image_basis,
    inverse,
    kernel_basis,
    kernel_coords,
    quotient,
    rank,
    rref,
    solve,
)

F2 = PrimeField(2)
F5 = PrimeField(5)


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    PrimeField(251)


def test_rref_rank_one_over_f5():
    # hand reduction: subtract twice row 0, leaving a single pivot in column 0
    m = Mat(F5, [[1, 2], [2, 4]])
    r, piv = rref(m)
    assert piv == (0,)
    assert r.tolist() == [[1, 2], [0, 0]]
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


@contextmanager
def counted_eliminations():
    """Records the shape of every row reduction linalg runs."""
    calls = []
    inner = torsionlab.linalg._eliminate

    def counting(a, p, limit):
        calls.append(a.shape)
        return inner(a, p, limit)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(torsionlab.linalg, "_eliminate", counting)
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


@given(matrices(max_dim=5))
def test_quotient_matches_inverse_of_change_of_basis(m):
    """Reference: extend the basis by unit vectors in index order whenever
    they raise the rank, invert [basis | units], keep its bottom rows."""
    sub = image_basis(m)
    n, k = m.rows, sub.cols
    cob = sub
    for i in range(n):
        unit = Mat(m.field, np.eye(n, dtype=np.int64)[:, i : i + 1])
        wider = hstack([cob, unit])
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


def _low_rank(rng, p, rows, cols):
    inner = int(rng.integers(0, min(rows, cols) + 1))
    a = rng.integers(0, p, size=(rows, inner)) @ rng.integers(0, p, size=(inner, cols))
    return a % p


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_elimination_matches_plain_gauss_jordan(p):
    fld = PrimeField(p)
    rng = np.random.default_rng(p)
    for _ in range(150):
        rows, cols, k = (int(v) for v in rng.integers(0, 8, size=3))
        if rng.random() < 0.5:
            m = Mat(fld, _low_rank(rng, p, rows, cols))
        else:
            m = Mat(fld, rng.integers(0, p, size=(rows, cols)))
        want, want_piv = _gauss_jordan(m.tolist(), p, cols)
        got, got_piv = rref(m)
        assert got_piv == tuple(want_piv)
        assert got == Mat(fld, np.array(want, dtype=np.int64).reshape(rows, cols))
        # attached right sides: half consistent (m times a vector), half random
        if rng.random() < 0.5:
            b = m @ Mat(fld, rng.integers(0, p, size=(cols, k)))
        else:
            b = Mat(fld, rng.integers(0, p, size=(rows, k)))
        aug, piv = _gauss_jordan([r + s for r, s in zip(m.tolist(), b.tolist())], p, cols)
        sol = solve(m, b)
        if any(e for r in aug[len(piv):] for e in r[cols:]):
            assert sol is None
            continue
        x = np.zeros((cols, k), dtype=np.int64)
        for r, c in enumerate(piv):
            x[c] = aug[r][cols:]
        assert sol is not None
        assert sol[0] == Mat(fld, x) and sol[1] == cols - len(piv)
