import itertools

import numpy as np
import pytest
from hypothesis import given

from tests.strategies import random_rep_map, reps
from torsionlab.linalg import Mat, PrimeField
from torsionlab.quiver import (
    Quiver,
    QuiverRep,
    RepMap,
    direct_sum,
    flat_dim,
    hom_constraint_matrix,
    post_op,
    pre_op,
    random_rep,
    rep_cokernel,
    rep_hom_basis_flat,
    rep_kernel,
)

F2 = PrimeField(2)


def test_quiver_rejects_cycles():
    with pytest.raises(ValueError):
        Quiver(("a", "b"), (("a", "b"), ("b", "a")))
    with pytest.raises(ValueError):
        Quiver(("a",), (("a", "a"),))
    Quiver(("a", "b", "c"), (("a", "b"), ("a", "c"), ("b", "c")))


def test_quiver_rejects_bad_arrows():
    with pytest.raises(ValueError):
        Quiver(("a",), (("a", "z"),))
    with pytest.raises(ValueError):
        Quiver(("a", "a"), ())


def _a2_rep(dims, arrow_entries):
    quiver = Quiver.a2()
    arrow = Mat(F2, np.asarray(arrow_entries, dtype=np.int64).reshape(dims[1], dims[0]))
    return QuiverRep(quiver, F2, dims, (arrow,))


def _enumerate_hom_dim(a, b):
    # oracle: try every pair of component matrices and keep the intertwiners
    p = a.field.p
    count = 0
    sz_a = b.dims[0] * a.dims[0]
    sz_b = b.dims[1] * a.dims[1]
    for ent_a in itertools.product(range(p), repeat=sz_a):
        for ent_b in itertools.product(range(p), repeat=sz_b):
            fa = np.asarray(ent_a, dtype=np.int64).reshape(b.dims[0], a.dims[0])
            fb = np.asarray(ent_b, dtype=np.int64).reshape(b.dims[1], a.dims[1])
            lhs = (b.arrow_maps[0].a @ fa) % p
            rhs = (fb @ a.arrow_maps[0].a) % p
            if np.array_equal(lhs, rhs):
                count += 1
    # the solution set is a subspace, so its size is a power of p
    dim = 0
    while p**dim < count:
        dim += 1
    assert p**dim == count
    return dim


def test_hom_space_on_a2_matches_enumeration():
    proj = _a2_rep((1, 1), [1])  # F2 --id--> F2
    simple = _a2_rep((0, 1), [])  # 0 --> F2
    # forcing through the identity arrow kills every map out of proj
    assert rep_hom_basis_flat(proj, simple).cols == 0 == _enumerate_hom_dim(proj, simple)
    # the socle inclusion survives in the other direction
    assert rep_hom_basis_flat(simple, proj).cols == 1 == _enumerate_hom_dim(simple, proj)


@given(reps(max_dim=2))
def test_hom_basis_agrees_with_enumeration(a):
    if len(a.quiver.arrows) != 1 or a.field.p != 2:
        return
    rng = np.random.default_rng(7)
    b = random_rep(a.quiver, a.field, 2, rng)
    if (a.total_dim + b.total_dim) > 6:
        return
    assert rep_hom_basis_flat(a, b).cols == _enumerate_hom_dim(a, b)


def test_intertwiner_law_enforced():
    proj = _a2_rep((1, 1), [1])
    simple = _a2_rep((0, 1), [])
    with pytest.raises(ValueError):
        RepMap(proj, simple, (Mat.zeros(F2, 0, 1), Mat(F2, [[1]])))


def test_sum_and_difference_require_equal_endpoints():
    # same dims, different arrow maps: every component shape agrees, and the
    # componentwise sum would even satisfy the intertwiner law on either rep
    a = _a2_rep((1, 1), [1])
    b = _a2_rep((1, 1), [0])
    for f, g in (
        (RepMap.identity(a), RepMap.identity(b)),
        (RepMap.zero(a, a), RepMap.zero(b, b)),
        (RepMap.zero(a, b), RepMap.zero(b, a)),
    ):
        with pytest.raises(ValueError, match="different endpoints"):
            f + g
        with pytest.raises(ValueError, match="different endpoints"):
            f - g
    assert (RepMap.identity(a) - RepMap.identity(a)).is_zero()


def test_kernel_cokernel_shapes():
    quiver = Quiver.a2()
    a = _a2_rep((1, 1), [1])
    f = RepMap.identity(a)
    ker, inc = rep_kernel(f)
    assert ker.dims == (0, 0)
    cok, proj = rep_cokernel(f)
    assert cok.dims == (0, 0)
    z = RepMap.zero(a, a)
    ker, inc = rep_kernel(z)
    assert ker.dims == (1, 1)
    assert inc.components[0] == Mat.identity(F2, 1)


@given(reps())
def test_kernel_of_random_map(a):
    rng = np.random.default_rng(3)
    b = random_rep(a.quiver, a.field, 3, rng)
    f = random_rep_map(a, b, rng)
    ker, inc = rep_kernel(f)
    assert f.compose(inc).is_zero()
    cok, proj = rep_cokernel(f)
    assert proj.compose(f).is_zero()
    # rank-nullity vertexwise: both sides count the image
    for d_a, d_k, d_b, d_c in zip(a.dims, ker.dims, b.dims, cok.dims):
        assert d_a - d_k == d_b - d_c


@given(reps())
def test_direct_sum_biproduct_laws(a):
    rng = np.random.default_rng(11)
    b = random_rep(a.quiver, a.field, 3, rng)
    s, offsets = direct_sum(a, b, a)
    assert offsets == ((0,) * len(a.dims), a.dims, tuple(d + e for d, e in zip(a.dims, b.dims)))
    assert s.dims == tuple(2 * d + e for d, e in zip(a.dims, b.dims))

    def inj(rep, at):  # checked: the blocks at the offsets are intertwiners
        comps = []
        for v, (d, off) in enumerate(zip(rep.dims, at)):
            m = np.zeros((s.dims[v], d), dtype=np.int64)
            m[off : off + d] = np.eye(d, dtype=np.int64)
            comps.append(Mat(a.field, m))
        return RepMap(rep, s, tuple(comps))

    def proj(rep, at):
        return RepMap(s, rep, tuple(Mat(a.field, c.a.T) for c in inj(rep, at).components))

    summands = list(zip((a, b, a), offsets))
    for i, (r, at) in enumerate(summands):
        for j, (t, at_t) in enumerate(summands):
            through = proj(t, at_t).compose(inj(r, at))
            assert through == RepMap.identity(r) if i == j else through.is_zero()
    total = inj(a, offsets[0]).compose(proj(a, offsets[0]))
    for r, at in summands[1:]:
        total = total + inj(r, at).compose(proj(r, at))
    assert total == RepMap.identity(s)


def test_random_rep_dims_cover_range():
    rng = np.random.default_rng(0)
    seen = {random_rep(Quiver.point(), F2, 1, rng).dims[0] for _ in range(1000)}
    assert seen == {0, 1}


def test_random_rep_map_is_intertwiner():
    rng = np.random.default_rng(5)
    quiver = Quiver.a2()
    for _ in range(25):
        a = random_rep(quiver, F2, 3, rng)
        b = random_rep(quiver, F2, 3, rng)
        random_rep_map(a, b, rng)  # constructor enforces the law


# -- composition on flat graded maps, against the Kronecker operators ------------

# three vertices, two parallel arrows u -> v and one arrow v -> w
KRONECKER3 = Quiver(("u", "v", "w"), (("u", "v"), ("u", "v"), ("v", "w")))


def _rep_with_dims(quiver, fld, dims, rng):
    maps = []
    for src, tgt in quiver.arrows:
        shape = (dims[quiver.index(tgt)], dims[quiver.index(src)])
        maps.append(Mat(fld, rng.integers(0, fld.p, size=shape)))
    return QuiverRep(quiver, fld, tuple(dims), tuple(maps))


def _block_diag(blocks):
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)), np.int64)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _draws(quiver, fld, rng):
    """Triples of reps: dims in {0, 2}, so that zero-dimensional vertices
    occur in every position, then dims in [0, 3]."""
    n = len(quiver.vertices)
    patterns = [rng.choice((0, 2), size=(3, n)) for _ in range(16)]
    patterns += [rng.integers(0, 4, size=(3, n)) for _ in range(12)]
    for dims in patterns:
        yield tuple(_rep_with_dims(quiver, fld, d, rng) for d in dims)


def _any_map(a, b, rng):
    """A vertexwise map a -> b, not required to be an intertwiner."""
    comps = tuple(
        Mat(a.field, rng.integers(0, a.field.p, size=(t, s))) for t, s in zip(b.dims, a.dims)
    )
    return RepMap._unchecked(a, b, comps)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("quiver", [Quiver.point(), Quiver.a2(), KRONECKER3], ids=["point", "a2", "k3"])
def test_post_and_pre_op_equal_their_kronecker_operators(quiver, p):
    fld = PrimeField(p)
    rng = np.random.default_rng([p, len(quiver.arrows)])
    for a, b, c in _draws(quiver, fld, rng):
        m = _any_map(b, c, rng)
        for k in (0, 1, 3):
            # post: stacks of flat maps a -> b, sent to m . phi : a -> c
            stack = rng.integers(0, p, size=(flat_dim(a, b), k))
            kron = _block_diag(
                [np.kron(mv.a, np.eye(s, dtype=np.int64)) for mv, s in zip(m.components, a.dims)]
            )
            got = post_op(m, a, stack)
            assert got.shape == (flat_dim(a, c), k)
            assert np.array_equal(got, kron @ stack % p)
            # pre: stacks of flat maps c -> a, sent to phi . m : b -> a
            stack = rng.integers(0, p, size=(flat_dim(c, a), k))
            kron = _block_diag(
                [np.kron(np.eye(t, dtype=np.int64), mv.a.T) for mv, t in zip(m.components, a.dims)]
            )
            got = pre_op(m, a, stack)
            assert got.shape == (flat_dim(b, a), k)
            assert np.array_equal(got, kron @ stack % p)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("quiver", [Quiver.point(), Quiver.a2(), KRONECKER3], ids=["point", "a2", "k3"])
def test_hom_constraint_matrix_equals_its_kronecker_form(quiver, p):
    fld = PrimeField(p)
    rng = np.random.default_rng([p, len(quiver.arrows), 1])
    for a, b, _ in _draws(quiver, fld, rng):
        offsets = np.cumsum([0] + [t * s for t, s in zip(b.dims, a.dims)])
        rows = []
        for (src, tgt), a_map, b_map in zip(quiver.arrows, a.arrow_maps, b.arrow_maps):
            i, j = quiver.index(src), quiver.index(tgt)
            # b_map . phi_i - phi_j . a_map, on row-major flat components
            block = np.zeros((b.dims[j] * a.dims[i], offsets[-1]), dtype=np.int64)
            block[:, offsets[i] : offsets[i + 1]] += np.kron(b_map.a, np.eye(a.dims[i], dtype=np.int64))
            block[:, offsets[j] : offsets[j + 1]] -= np.kron(np.eye(b.dims[j], dtype=np.int64), a_map.a.T)
            rows.append(block)
        want = np.concatenate(rows) if rows else np.zeros((0, offsets[-1]), np.int64)
        assert hom_constraint_matrix(a, b) == Mat(fld, want)
