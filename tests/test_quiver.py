import ast
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

from tests.strategies import random_rep_map, reps
from torsionlab.complexes import (
    ChainMap,
    CommutingSquare,
    Complex,
    GradedSum,
    Homotopy,
    Pullback,
    Pushout,
    cone,
    fib,
    homotopy_pullback,
    identity_map,
    random_chain_map,
    random_complex,
    zero_map,
)
from torsionlab.linalg import Mat, PrimeField, kernel_basis
from torsionlab.quiver import (
    Lawful,
    Quiver,
    QuiverRep,
    RepMap,
    direct_sum,
    flat_dim,
    graded_from_flat,
    hom_constraint_matrix,
    post_op,
    pre_op,
    random_rep,
    rep_cokernel,
    rep_hom_basis_flat,
    rep_kernel,
)
from torsionlab.suite import resolve_quiver
from torsionlab.tstruct import TStructure, truncate_ge

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


def _hom_dim(a, b):
    """dim Hom(a, b) read off rep_hom_basis_flat: flat_dim(a, b) when no
    equation constrains the flat maps (None), else the basis's width."""
    basis = rep_hom_basis_flat(a, b)
    return flat_dim(a, b) if basis is None else basis.cols


def test_hom_space_on_a2_matches_enumeration():
    proj = _a2_rep((1, 1), [1])  # F2 --id--> F2
    simple = _a2_rep((0, 1), [])  # 0 --> F2
    # forcing through the identity arrow kills every map out of proj
    assert _hom_dim(proj, simple) == 0 == _enumerate_hom_dim(proj, simple)
    # the socle inclusion survives in the other direction
    assert _hom_dim(simple, proj) == 1 == _enumerate_hom_dim(simple, proj)


@given(reps(max_dim=2))
def test_hom_basis_agrees_with_enumeration(a):
    if len(a.quiver.arrows) != 1 or a.field.p != 2:
        return
    rng = np.random.default_rng(7)
    b = random_rep(a.quiver, a.field, 2, rng)
    if (a.total_dim + b.total_dim) > 6:
        return
    assert _hom_dim(a, b) == _enumerate_hom_dim(a, b)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", ["point", "a2", "a3", "kronecker", "d4"])
def test_hom_basis_is_none_exactly_where_kernel_basis_is_the_identity(name, p):
    """rep_hom_basis_flat(a, b) is None exactly when kernel_basis of the
    constraint matrix is square (the identity: no equation constrains the
    flat maps), and that same basis otherwise.  Half the draws have all
    arrow maps zero, so their constraint matrix has rows but no nonzero
    entry."""
    quiver, fld = resolve_quiver(name), PrimeField(p)
    rng = np.random.default_rng([p, len(quiver.vertices), len(quiver.arrows)])
    seen = set()
    for zero_arrows in (False, True) * 20:
        a, b = (random_rep(quiver, fld, 3, rng) for _ in "ab")
        if zero_arrows:
            zeros = (tuple(Mat.zeros(fld, *m.shape) for m in r.arrow_maps) for r in (a, b))
            a, b = (QuiverRep(quiver, fld, r.dims, z) for r, z in zip((a, b), zeros))
        constraints = hom_constraint_matrix(a, b)
        want, got = kernel_basis(constraints), rep_hom_basis_flat(a, b)
        if want.rows == want.cols:
            assert got is None
            seen.add("free with rows" if constraints.rows else "free")
        else:
            assert got == want
            seen.add("constrained")
    assert seen >= ({"free with rows", "constrained"} if quiver.arrows else {"free"}), seen


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
    # with at most one nonzero summand the sum is that summand itself
    zero = QuiverRep.zero(a.quiver, a.field)
    alone, at = direct_sum(zero, a, zero)
    assert alone is (zero if a.is_zero() else a)
    assert at == ((0,) * len(a.dims), (0,) * len(a.dims), a.dims)
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
    """post_op and pre_op are the block diagonal operators m_v (x) I_s and
    I_t (x) m_v^T, and times a stack of k = 0, 1 or 3 flat maps they give
    the flat composites m . phi and phi . m that RepMap.compose makes of its
    columns, so the reference shares no Kronecker convention with them."""
    fld = PrimeField(p)
    rng = np.random.default_rng([p, len(quiver.arrows)])
    for a, b, c in _draws(quiver, fld, rng):
        m = _any_map(b, c, rng)
        post = _block_diag(
            [np.kron(mv.a, np.eye(s, dtype=np.int64)) for mv, s in zip(m.components, a.dims)]
        )
        pre = _block_diag(
            [np.kron(np.eye(t, dtype=np.int64), mv.a.T) for mv, t in zip(m.components, a.dims)]
        )
        assert post.shape == (flat_dim(a, c), flat_dim(a, b))
        assert pre.shape == (flat_dim(b, a), flat_dim(c, a))
        # post: flat maps a -> b, sent to m . phi : a -> c;
        # pre: flat maps c -> a, sent to phi . m : b -> a
        sides = (
            (post_op(m, a), post, (a, b), m.compose),
            (pre_op(m, a), pre, (c, a), lambda phi: phi.compose(m)),
        )
        for op, kron, (src, tgt), composite in sides:
            assert op.dtype == np.int64 and np.array_equal(op, kron)
            for k in (0, 1, 3):
                stack = rng.integers(0, p, size=(flat_dim(src, tgt), k))
                want = np.zeros((op.shape[0], k), dtype=np.int64)
                for j in range(k):
                    phi = RepMap._unchecked(src, tgt, graded_from_flat(src, tgt, stack[:, j]))
                    want[:, j] = composite(phi).flat()
                assert np.array_equal(op @ stack % p, want)


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


SRC = Path(__file__).resolve().parents[1] / "src" / "torsionlab"

# every function in src/ that builds through Lawful._unchecked, as (module,
# qualified name); a new trusted construction is named here and in the
# Lawful docstring together
TRUSTED_CALLERS = {
    *(("quiver", f"RepMap.{m}") for m in
      ("zero", "identity", "compose", "__add__", "__sub__", "__neg__")),
    ("complexes", "ChainMap.__add__"),
    ("complexes", "ChainMap.__neg__"),
    ("complexes", "identity_map"),
    ("complexes", "zero_map"),
    ("complexes", "compose"),
    ("complexes", "CommutingSquare.strict"),
    ("complexes", "shift"),
    ("complexes", "GradedSum.inclusion"),
    ("complexes", "GradedSum.projection"),
    ("complexes", "_graded_sum"),
    ("complexes", "block_components"),
    ("complexes", "HomComplex.complex"),
    ("document", "parse_document"),
}


def _defs_where(sources: dict[str, str], hit) -> set[tuple[str, str]]:
    """(module, qualified name) of each top-level function or method with a
    node in its body for which hit holds."""
    found = set()
    for module, text in sources.items():
        for node in ast.parse(text).body:
            for d in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(d, ast.FunctionDef) and any(hit(c) for c in ast.walk(d)):
                    found.add((module, d.name if d is node else f"{node.name}.{d.name}"))
    return found


def trusted_callers(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, qualified name) of each top-level function or method whose
    body calls something._unchecked(...)."""
    return _defs_where(
        sources,
        lambda c: isinstance(c, ast.Call)
        and isinstance(c.func, ast.Attribute)
        and c.func.attr == "_unchecked",
    )


def degree_readers(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, qualified name) of each function or method outside tstruct
    that reads an attribute n, the degree of a cut."""
    return _defs_where(
        {m: text for m, text in sources.items() if m != "tstruct"},
        lambda c: isinstance(c, ast.Attribute) and c.attr == "n" and isinstance(c.ctx, ast.Load),
    )


def callers_of(sources: dict[str, str], name: str) -> set[str]:
    """The modules that call name(...) anywhere, top level included."""
    return {
        module
        for module, text in sources.items()
        for c in ast.walk(ast.parse(text))
        if isinstance(c, ast.Call)
        and name in (getattr(c.func, "id", None), getattr(c.func, "attr", None))
    }


def test_the_trusted_path_has_a_fixed_list_of_callers():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert trusted_callers(sources) == TRUSTED_CALLERS
    for _, name in TRUSTED_CALLERS:
        method = name.rpartition(".")[2]
        if not method.startswith("__"):
            assert re.search(rf"\b{method}\b", Lawful.__doc__), name


def test_only_tstruct_reads_a_cut_degree_and_only_complexes_calls_zero_complex():
    """Outside tstruct, a cut's degree is read only by the suite's heart
    check, whose comparison with rep Q through H_n holds for degree cuts
    alone.  Every other module compares, shifts and prints cuts, and takes
    the zero complex from initial_map and terminal_map."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert degree_readers(sources) == {("suite", "_case_heart")}
    assert callers_of(sources, "zero_complex") == {"complexes"}


def test_only_complexes_builds_block_maps():
    """Outside complexes, a map into a homotopy pullback is its gap map
    (Pullback.gap_map) and a map of pullbacks is pullback_induced; no module
    lays out a graded sum's blocks by hand."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert callers_of(sources, "block_components") == {"complexes"}


def test_the_caller_scan_sees_methods_and_nested_calls():
    sources = {"m": (
        "class A:\n"
        "    def f(self):\n"
        "        return [B._unchecked(x) for x in self]\n"
        "    def g(self):\n"
        "        return B(self)\n"
        "def h():\n"
        "    def inner():\n"
        "        return A._unchecked()\n"
        "    return inner\n"
    )}
    assert trusted_callers(sources) == {("m", "A.f"), ("m", "h")}


def test_lawful_values_refuse_assignment():
    """The six value types share one guard, and Lawful adds no __dict__."""
    a = _a2_rep((1, 1), [1])
    x = Complex(a.quiver, F2, 0, (a,), ())
    ident = identity_map(x)
    for value, field in (
        (a, "dims"),
        (RepMap.identity(a), "components"),
        (x, "terms"),
        (ident, "comps"),
        (Homotopy(ident, ident, {}), "comps"),
        (CommutingSquare.strict(ident, ident, ident, ident), "witness"),
    ):
        with pytest.raises(AttributeError, match=f"{type(value).__name__} is immutable"):
            setattr(value, field, None)
        assert not hasattr(value, "__dict__")


def _lawful_classes() -> list[type]:
    out, todo = [], [Lawful]
    while todo:
        subs = todo.pop().__subclasses__()
        out += subs
        todo += subs
    return out


def test_every_lawful_class_stores_its_fields_through_its_own_fill():
    """A class without a hand-written _fill gets its own, compiled from its
    slots; graded sums keep Complex's, which trims, and ChainMap keeps its
    own, which drops zero components."""
    hand_written = {Complex: Complex, GradedSum: Complex, Pullback: Complex,
                    Pushout: Complex, ChainMap: ChainMap}
    classes = _lawful_classes()
    assert set(hand_written) <= set(classes)
    for cls in classes:
        if cls in hand_written:
            assert cls._fill is vars(hand_written[cls])["_fill"], cls
            continue
        assert "_fill" in vars(cls), cls
        fields = [object() for _ in cls.__slots__]
        value = cls._unchecked(*fields)
        assert all(getattr(value, n) is f for n, f in zip(cls.__slots__, fields)), cls
        with pytest.raises(TypeError):
            cls._unchecked(*fields[:-1])
    a = _a2_rep((1, 1), [1])
    zero = QuiverRep.zero(a.quiver, F2)
    for cls in (Complex, GradedSum, Pullback, Pushout):
        diffs = (RepMap.zero(a, zero), RepMap.zero(zero, a))
        x = cls._unchecked(a.quiver, F2, -1, (zero, a, zero), diffs)
        assert (x.lo, x.terms, x.diffs) == (0, (a,), ()), cls
    x = Complex(a.quiver, F2, 0, (a,), ())
    assert ChainMap._unchecked(x, x, {0: RepMap.zero(a, a)}).comps == {}


# -- value equality: one rule on Lawful for all six value types --------------------

F3 = PrimeField(3)
# the fields each value type is compared on, in __slots__ order
COMPARED = {
    QuiverRep: ("quiver", "field", "dims", "arrow_maps"),
    RepMap: ("source", "target", "components"),
    Complex: ("quiver", "field", "lo", "terms", "diffs"),
    ChainMap: ("source", "target", "comps"),
    Homotopy: ("from_map", "to_map", "comps"),
    CommutingSquare: ("top", "left", "right", "bottom", "witness"),
}


def _values():
    """One value of each type on a2 over F2, built from fresh objects on
    every call."""
    a = _a2_rep((1, 1), [1])
    x = Complex(Quiver.a2(), PrimeField(2), 0, (a,), ())
    ident = identity_map(x)
    square = CommutingSquare.strict(ident, ident, ident, ident)
    return [a, RepMap.identity(a), x, ident, Homotopy(ident, ident, {}), square]


def _others():
    """One value of each type, in the order of _values, that differs from
    it in every compared field: another quiver, F3, degrees 1 and 2, a
    nonzero homotopy, and a square that it witnesses."""
    quiver = Quiver(("a", "c"), (("a", "c"),))
    b = QuiverRep(quiver, F3, (2, 1), (Mat(F3, [[1, 2]]),))
    y = Complex(quiver, F3, 1, (b, b), (RepMap.identity(b),))
    h = Homotopy(zero_map(y, y), identity_map(y), {1: RepMap.identity(b)})
    one, zero = identity_map(y), zero_map(y, y)
    return [b, RepMap.zero(b, b), y, zero, h, CommutingSquare(one, one, one, zero, h)]


def _with(value, name, new):
    """A copy of value with one slot replaced, built past every check."""
    out = object.__new__(type(value))
    for slot in type(value).__slots__:
        object.__setattr__(out, slot, new if slot == name else getattr(value, slot))
    return out


def test_lawful_equality_compares_the_named_fields_of_values_built_apart():
    for first, second, other in zip(_values(), _values(), _others()):
        fields = COMPARED[type(first)]
        assert type(first)._key(first) == tuple(getattr(first, f) for f in fields)
        assert first is not second and first == second and not first != second
        for name in fields:
            changed = _with(first, name, getattr(other, name))
            assert changed != first and first != changed and not changed == first, name


def test_values_of_different_kinds_are_unequal():
    values = _values()
    for a, b in itertools.permutations(values + [Mat.identity(F2, 1)], 2):
        assert not a == b and a != b
    for v in values:
        assert v != type(v)._key(v) and not v == type(v)._key(v)


def test_graded_sums_equal_the_plain_complex_they_build():
    rng = np.random.default_rng(5)
    x, y = (random_complex(Quiver.a2(), F2, rng, lo=0, hi=1, max_dim=2) for _ in range(2))
    f, g = random_chain_map(x, y, rng), random_chain_map(y, y, rng)
    for s in (cone(f), fib(f), homotopy_pullback(f, g)):
        plain = Complex(s.quiver, s.field, s.lo, s.terms, s.diffs)
        assert not s.is_zero() and type(s) is not Complex and s == plain and plain == s and not s != plain


def test_a_filled_cut_memo_does_not_change_equality():
    x, fresh = _values()[2], _values()[2]
    truncate_ge(x, TStructure(1))
    assert x._cuts and fresh._cuts is None
    assert x == fresh and fresh == x


def test_no_lawful_value_is_hashable():
    for v in _values() + _others() + [cone(_values()[3])]:
        with pytest.raises(TypeError, match="unhashable"):
            hash(v)


def equality_definers(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, class) of each class, at any depth, whose body defines or
    assigns __eq__ or __hash__."""
    found = set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                for d in node.body:
                    if isinstance(d, ast.FunctionDef):
                        names = [d.name]
                    elif isinstance(d, (ast.Assign, ast.AnnAssign)):
                        targets = d.targets if isinstance(d, ast.Assign) else [d.target]
                        names = [t.id for t in targets if isinstance(t, ast.Name)]
                    else:
                        names = []
                    if {"__eq__", "__hash__"} & set(names):
                        found.add((module, node.name))
    return found


def test_equality_is_defined_on_lawful_and_mat_alone():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert equality_definers(sources) == {("quiver", "Lawful"), ("linalg", "Mat")}


def test_the_equality_scan_sees_methods_assignments_and_nested_classes():
    sources = {"m": (
        "class A:\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "class B:\n"
        "    __hash__ = None\n"
        "class C:\n"
        "    __hash__: object = None\n"
        "def f():\n"
        "    class D:\n"
        "        def __eq__(self, other):\n"
        "            return False\n"
        "    return D\n"
        "class E:\n"
        "    def eq(self, other):\n"
        "        __eq__ = None\n"
        "        return __eq__\n"
    )}
    assert equality_definers(sources) == {("m", "A"), ("m", "B"), ("m", "C"), ("m", "D")}
