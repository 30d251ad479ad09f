"""Exact dense linear algebra over a prime field.

Matrices are immutable, row-major numpy int64 arrays with entries reduced to
[0, p).  Zero-sized matrices (0 x n, n x 0, 0 x 0) are legal everywhere and
act as the unique linear maps between zero spaces.  Row reduction uses
fraction-free Gauss-Jordan with deterministic first-nonzero pivoting, so
every derived basis (kernels, images, quotient sections) is reproducible.

Each public answer costs at most one elimination: rref, rank, kernel_basis,
image_basis, solve, inverse and quotient each reduce one matrix once, and
read everything they return (pivots, nullity, singularity, dependence, the
inverse of a change of basis) off that one reduced form.  Coordinates in a
basis made by kernel_basis need no elimination at all: kernel_coords reads
them off the basis's free rows, which hold the identity, and confirms them
with one product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PrimeField",
    "Mat",
    "rref",
    "rank",
    "kernel_basis",
    "kernel_coords",
    "image_basis",
    "solve",
    "inverse",
    "quotient",
    "hstack",
    "vstack",
]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field with p elements, p a small prime."""

    p: int

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if self.p >= 1 << 20:
            # keeps every intermediate product inside int64
            raise ValueError(f"modulus {self.p} too large for exact arithmetic")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def __repr__(self) -> str:
        return f"F{self.p}"


class Mat:
    """Immutable matrix over a prime field."""

    __slots__ = ("field", "a")

    def __init__(self, field: PrimeField, data, shape: tuple[int, int] | None = None):
        arr = np.asarray(data, dtype=np.int64)
        if shape is not None:
            arr = arr.reshape(shape)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got ndim={arr.ndim}")
        arr = np.remainder(arr, field.p)
        arr.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "Mat":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Mat":
        return cls(field, np.eye(n, dtype=np.int64))

    # -- shape ----------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def is_zero(self) -> bool:
        return not self.a.any()

    # -- arithmetic -----------------------------------------------------------

    def _check_field(self, other: "Mat") -> None:
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch for product: {self.shape} @ {other.shape}")
        return Mat(self.field, self.a @ other.a)

    def __add__(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch for sum: {self.shape} + {other.shape}")
        return Mat(self.field, self.a + other.a)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch for difference: {self.shape} - {other.shape}")
        return Mat(self.field, self.a - other.a)

    def __neg__(self) -> "Mat":
        return Mat(self.field, -self.a)

    def scale(self, c: int) -> "Mat":
        return Mat(self.field, self.a * (c % self.field.p))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and bool(np.array_equal(self.a, other.a))
        )

    __hash__ = None

    def tolist(self) -> list[list[int]]:
        return [[int(x) for x in row] for row in self.a]

    def flat(self) -> np.ndarray:
        return self.a.reshape(-1)

    def __repr__(self) -> str:
        return f"Mat({self.field}, {self.rows}x{self.cols})"


def hstack(mats: list[Mat]) -> Mat:
    if not mats:
        raise ValueError("hstack of nothing")
    field = mats[0].field
    rows = mats[0].rows
    for m in mats:
        if m.field != field or m.rows != rows:
            raise ValueError("hstack pieces disagree")
    return Mat(field, np.concatenate([m.a for m in mats], axis=1))


def vstack(mats: list[Mat]) -> Mat:
    if not mats:
        raise ValueError("vstack of nothing")
    field = mats[0].field
    cols = mats[0].cols
    for m in mats:
        if m.field != field or m.cols != cols:
            raise ValueError("vstack pieces disagree")
    return Mat(field, np.concatenate([m.a for m in mats], axis=0))


def _eliminate(a: np.ndarray, p: int, limit: int) -> list[int]:
    """Gauss-Jordan over F_p in place.  Pivots only in columns < limit.

    Pivot choice is the first row with a nonzero entry in the current
    column, scanning columns left to right; this makes every reduction
    deterministic.  Columns >= limit ride along as attached right sides.
    Every row at or below r is zero left of the pivot column c, so the
    swap, the scaling and the row updates touch only columns c onwards.
    """
    rows = a.shape[0]
    piv: list[int] = []
    r = 0
    for c in range(limit):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = (a[r, c:] * inv) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others, c:] = (a[others, c:] - np.outer(a[others, c], a[r, c:])) % p
        piv.append(c)
        r += 1
    return piv


def _reduced(m: Mat) -> tuple[np.ndarray, list[int]]:
    """m's entries reduced (a copy) and its pivot columns: at most one elimination."""
    if not m.a.size:
        return m.a, []
    a = m.a.copy()
    return a, _eliminate(a, m.field.p, m.cols)


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    a, piv = _reduced(m)
    return Mat(m.field, a), tuple(piv)


def rank(m: Mat) -> int:
    return len(_reduced(m)[1])


def kernel_basis(m: Mat) -> Mat:
    """Columns form a basis of the null space {x : m x = 0}.

    The basis is the standard one read off the reduced form: one column per
    free column f, with a 1 in slot f and back-substituted pivot entries.
    Its free rows therefore hold the identity (see kernel_coords).
    """
    if not m.a.size:  # no equations leave every unknown free
        return Mat.identity(m.field, m.cols)
    a, piv = _reduced(m)
    # I - (the reduced rows placed at their pivot indices): column f is the
    # basis vector of free column f, and pivot columns (zero diagonal) vanish
    out = np.eye(m.cols, dtype=np.int64)
    out[piv] -= a[: len(piv)]
    return Mat(m.field, out[:, out.diagonal() != 0])


def kernel_coords(basis: Mat, b: Mat) -> Mat | None:
    """Coordinates of the columns of b in a basis made by kernel_basis, or
    None when a column lies outside its span.

    Column j of such a basis is zero below its free row, where it holds 1,
    and every other column is zero there; so the coordinates are b's free
    rows, and one product confirms that they reproduce b.  The product
    reproduces the free rows by construction, so only the other rows are
    compared (none when the basis is the identity).
    """
    basis._check_field(b)
    if basis.rows != b.rows:
        raise ValueError(f"coordinate shape mismatch: {basis.shape} vs {b.shape}")
    free = (np.arange(basis.rows)[:, None] * (basis.a != 0)).max(axis=0, initial=0)
    rest = np.ones(basis.rows, dtype=bool)
    rest[free] = False
    x = b.a[free]
    if not np.array_equal(basis.a[rest] @ x % basis.field.p, b.a[rest]):
        return None
    return Mat(basis.field, x)


def image_basis(m: Mat) -> Mat:
    """Columns of m at the pivot positions; a basis of the column space."""
    _, piv = _reduced(m)
    return Mat(m.field, m.a[:, piv].reshape(m.rows, len(piv)))


def solve(m: Mat, b: Mat) -> tuple[Mat, int] | None:
    """Solve m x = b columnwise.

    Returns (particular solution with free variables zero, nullity of m) or
    None when any column of b is inconsistent.
    """
    m._check_field(b)
    if m.rows != b.rows:
        raise ValueError(f"solve shape mismatch: {m.shape} vs rhs {b.shape}")
    aug = np.concatenate([m.a, b.a], axis=1)
    piv = _eliminate(aug, m.field.p, m.cols)
    r = len(piv)
    if aug[r:, m.cols :].any():
        return None
    x = np.zeros((m.cols, b.cols), dtype=np.int64)
    x[piv] = aug[:r, m.cols :]
    return Mat(m.field, x), m.cols - r


def inverse(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise ValueError(f"inverse of non-square {m.shape}")
    sol = solve(m, Mat.identity(m.field, m.rows))
    if sol is None or sol[1]:
        raise ValueError("matrix is singular")
    return sol[0]


def quotient(field: PrimeField, ambient_dim: int, basis: Mat) -> tuple[Mat, Mat]:
    """Quotient of F^ambient_dim by the column span of basis.

    Returns (projection q, section s) with q s = identity on the quotient and
    kernel(q) exactly the span.  The section picks the standard coordinate
    vectors missed by the subspace, in index order.
    """
    if basis.rows != ambient_dim:
        raise ValueError(
            f"subspace basis lives in dim {basis.rows}, ambient is {ambient_dim}"
        )
    k = basis.cols
    aug = np.concatenate([basis.a, np.eye(ambient_dim, dtype=np.int64)], axis=1)
    piv = _eliminate(aug, field.p, ambient_dim + k)
    if piv[:k] != list(range(k)):
        raise ValueError("quotient by a dependent spanning set")
    # the row operations E reduce [basis | I] to [E basis | E]; the pivot
    # columns are cob = [basis | the chosen unit vectors] and E cob = I, so
    # the right block E is cob^-1 and its bottom rows are quotient coordinates
    comp = [c - k for c in piv[k:]]
    proj = Mat(field, aug[k:, k:])
    sect = Mat(field, np.eye(ambient_dim, dtype=np.int64)[:, comp])
    return proj, sect
