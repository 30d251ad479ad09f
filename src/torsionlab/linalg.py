"""Exact dense linear algebra over a prime field.

Matrices are immutable, row-major numpy int64 arrays with entries reduced to
[0, p).  Zero-sized matrices (0 x n, n x 0, 0 x 0) are legal everywhere and
act as the unique linear maps between zero spaces.  Mat.zeros and
Mat.identity return one shared read-only matrix per field and shape up to
_SHARED_CELLS cells (larger ones are built afresh and never kept), and a
product with an empty operand is Mat.zeros of its shape, with no numpy
product; nothing ever writes into a matrix's array.  Row reduction is
Gauss-Jordan with deterministic first-nonzero pivoting: each pivot row is
scaled by the modular inverse of its pivot, and the pivot column is cleared
above and below it.  Two kernels run it behind the one entry point
_eliminate, chosen by the cell count of the array: up to _SMALL_CELLS cells
on Python ints (a.tolist(), written back in place), where numpy's per-call
overhead would outweigh the arithmetic, and above it on numpy arrays, one
vectorised update per pivot.  Their outputs cannot differ: over a field the
reduced row echelon form of a matrix, and with it its pivot columns, is
unique, and every derived basis (kernels, images, quotient sections) is read
off that form, so it is reproducible whichever kernel ran.

Each public answer costs at most one elimination: rref, rank, kernel_basis,
image_basis, solve, inverse and quotient each reduce one matrix once, and
read everything they return (pivots, nullity, singularity, dependence, the
inverse of a change of basis) off that one reduced form.  Rank over F2 and
F3 needs no reduced form: it runs forward elimination on rows packed into
Python ints, one bit plane per nonzero value (see _rank_packed), and never
calls _eliminate; every other answer, and rank over every larger prime,
still costs one _eliminate.  Coordinates in a basis made by kernel_basis
need no elimination at all: kernel_coords reads them off the basis's free
rows, which hold the identity, and confirms them with one product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
        if not isinstance(self.p, int) or isinstance(self.p, bool):
            raise ValueError(f"modulus {self.p!r} is not an integer")
        # the size first: trial division of a huge modulus would never end
        if self.p >= 1 << 20:
            # keeps every intermediate product inside int64
            raise ValueError(f"modulus {self.p} too large for exact arithmetic")
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def __repr__(self) -> str:
        return f"F{self.p}"


class Mat:
    """Immutable matrix over a prime field; its array is read-only.

    Mat.zeros and Mat.identity share one instance per field and shape up to
    _SHARED_CELLS cells, and a product with an empty operand is Mat.zeros
    of its shape.  Equal matrices may or may not be one object, so equality
    compares field, shape and entries.
    """

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
        if rows * cols <= _SHARED_CELLS:
            return _shared(field, rows, cols, False)
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Mat":
        if n * n <= _SHARED_CELLS:
            return _shared(field, n, n, True)
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
        return not np.count_nonzero(self.a)

    # -- arithmetic -----------------------------------------------------------

    def _check_field(self, other: "Mat") -> None:
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch for product: {self.shape} @ {other.shape}")
        if not (self.a.size and other.a.size):
            return Mat.zeros(self.field, self.rows, other.cols)
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
        return Mat(self.field, -self.a) if self.a.size else self

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        # entries are int64 in [0, p), so equal shapes and bytes mean equal
        return (
            self.field == other.field
            and self.a.shape == other.a.shape
            and self.a.tobytes() == other.a.tobytes()
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Mat({self.field}, {self.rows}x{self.cols})"


# The largest zero or identity matrix, in cells, that is shared.  The cache
# holds at most 512 of them, at most 1 MB of entries whatever shapes a run
# asks for.  Without the bound, the hom space between two points of
# dimension document.MAX_DIM = 64, 4,096 unknowns and no equations, would
# pin its kernel basis, a 4,096 x 4,096 identity of 134 MB, for the life of
# the process.
_SHARED_CELLS = 256


@lru_cache(maxsize=512)
def _shared(field: PrimeField, rows: int, cols: int, eye: bool) -> Mat:
    """The shared zero (eye False) or identity (eye True, rows = cols) matrix."""
    return Mat(field, np.eye(rows, dtype=np.int64) if eye else np.zeros((rows, cols), np.int64))


# The cut-off between the two elimination kernels, in cells.  Measured on a
# 2-core Xeon (Python 3.11.7, numpy 2.4.6) by timing both kernels on the same
# arrays.  On random dense matrices over F2 and F3 the Python kernel was 2-3x
# faster up to 16 x 16 and 4 x 64 and slower from 24 x 24 and 40 x 8 on
# (1.4-3.7x at 576 to 2,048 cells): the crossover lies between 256 and 400
# cells.  On the eliminations captured from one seed-0 round of each
# benchmark workload, which are sparser and of lower rank, the Python kernel
# stayed ahead well past 256 cells; the cut-off keeps to the dense crossover,
# so that no shape of input runs far on the slower kernel.
_SMALL_CELLS = 256


def _eliminate(a: np.ndarray, p: int, limit: int) -> list[int]:
    """Gauss-Jordan over F_p in place; returns the pivot columns.  Pivots
    only in columns < limit; columns >= limit ride along as attached right
    sides.

    Pivot choice is the first row with a nonzero entry in the current
    column, scanning columns left to right; this makes every reduction
    deterministic.  Small arrays are reduced on Python ints, large ones on
    numpy; both give the unique reduced row echelon form.
    """
    if a.size <= _SMALL_CELLS:
        return _eliminate_ints(a, p, limit)
    return _eliminate_numpy(a, p, limit)


def _eliminate_ints(a: np.ndarray, p: int, limit: int) -> list[int]:
    """_eliminate on the rows of a as lists of Python ints, written back
    into a.  With no pivot no row moved, and a is left untouched (a 0-row a
    has no rows to write back)."""
    rows = a.tolist()
    n = len(rows)
    piv: list[int] = []
    r = 0
    for c in range(limit):
        if r == n:
            break
        for i in range(r, n):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        row = rows[r]
        if row[c] != 1:
            inv = pow(row[c], -1, p)
            row = rows[r] = [e * inv % p for e in row]
        for k in range(n):
            f = rows[k][c]
            if f and k != r:
                rows[k] = [(e - f * g) % p for e, g in zip(rows[k], row)]
        piv.append(c)
        r += 1
    if piv:
        a[:] = rows
    return piv


def _eliminate_numpy(a: np.ndarray, p: int, limit: int) -> list[int]:
    """_eliminate with one vectorised update per pivot.  Every row at or
    below r is zero left of the pivot column c, so the swap, the scaling and
    the row updates touch only columns c onwards."""
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


def _packed_rows(bits: np.ndarray) -> list[int]:
    """Each row of a boolean array as one int whose bit j is entry j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    data, w = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i : i + w], "little") for i in range(0, len(data), w)]


def _rank_packed(a: np.ndarray, p: int) -> int:
    """The rank of a nonempty array over F2 or F3, by forward elimination on
    bit-packed rows.

    Each row is inserted into a basis keyed by its leading (highest) bit:
    the basis row it meets there is subtracted until the row vanishes or
    finds a free key, and the rank is the size of the basis.  Over F2 a row
    is one int and subtraction is XOR.  Over F3 a row is two disjoint bit
    planes (x1, x2), the entries equal to 1 and those equal to 2; negation
    swaps them, a basis row is stored with its leading entry 1, and with
    t = (x1 | y2) ^ (x2 | y1) the sum x + y has planes ((x2 | y2) ^ t,
    (x1 | y1) ^ t).
    """
    basis: dict = {}
    if p == 2:
        for x in _packed_rows(a == 1):
            while x:
                lead = x.bit_length()
                if lead not in basis:
                    basis[lead] = x
                    break
                x ^= basis[lead]
        return len(basis)
    for x1, x2 in zip(_packed_rows(a == 1), _packed_rows(a == 2)):
        while x1 or x2:
            lead = (x1 | x2).bit_length()
            one = x1.bit_length() == lead  # the leading entry is 1, not 2
            if lead not in basis:
                basis[lead] = (x1, x2) if one else (x2, x1)
                break
            y1, y2 = basis[lead]
            if one:  # x - y = x + (-y), y's planes swapped; else x - 2y = x + y
                y1, y2 = y2, y1
            t = (x1 | y2) ^ (x2 | y1)
            x1, x2 = (x2 | y2) ^ t, (x1 | y1) ^ t
    return len(basis)


def rank(m: Mat) -> int:
    """Over F2 and F3 read off bit-packed rows; over larger primes the number
    of pivots of one elimination."""
    if m.field.p > 3:
        return len(_reduced(m)[1])
    return _rank_packed(m.a, m.field.p) if m.a.size else 0


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
    return Mat(basis.field, x) if x.size else Mat.zeros(basis.field, *x.shape)


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
    if k == ambient_dim:  # nothing is left, and both maps have no entries
        return Mat.zeros(field, 0, k), Mat.zeros(field, k, 0)
    comp = [c - k for c in piv[k:]]
    proj = Mat(field, aug[k:, k:])
    sect = Mat(field, np.eye(ambient_dim, dtype=np.int64)[:, comp])
    return proj, sect
