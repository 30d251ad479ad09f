"""Exact dense linear algebra over a prime field.

Matrices are immutable, row-major numpy int64 arrays with entries reduced to
[0, p).  Zero-sized matrices (0 x n, n x 0, 0 x 0) are legal everywhere and
act as the unique linear maps between zero spaces.  Mat.zeros and
Mat.identity return one shared read-only matrix per field and shape up to
_SHARED_CELLS cells; larger ones are built afresh and never kept.  A
product, sum or difference with an empty operand, and an answer without
entries, is Mat.zeros of its shape (Mat.of).  Nothing ever writes into a
matrix's array.

Mat.__init__ copies and reduces its data.  One private maker, _reduced,
takes an int64 array already in [0, p) as it is, with neither: zero and
identity matrices are made through it here, and each differential D_n of
a mapping complex in complexes; no other module calls it.

Row reduction is Gauss-Jordan with first-nonzero pivoting behind one entry
point, _eliminate, and the field alone picks one of two kernels, at every
size: over F2 and F3 rows packed into Python ints, one bit plane per nonzero
value (_eliminate_packed), over larger primes one numpy update per pivot
(_eliminate_numpy).  Their outputs cannot differ: the reduced row echelon
form, and with it the pivot columns, is unique, and kernels, images and
quotient sections are read off it.  Each public answer costs at most one
kernel run; rank needs only the number of pivots, which over F2 and F3 the
packed kernel's forward mode counts without a reduced form.  kernel_coords
costs none: it reads coordinates in a basis made by kernel_basis off the
basis's free rows and confirms them with one product, and in a square such
basis, the identity, they are the columns themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

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
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


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

    Mat.__init__ and Mat.of reduce their data mod p; only _reduced skips
    that, for arrays that its callers wrote in [0, p) themselves.
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

    @staticmethod
    def zeros(field: PrimeField, rows: int, cols: int) -> "Mat":
        return (_shared if rows * cols <= _SHARED_CELLS else _constant)(field, rows, cols, False)

    @staticmethod
    def identity(field: PrimeField, n: int) -> "Mat":
        return (_shared if n * n <= _SHARED_CELLS else _constant)(field, n, n, True)

    @staticmethod
    def of(field: PrimeField, arr: np.ndarray) -> "Mat":
        """Mat(field, arr), or the shared Mat.zeros of its shape when arr has
        no entries."""
        return Mat(field, arr) if arr.size else Mat.zeros(field, *arr.shape)

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
        if self.field is not other.field and self.field != other.field:
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
        return Mat.of(self.field, self.a + other.a)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch for difference: {self.shape} - {other.shape}")
        return Mat.of(self.field, self.a - other.a)

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
# asks for.  Without the bound, a D_0 with 4,096 columns and no rows (one-term
# point complexes of dimension document.MAX_DIM = 64) would pin the kernel
# basis that chain_map_basis decodes, a 4,096 x 4,096 identity of 134 MB, for
# the life of the process (random_chain_map builds no basis for such a D_0).
_SHARED_CELLS = 256


def _reduced(field: PrimeField, arr: np.ndarray) -> Mat:
    """The matrix on arr, a 2-d int64 array whose entries are already in
    [0, p), with no copy and without Mat.__init__'s reduction; arr becomes
    read-only, and its maker keeps no other handle to write through."""
    arr.setflags(write=False)
    out = object.__new__(Mat)
    object.__setattr__(out, "field", field)
    object.__setattr__(out, "a", arr)
    return out


def _constant(field: PrimeField, rows: int, cols: int, eye: bool) -> Mat:
    """A new zero (eye False) or identity (eye True, rows = cols) matrix:
    0 and 1 are reduced for every p."""
    arr = np.eye(rows, dtype=np.int64) if eye else np.zeros((rows, cols), np.int64)
    return _reduced(field, arr)


# the shared zero and identity matrices, at most _SHARED_CELLS cells each
_shared = lru_cache(maxsize=512)(_constant)


def _eliminate(a: np.ndarray, p: int, limit: int) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan over F_p: a reduced and its pivot columns, all < limit;
    columns >= limit ride along as attached right sides.  The pivot row is
    the first with a nonzero entry in the current column, scanning columns
    left to right, so every kernel gives the same rows, those below the
    pivots too.  a is never written to: the packed kernel over F2 and F3
    hands it back when no row moved, the numpy kernel over larger primes
    reduces a copy.
    """
    if p <= 3:
        rows = _packed(a, p)
        before = rows[:]
        piv = _eliminate_packed(rows, p, limit)
        return (a if rows == before else _unpacked(rows, p, a.shape[1])), piv
    a = a.copy()
    return a, _eliminate_numpy(a, p, limit)


def _eliminate_numpy(a: np.ndarray, p: int, limit: int) -> list[int]:
    """_eliminate in place on a, with one vectorised update per pivot.  Every
    row at or below r is zero left of the pivot column c, so the swap, the
    scaling and the row updates touch only columns c onwards."""
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


def _eliminate_packed(rows: list, p: int, limit: int, forward: bool = False) -> list[int]:
    """_eliminate over F2 or F3 in place on rows packed by _packed.  Rows at
    and below r are zero left of the next pivot column, so it is the lowest
    bit < limit set in any of them; the first of them with that bit is the
    pivot row, swapped up to r, over F3 scaled to lead with 1 (by 2 = -1,
    which swaps its planes), and cleared from every other row, by XOR over
    F2 and _minus over F3.  With forward rows is left as it was and only the
    rank is found: each row, cut at limit, is reduced by the kept row ending
    where it does until it vanishes or ends at a new column and is kept,
    scaled to end with 1.  The kept rows are independent and span the row
    space; the columns they end at, as many as the pivots, are returned."""
    mask = (1 << limit) - 1
    if forward:
        kept: dict = {}
        for x in rows:
            if p == 2:
                x &= mask
                while x:
                    lead = x.bit_length()
                    if lead not in kept:
                        kept[lead] = x
                        break
                    x ^= kept[lead]
                continue
            x1, x2 = x[0] & mask, x[1] & mask
            while x1 or x2:
                lead = (x1 | x2).bit_length()
                one = x1.bit_length() == lead  # x's last entry is 1, not 2
                if lead not in kept:
                    kept[lead] = (x1, x2) if one else (x2, x1)
                    break
                y1, y2 = kept[lead]
                if one:  # x - y = x + (-y), y's planes swapped; else x - 2y = x + y
                    y1, y2 = y2, y1
                t = (x1 | y2) ^ (x2 | y1)
                x1, x2 = (x2 | y2) ^ t, (x1 | y1) ^ t
        return [lead - 1 for lead in kept]
    piv: list[int] = []
    n, r = len(rows), 0
    while r < n:
        acc = 0
        for x in rows[r:]:
            acc |= x if p == 2 else x[0] | x[1]
        if not (low := acc & -acc & mask):
            break
        i = r
        while not (rows[i] if p == 2 else rows[i][0] | rows[i][1]) & low:
            i += 1
        y = rows[i]
        if p == 3 and y[1] & low:
            y = y[::-1]
        rows[i] = rows[r]
        if p == 2:
            rows[:] = [x ^ y if x & low else x for x in rows]
        else:
            rows[:] = [_minus(*x, y, low) if (x[0] | x[1]) & low else x for x in rows]
        rows[r] = y
        piv.append(low.bit_length() - 1)
        r += 1
    return piv


def _minus(x1: int, x2: int, y: tuple[int, int], low: int) -> tuple[int, int]:
    """x - f y over F3 on bit planes, f being x's entry at the bit low, where y
    holds 1: x - y = x + (-y), whose planes are y's swapped, and x - 2y = x + y;
    with t = (x1 | y2) ^ (x2 | y1) the sum x + y has planes ((x2 | y2) ^ t, (x1 | y1) ^ t)."""
    y1, y2 = y if x2 & low else y[::-1]
    t = (x1 | y2) ^ (x2 | y1)
    return (x2 | y2) ^ t, (x1 | y1) ^ t


# Bit j of a packed row is column j.  Rows of at most 62 columns (no int64
# product overflows) are packed by one product with these weights and
# unpacked by shifts; wider ones go through np.packbits and np.unpackbits.
_BITS = np.arange(62, dtype=np.int64)
_WEIGHTS = 1 << _BITS
_PLANES = np.array([[1], [2]], dtype=np.int64)  # the entry each F3 bit plane marks


def _packed(a: np.ndarray, p: int) -> list:
    """The rows of a, entries in [0, p), p = 2 or 3: over F2 one int per row
    whose bit j is entry j, over F3 the pair (x1, x2) of such ints for the
    entries equal to 1 and to 2."""
    if a.shape[1] <= len(_BITS):
        w = _WEIGHTS[: a.shape[1]]
        return (a @ w if p == 2 else (a[:, None, :] == _PLANES) @ w).tolist()
    planes = [_packed_bits(a == v) for v in range(1, p)]
    return planes[0] if p == 2 else list(zip(*planes))


def _packed_bits(bits: np.ndarray) -> list[int]:
    """Each row of a boolean array as one int whose bit j is entry j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    data, w = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i : i + w], "little") for i in range(0, len(data), w)]


def _unpacked(rows: list, p: int, cols: int) -> np.ndarray:
    """Rows packed by _packed back as an integer array of cols columns."""
    if cols <= len(_BITS):
        bits = np.array(rows, dtype=np.int64)[..., None] >> _BITS[:cols] & 1
    else:
        ints = rows if p == 2 else [x for planes in rows for x in planes]
        width = (cols + 7) // 8
        data = np.frombuffer(b"".join(x.to_bytes(width, "little") for x in ints), np.uint8)
        bits = np.unpackbits(data.reshape(-1, width), axis=1, count=cols, bitorder="little")
    return bits if p == 2 else _PLANES[:, 0] @ bits.reshape(len(rows), 2, cols)


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    if not m.a.size:
        return m, ()
    rows, piv = _eliminate(m.a, m.field.p, m.cols)
    return Mat(m.field, rows), tuple(piv)


def rank(m: Mat) -> int:
    """The number of pivots of one elimination, over F2 and F3 a forward one."""
    if not m.a.size:
        return 0
    if m.field.p > 3:
        return len(_eliminate(m.a, m.field.p, m.cols)[1])
    return len(_eliminate_packed(_packed(m.a, m.field.p), m.field.p, m.cols, forward=True))


def kernel_basis(m: Mat) -> Mat:
    """Columns form a basis of the null space {x : m x = 0}.

    The basis is the standard one read off the reduced form: one column per
    free column f, with a 1 in slot f and back-substituted pivot entries.
    Its free rows therefore hold the identity (see kernel_coords); without a
    pivot it is the identity, and with a pivot in every column it is empty.
    """
    fld, cols = m.field, m.cols
    if not m.a.size:  # no equations leave every unknown free
        return Mat.identity(fld, cols)
    rows, piv = _eliminate(m.a, fld.p, cols)
    if len(piv) in (0, cols):
        return Mat.zeros(fld, cols, 0) if piv else Mat.identity(fld, cols)
    # I - (the reduced rows placed at their pivot indices): column f is the
    # basis vector of free column f, and pivot columns vanish
    out = np.eye(cols, dtype=np.int64)
    out[piv] -= rows[: len(piv)]
    return Mat(fld, out[:, out.diagonal() != 0])


def kernel_coords(basis: Mat, b: Mat) -> Mat | None:
    """Coordinates of the columns of b in a basis made by kernel_basis, or
    None when a column lies outside its span.

    Column j of such a basis is zero below its free row, where it holds 1,
    and every other column is zero there; so the coordinates are b's free
    rows, and one product confirms that they reproduce b.  The product
    reproduces the free rows by construction, so only the other rows are
    compared.  A square such basis has no pivot row: it is the identity, and
    the coordinates are b itself.
    """
    basis._check_field(b)
    if basis.rows != b.rows:
        raise ValueError(f"coordinate shape mismatch: {basis.shape} vs {b.shape}")
    if basis.rows == basis.cols:
        return b
    free = (np.arange(basis.rows)[:, None] * (basis.a != 0)).max(axis=0, initial=0)
    rest = np.ones(basis.rows, dtype=bool)
    rest[free] = False
    x = b.a[free]
    if not np.array_equal(basis.a[rest] @ x % basis.field.p, b.a[rest]):
        return None
    return Mat.of(basis.field, x)


def image_basis(m: Mat) -> Mat:
    """Columns of m at the pivot positions; a basis of the column space."""
    piv = _eliminate(m.a, m.field.p, m.cols)[1] if m.a.size else []
    return Mat(m.field, m.a[:, piv]) if piv else Mat.zeros(m.field, m.rows, 0)


def solve(m: Mat, b: Mat) -> tuple[Mat, int] | None:
    """Solve m x = b columnwise.

    Returns (particular solution with free variables zero, nullity of m) or
    None when any column of b is inconsistent.
    """
    m._check_field(b)
    if m.rows != b.rows:
        raise ValueError(f"solve shape mismatch: {m.shape} vs rhs {b.shape}")
    aug, piv = _eliminate(np.concatenate([m.a, b.a], axis=1), m.field.p, m.cols)
    r = len(piv)
    if aug[r:, m.cols :].any():
        return None
    x = np.zeros((m.cols, b.cols), dtype=np.int64)
    x[piv] = aug[:r, m.cols :]
    return Mat.of(m.field, x), m.cols - r


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
    k, eye = basis.cols, np.eye(ambient_dim, dtype=np.int64)
    aug, piv = _eliminate(np.concatenate([basis.a, eye], axis=1), field.p, ambient_dim + k)
    if piv[:k] != list(range(k)):
        raise ValueError("quotient by a dependent spanning set")
    # the row operations E reduce [basis | I] to [E basis | E]; the pivot
    # columns are cob = [basis | the chosen unit vectors] and E cob = I, so
    # the right block E is cob^-1 and its bottom rows are quotient coordinates
    return Mat.of(field, aug[k:, k:]), Mat.of(field, eye[:, [c - k for c in piv[k:]]])
