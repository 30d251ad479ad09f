"""Output checks that share no code with torsionlab.

Every check reads plain data (JSON trees, integer arrays) and recomputes what
it needs with its own arithmetic mod p: forward elimination for ranks,
vertexwise homology, the Künneth formula and the fiber of a map.  A check
raises CheckError with a message on a wrong answer and returns None
otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

SUITE_PROPERTIES = 12
SUITE_CASES = 100
SUITE_FIXED = {"hom-oracle": 200}
NORMALITY_CONDITIONS = (
    "kernel_is_torsion",
    "cokernel_is_torsion_free",
    "two_sided",
    "cokernel_comparison_iso",
    "kernel_comparison_iso",
    "fiber_sequence_pullout",
)


class CheckError(AssertionError):
    """An output of the program is wrong."""


def rank_mod_p(a, p: int) -> int:
    """Rank over F_p by forward elimination (row echelon, not reduced)."""
    a = np.array(a, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError("rank of a non-matrix")
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        a[r + 1 :] = (a[r + 1 :] - np.outer(a[r + 1 :, c], a[r])) % p
        r += 1
    return r


@dataclass(frozen=True)
class Cx:
    """A bounded complex as raw data: dims[k][v] is the dimension at degree
    lo + k and vertex v; diffs[n][v] is the matrix X_n(v) -> X_{n-1}(v)."""

    lo: int
    dims: tuple[tuple[int, ...], ...]
    diffs: dict
    vertices: int

    @property
    def hi(self) -> int:
        return self.lo + len(self.dims) - 1

    def is_zero(self) -> bool:
        return not any(any(d) for d in self.dims)

    def dim(self, n: int, v: int) -> int:
        k = n - self.lo
        return self.dims[k][v] if 0 <= k < len(self.dims) else 0

    def d(self, n: int, v: int) -> np.ndarray:
        got = self.diffs.get(n)
        if got is not None:
            return got[v]
        return np.zeros((self.dim(n - 1, v), self.dim(n, v)), dtype=np.int64)


def cx_of_program(x) -> Cx:
    """Raw data of an in-memory torsionlab complex, read off its attributes."""
    nv = len(x.quiver.vertices)
    if x.is_zero():
        return Cx(0, (), {}, nv)
    dims = tuple(tuple(x.term(n).dims) for n in range(x.lo, x.hi + 1))
    diffs = {
        n: [np.array(m.a, dtype=np.int64) for m in x.diff(n).components]
        for n in range(x.lo + 1, x.hi + 1)
    }
    return Cx(x.lo, dims, diffs, nv)


def _matrix(rows, nrows: int, ncols: int) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(nrows, ncols)


def complexes_of(tree: dict) -> dict[str, Cx]:
    """Every complex of a document tree, as raw data."""
    nv = len(tree["quiver"]["vertices"])
    reps = tree.get("reps") or {}
    out = {}
    for name, body in (tree.get("complexes") or {}).items():
        dims = tuple(tuple(reps[t]["dims"]) for t in body["terms"])
        lo = body["lo"]
        diffs = {}
        for j, per_vertex in enumerate(body.get("diffs", [])):
            n = lo + j + 1
            diffs[n] = [
                _matrix(per_vertex[v], dims[j][v], dims[j + 1][v]) for v in range(nv)
            ]
        out[name] = Cx(lo, dims, diffs, nv)
    return out


@dataclass(frozen=True)
class Map:
    source: Cx
    target: Cx
    comps: dict  # degree -> per-vertex matrices

    def at(self, n: int, v: int) -> np.ndarray:
        got = self.comps.get(n)
        if got is not None:
            return got[v]
        return np.zeros((self.target.dim(n, v), self.source.dim(n, v)), dtype=np.int64)


def maps_of(tree: dict, cxs: dict[str, Cx]) -> dict[str, Map]:
    out = {}
    for name, body in (tree.get("maps") or {}).items():
        src, tgt = cxs[body["source"]], cxs[body["target"]]
        comps = {}
        for deg, per_vertex in (body.get("components") or {}).items():
            n = int(deg)
            comps[n] = [
                _matrix(per_vertex[v], tgt.dim(n, v), src.dim(n, v))
                for v in range(src.vertices)
            ]
        out[name] = Map(src, tgt, comps)
    return out


def _span(*cxs: Cx) -> range:
    live = [c for c in cxs if not c.is_zero()]
    if not live:
        return range(0)
    return range(min(c.lo for c in live) - 1, max(c.hi for c in live) + 2)


def homology_dims(x: Cx, p: int) -> dict[int, tuple[int, ...]]:
    """Vertexwise homology dimensions on the support of x."""
    return {
        n: tuple(
            x.dim(n, v) - rank_mod_p(x.d(n, v), p) - rank_mod_p(x.d(n + 1, v), p)
            for v in range(x.vertices)
        )
        for n in range(x.lo, x.hi + 1)
    }


def _nonzero_support(h: dict) -> dict:
    return {n: dims for n, dims in h.items() if any(dims)}


def check_d_squared(x: Cx, p: int, what: str) -> None:
    for n in _span(x):
        for v in range(x.vertices):
            if ((x.d(n - 1, v) @ x.d(n, v)) % p).any():
                raise CheckError(f"{what}: d.d != 0 at degree {n}, vertex {v}")


def check_chain_law(f: Map, p: int, what: str) -> None:
    for n in _span(f.source, f.target):
        for v in range(f.source.vertices):
            lhs = f.target.d(n, v) @ f.at(n, v)
            rhs = f.at(n - 1, v) @ f.source.d(n, v)
            if ((lhs - rhs) % p).any():
                raise CheckError(f"{what}: chain-map law fails at degree {n}, vertex {v}")


def _check_document_laws(tree: dict, p: int, what: str):
    cxs = complexes_of(tree)
    for name, x in cxs.items():
        check_d_squared(x, p, f"{what} complex {name!r}")
    maps = maps_of(tree, cxs)
    for name, f in maps.items():
        check_chain_law(f, p, f"{what} map {name!r}")
    return cxs, maps


def _same_complex(a: Cx, b: Cx) -> bool:
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    if (a.lo, a.dims) != (b.lo, b.dims):
        return False
    return all(
        np.array_equal(a.d(n, v), b.d(n, v))
        for n in range(a.lo + 1, a.hi + 1)
        for v in range(a.vertices)
    )


# -- hom-large --------------------------------------------------------------------


def kunneth_dims(x: Cx, y: Cx, p: int) -> dict[int, int]:
    """dim H_n Hom(X, Y) = sum_i h_i(X) h_{i+n}(Y) over a field (one vertex)."""
    hx, hy = homology_dims(x, p), homology_dims(y, p)
    out: dict[int, int] = {}
    for i, (a,) in hx.items():
        for j, (b,) in hy.items():
            out[j - i] = out.get(j - i, 0) + a * b
    return out


def check_kunneth(expected: dict[int, int], got: dict, degrees: range) -> None:
    """got is the program's homology_dims of the mapping complex."""
    for n in degrees:
        want = expected.get(n, 0)
        have = got.get(n, (0,))[0]
        if want != have:
            raise CheckError(f"H_{n} Hom(X, Y): program {have}, Kunneth {want}")


# -- documents --------------------------------------------------------------------


def fiber_window(f: Map, p: int) -> tuple[int, int] | None:
    """Half-open window [lo, hi) holding the homology of fib(f), or None.

    fib(f)_n = X_n + Y_{n+1} with d = [[dX_n, 0], [-f_n, -dY_{n+1}]].
    """
    x, y = f.source, f.target
    degrees = [n for n in _span(x, y)]
    supported = []
    for n in degrees:
        for v in range(x.vertices):
            dim = x.dim(n, v) + y.dim(n + 1, v)
            if not dim:
                continue
            rk = 0
            for m in (n, n + 1):
                block = np.block(
                    [
                        [x.d(m, v), np.zeros((x.dim(m - 1, v), y.dim(m + 1, v)), dtype=np.int64)],
                        [-f.at(m, v), -y.d(m + 1, v)],
                    ]
                )
                rk += rank_mod_p(block, p)
            if dim - rk:
                supported.append(n)
                break
    if not supported:
        return None
    return min(supported), max(supported) + 1


def check_factor(f: Map, out: dict, p: int) -> None:
    cxs, maps = _check_document_laws(out, p, "factor output")
    e, m = maps.get("e"), maps.get("m")
    if e is None or m is None:
        raise CheckError("factor output lacks the maps e and m")
    if not (_same_complex(e.source, f.source) and _same_complex(m.target, f.target)):
        raise CheckError("factor output: e does not start at X or m does not end at Y")
    if not _same_complex(e.target, m.source):
        raise CheckError("factor output: e and m do not meet in one middle object")
    for n in _span(f.source, f.target, e.target):
        for v in range(f.source.vertices):
            if ((m.at(n, v) @ e.at(n, v) - f.at(n, v)) % p).any():
                raise CheckError(f"factor output: m.e != f at degree {n}, vertex {v}")


def check_truncate(x_homology: dict, out: dict, p: int, at: int, side: str) -> None:
    cxs, _ = _check_document_laws(out, p, f"truncate --side {side} output")
    part = cxs.get("truncation")
    if part is None:
        raise CheckError("truncate output lacks the truncation")
    kept = {
        n: dims
        for n, dims in _nonzero_support(x_homology).items()
        if (n >= at if side == "ge" else n < at)
    }
    got = _nonzero_support(homology_dims(part, p))
    if got != kept:
        raise CheckError(
            f"truncate --side {side} --at {at}: homology {got}, expected {kept}"
        )


def check_postnikov(wrapper: dict, window: tuple[int, int] | None, p: int) -> None:
    if wrapper.get("verified") is not True:
        raise CheckError("postnikov: tower not verified")
    _check_document_laws(wrapper["document"], p, "postnikov output")
    got_window = wrapper.get("window")
    if (None if got_window is None else tuple(got_window)) != window:
        raise CheckError(f"postnikov: window {got_window}, fiber homology gives {window}")
    degrees = wrapper.get("degrees")
    if window is None:
        ok = degrees == [None]
    else:
        ok = all(isinstance(d, int) for d in degrees) and sorted(degrees) == list(
            range(*window)
        )
    if not ok:
        want = [None] if window is None else list(range(*window))
        raise CheckError(f"postnikov: stage degrees {degrees} do not enumerate {want}")


def check_normality(tree: dict) -> None:
    failing = [c for c in NORMALITY_CONDITIONS if tree.get(c) is not True]
    if failing or tree.get("all_hold") is not True:
        raise CheckError(f"normality: conditions fail: {failing or ['all_hold']}")


def check_rejected(status: int, stdout: str, stderr: str) -> None:
    lines = stderr.splitlines()
    if status != 1:
        raise CheckError(f"rejected document: exit status {status}, expected 1")
    if stdout or len(lines) != 1 or not lines[0].startswith("error: "):
        raise CheckError(f"rejected document: expected one 'error:' line, got {stderr!r}")


# -- suite-default ----------------------------------------------------------------


def check_suite_report(text: str) -> None:
    """text is the program's JSON report of the default suite."""
    tree = json.loads(text)
    props = tree.get("properties", [])
    if len(props) != SUITE_PROPERTIES:
        raise CheckError(f"suite: {len(props)} properties, expected {SUITE_PROPERTIES}")
    for prop in props:
        want = SUITE_FIXED.get(prop["name"], SUITE_CASES)
        if prop["cases"] != want or prop["passed"] != want or prop["failed"]:
            raise CheckError(
                f"suite: {prop['name']} passed {prop['passed']}/{prop['cases']}, "
                f"expected {want}/{want}"
            )
    if tree.get("ok") is not True:
        raise CheckError("suite: report is not ok")
