"""The three workloads.  Each builds its inputs from a seed in its
constructor and runs one round of operations per run_round call.

A round is always the same list of operations, so every run attempts whole
rounds and the share of failed operations does not depend on the run
length.  run_round times each operation with the timing.OpTimer it is given,
checks every output with the checks module, and returns (operations
attempted, operations failed).  A wrong output raises checks.CheckError.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import numpy as np

import checks

PRIMES = (2, 3)


class SuiteDefault:
    """run_suite(SuiteConfig(seed=seed)); one operation is one case."""

    name = "suite-default"

    def __init__(self, tl, seed: int, workdir: Path):
        self.suite = tl.suite
        self.config = tl.SuiteConfig(seed=seed)
        self.case_counts: list[tuple[str, int]] = []

    def run_round(self, timer) -> tuple[int, int]:
        suite = self.suite
        run_case = suite._run_case

        def timed_case(*args):
            timer.start()
            try:
                return run_case(*args)
            finally:
                timer.stop()

        suite._run_case = timed_case
        try:
            report = suite.run_suite(self.config)
        finally:
            suite._run_case = run_case
        checks.check_suite_report(suite.report_json(report))
        self.case_counts = [(r.name, r.cases) for r in report.results]
        return sum(r.cases for r in report.results), 0

    def property_times(self, latencies: list[float]) -> dict[str, float]:
        """Seconds per property: the sum of its cases' latencies (cases run
        property by property)."""
        out, at = {}, 0
        for name, cases in self.case_counts:
            out[name] = sum(latencies[at : at + cases])
            at += cases
        return out


# hom-large size classes: (pairs per round, largest term dimension).  The
# shapes of the pairs (support lengths, term dimensions, differential ranks)
# come from the fixed generator HOM_SHAPE_SEED, so every --seed runs the same
# size mix and the cost of a round does not depend on the seed; --seed draws
# the entries, through random changes of basis.
HOM_CLASSES = ((20, 5), (18, 9), (10, 14))
HOM_SHAPE_SEED = 1408


def _shape(rng, max_dim: int) -> tuple[list[int], list[int]]:
    """Term dimensions and the rank of each differential d: X_j -> X_{j-1}."""
    length = int(rng.integers(2, 6))
    dims = [int(d) for d in rng.integers(1, max_dim + 1, size=length)]
    ranks = [0]
    for j in range(1, length):
        ranks.append(int(rng.integers(0, min(dims[j], dims[j - 1] - ranks[j - 1]) + 1)))
    return dims, ranks


def _change_of_basis(d: int, p: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """A random invertible matrix (I + L)(I + U) over F_p and its inverse."""
    eye = np.eye(d, dtype=np.int64)

    def inverse(n):  # (I + n)^-1 = sum_k (-n)^k for nilpotent n
        out, term = eye.copy(), eye.copy()
        for _ in range(d - 1):
            term = -term @ n % p
            out = (out + term) % p
        return out

    lower = np.tril(rng.integers(0, p, (d, d)), -1)
    upper = np.triu(rng.integers(0, p, (d, d)), 1)
    return (eye + lower) @ (eye + upper) % p, inverse(upper) @ inverse(lower) % p


def _complex(tl, fld, lo: int, dims: list[int], ranks: list[int], rng):
    """d_j = P_{j-1} J_j P_j^-1, where J_j sends the last ranks[j] coordinates
    of X_j onto the first ranks[j] of X_{j-1}; ranks[j] + ranks[j-1] <=
    dims[j-1] makes d.d = 0."""
    point, p = tl.Quiver.point(), fld.p
    bases = [_change_of_basis(d, p, rng) for d in dims]
    terms = [tl.QuiverRep(point, fld, (d,), ()) for d in dims]
    diffs = []
    for j in range(1, len(dims)):
        r, src, tgt = ranks[j], dims[j], dims[j - 1]
        standard = np.zeros((tgt, src), dtype=np.int64)
        standard[np.arange(r), src - r + np.arange(r)] = 1
        d = bases[j - 1][0] @ standard @ bases[j][1] % p
        diffs.append(tl.RepMap(terms[j], terms[j - 1], (tl.Mat(fld, d),)))
    return tl.Complex(point, fld, lo, tuple(terms), tuple(diffs))


class HomLarge:
    """hom_complex then homology_dims on seeded pairs of point-quiver
    complexes; one operation is one pair."""

    name = "hom-large"

    def __init__(self, tl, seed: int, workdir: Path):
        self.tl = tl
        shapes = np.random.default_rng(HOM_SHAPE_SEED)
        rng = np.random.default_rng([seed, 1])
        self.pairs = []
        for count, max_dim in HOM_CLASSES:
            for j in range(count):
                fld = tl.PrimeField(PRIMES[j % 2])
                x, y = (
                    _complex(tl, fld, int(rng.integers(-2, 1)), *_shape(shapes, max_dim), rng)
                    for _ in range(2)
                )
                expected = checks.kunneth_dims(
                    checks.cx_of_program(x), checks.cx_of_program(y), fld.p
                )
                degrees = range(y.lo - x.hi - 1, y.hi - x.lo + 2)
                self.pairs.append((x, y, expected, degrees))

    def run_round(self, timer) -> tuple[int, int]:
        tl = self.tl
        for x, y, expected, degrees in self.pairs:
            timer.start()
            got = tl.homology_dims(tl.hom_complex(x, y).complex)
            timer.stop()
            checks.check_kunneth(expected, got, degrees)
        return len(self.pairs), 0


# The valid documents of a round: DOC_QUOTA of each fiber-window width (the
# number of tower stages, the main term in a document's cost), taken from
# DOC_CANDIDATES seeded draws as those nearest DOC_DIMS in dim X + dim Y and,
# next, nearest DOC_LENGTH in the support lengths of X and Y.  A fixed mix
# and a fixed number of draws keep a round's cost and the set-up time steady
# from seed to seed.
DOC_QUOTA = {3: 6, 4: 12, 5: 15, 6: 9, 7: 6}
DOC_DIMS = 16
DOC_NEAR = 4  # draws further than this from DOC_DIMS are not candidates
DOC_LENGTH = 4
DOC_CANDIDATES = 360
DOC_DRAW = {"max_dim": 3, "lo": -3, "hi": 3}
SHIFTS = (-2, -1, 0, 1, 2)


def _ok(what: str, status: int, stderr: str) -> None:
    if status != 0 or stderr:
        raise checks.CheckError(f"{what}: exit status {status}, stderr {stderr!r}")


def _check_factor(fmap, p, status, out, err):
    _ok("factor", status, err)
    checks.check_factor(fmap, json.loads(out), p)


def _check_truncate(x_homology, p, at, side, status, out, err):
    _ok(f"truncate --side {side}", status, err)
    checks.check_truncate(x_homology, json.loads(out), p, at, side)


def _check_postnikov(window, p, status, out, err):
    _ok("postnikov", status, err)
    checks.check_postnikov(json.loads(out), window, p)


def _check_normality(status, out, err):
    _ok("normality", status, err)
    checks.check_normality(json.loads(out))


# Documents the parser must reject.  The last two are shapes that escape
# cli.main as a traceback today (AttributeError and TypeError in
# parse_document); they fail on every round and are counted as failed.
_A2 = {"vertices": ["a", "b"], "arrows": [["a", "b"]]}
_R = {"dims": [1, 0], "arrows": [[]]}  # k at a, 0 at b
FIXED_REJECTS = {
    "d-squared": {
        "reps": {"r": _R},
        "complexes": {
            "x": {"lo": 0, "terms": ["r", "r", "r"], "diffs": [[[[1]], []], [[[1]], []]]}
        },
    },
    "intertwiner": {
        "reps": {"s": {"dims": [1, 1], "arrows": [[[1]]]}},
        "complexes": {"x": {"lo": 0, "terms": ["s", "s"], "diffs": [[[[1]], [[0]]]]}},
    },
    "chain-map": {
        "reps": {"r": _R},
        "complexes": {
            "x": {"lo": 0, "terms": ["r"], "diffs": []},
            "y": {"lo": 0, "terms": ["r", "r"], "diffs": [[[[1]], []]]},
        },
        "maps": {"f": {"source": "y", "target": "x", "components": {"0": [[[1]], []]}}},
    },
    "fault-reps-body": {"reps": {"r": 5}},
    "fault-diffs-body": {"reps": {}, "complexes": {"x": {"lo": 0, "terms": [], "diffs": 5}}},
}
SEEDED_REJECTS = ("syntax", "entry-range", "unresolved-name", "format-version", "matrix-shape")


def _matrices(tree: dict) -> list[list]:
    out = [m for rep in tree["reps"].values() for m in rep["arrows"]]
    for cx in tree["complexes"].values():
        out += [m for per_vertex in cx["diffs"] for m in per_vertex]
    for f in tree["maps"].values():
        out += [m for per_vertex in f["components"].values() for m in per_vertex]
    return out


def _rejected_text(kind: str, texts: list[str], rng) -> str:
    """A seeded corruption of the first of texts that offers what kind
    corrupts; the parser must reject it."""
    for text in texts:
        if kind == "syntax":
            return text[: int(rng.integers(1, text.rindex("}")))]
        tree = json.loads(text)
        if kind == "unresolved-name":
            tree["complexes"]["x"]["terms"][0] = "missing"
        elif kind == "format-version":
            tree["format_version"] = 2
        elif kind == "entry-range":
            rows = [row for m in _matrices(tree) for row in m if row]
            if not rows:
                continue
            row = rows[int(rng.integers(len(rows)))]
            row[int(rng.integers(len(row)))] = tree["prime"] + int(rng.integers(3))
        elif kind == "matrix-shape":
            mats = [m for m in _matrices(tree) if m]
            if not mats:
                continue
            mats[int(rng.integers(len(mats)))].pop()
        return json.dumps(tree)
    raise ValueError(f"no document offers a {kind} corruption")


COMMANDS = (
    lambda path, s: ["factor", path, "--map", "f", "--shift", str(s)],
    lambda path, s: ["truncate", path, "--object", "x", "--at", str(s), "--side", "ge"],
    lambda path, s: ["truncate", path, "--object", "x", "--at", str(s), "--side", "lt"],
    lambda path, s: ["postnikov", path, "--map", "f"],
    lambda path, s: ["normality", path, "--object", "x", "--shift", str(s)],
)


class Documents:
    """Seeded a2 documents through torsionlab.cli.main, in-process; one
    operation is one command.  Each round runs the five commands on every
    valid document, then one command on each rejected document."""

    name = "documents"

    def __init__(self, tl, seed: int, workdir: Path):
        self.tl = tl
        self.ops: list[tuple[str, list[str], object]] = []
        self.failures: Counter = Counter()
        a2 = tl.Quiver.a2()
        rng = np.random.default_rng([seed, 2])
        pool = []
        for k in range(DOC_CANDIDATES):
            fld = tl.PrimeField(PRIMES[k % 2])
            x = tl.random_complex(a2, fld, rng, **DOC_DRAW)
            y = tl.random_complex(a2, fld, rng, **DOC_DRAW)
            off = abs(x.total_dim + y.total_dim - DOC_DIMS)
            if off <= DOC_NEAR:
                off += sum(abs(c.hi - c.lo + 1 - DOC_LENGTH) for c in (x, y))
                f = tl.random_chain_map(x, y, rng)
                win = tl.boundedness_window(f)
                pool.append((0 if win is None else win.width, off, k, fld, x, y, f))
        chosen: dict[int, tuple] = {}
        for width, quota in DOC_QUOTA.items():
            # nearest width first: a width short of candidates borrows from its neighbours
            ranked = sorted(
                (c for c in pool if c[2] not in chosen),
                key=lambda c: (abs(c[0] - width), c[1], c[2]),
            )
            chosen.update((c[2], c) for c in ranked[:quota])
        texts = []
        for k in sorted(chosen):
            _, _, _, fld, x, y, f = chosen[k]
            p = fld.p
            s = int(rng.choice(SHIFTS))
            text = tl.serialize_document(
                tl.document_of(a2, fld, complexes={"x": x, "y": y}, maps={"f": f})
            )
            path = str(workdir / f"doc{len(texts)}.json")
            texts.append(text)
            Path(path).write_text(text, encoding="utf-8")
            tree = json.loads(text)
            cxs = checks.complexes_of(tree)
            fmap = checks.maps_of(tree, cxs)["f"]
            xh = checks.homology_dims(cxs["x"], p)
            checkers = (
                partial(_check_factor, fmap, p),
                partial(_check_truncate, xh, p, s, "ge"),
                partial(_check_truncate, xh, p, s, "lt"),
                partial(_check_postnikov, checks.fiber_window(fmap, p), p),
                _check_normality,
            )
            for command, checker in zip(COMMANDS, checkers):
                argv = command(path, s)
                self.ops.append((argv[0], argv, checker))
        rng = np.random.default_rng([seed, 3])
        rejects = {
            kind: _rejected_text(kind, texts[i:] + texts[:i], rng)
            for i, kind in enumerate(SEEDED_REJECTS)
        }
        for kind, body in FIXED_REJECTS.items():
            rejects[kind] = json.dumps({"format_version": 1, "prime": 2, "quiver": _A2, **body})
        for i, (kind, text) in enumerate(rejects.items()):
            path = str(workdir / f"reject-{kind}.json")
            Path(path).write_text(text, encoding="utf-8")
            argv = COMMANDS[i % len(COMMANDS)](path, 0)
            self.ops.append((f"reject {kind}", argv, checks.check_rejected))

    def run_round(self, timer) -> tuple[int, int]:
        main, failed = self.tl.cli.main, 0
        for label, argv, checker in self.ops:
            out, err = io.StringIO(), io.StringIO()
            timer.start()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    status = main(argv)
            except Exception as exc:  # a traceback escaping the CLI: a failed operation
                timer.stop()
                failed += 1
                self.failures[f"{label}: {type(exc).__name__}"] += 1
            else:
                timer.stop()
                checker(status, out.getvalue(), err.getvalue())
        return len(self.ops), failed


WORKLOADS = {w.name: w for w in (SuiteDefault, HomLarge, Documents)}
