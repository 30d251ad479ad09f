"""Seeded verification suite: every law the library promises, run as data.

Each property draws its cases from a deterministic stream: case k of
property i under seed s uses the generator seeded with [s, i, k], and the
(prime, quiver) pair and truncation cutoff rotate with k.  Reports are
therefore byte-identical for identical configs.  Cases run in order, and
the counterexample is always the lowest failing case.

A case returns nothing when it passes, and raises _Fail with a detail and
the objects that show it when it fails.  _run_case builds the case's
TStructure once and hands it to the runner, and builds each counterexample
once, reading its document and prime off those objects.

Truncation entry points are called through the tstruct module object
rather than imported names, so a deliberately corrupted truncation
(swapped in by a test) is picked up here and surfaces as a failing
property with a replayable counterexample.  A case that raises also names,
as raised_at, the innermost torsionlab frame (module.py:function) that the
exception passed through.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

from . import tstruct
from .complexes import (
    CommutingSquare,
    Complex,
    compose,
    cone,
    direct_sum_complex,
    fib,
    hom_complex,
    homology_dims,
    homotopy_pullback,
    identity_map,
    induced_homology_map,
    is_cartesian,
    is_cocartesian,
    is_pullout,
    is_quasi_iso,
    random_chain_map,
    random_complex,
    shift,
    zero_complex,
    zero_map,
)
from .document import document_of, parse_quiver, serialize_document
from .factorization import (
    antitone_check,
    factor,
    in_E,
    in_M,
    is_orthogonal,
    normality_report,
    roundtrip_check,
    sator_check,
    semiexact_check,
    solve_lifting,
    three_for_two_check,
)
from .linalg import Mat, PrimeField, rank
from .postnikov import postnikov_tower, verify_tower
from .quiver import Quiver, QuiverRep, rep_cokernel, rep_kernel

__all__ = [
    "PropertyResult",
    "Report",
    "SuiteConfig",
    "property_names",
    "render_tree",
    "replay_case",
    "report_json",
    "report_text",
    "resolve_quiver",
    "run_suite",
]

REPORT_VERSION = 1


# Named shapes: besides point and a2, the path a -> b -> c, the Kronecker
# quiver (two parallel arrows a -> b) and D4 with its three arms pointing at d.
_NAMED_QUIVERS = {
    "point": Quiver.point(),
    "one-vertex": Quiver.point(),
    "1": Quiver.point(),
    "a2": Quiver.a2(),
    "a3": Quiver(("a", "b", "c"), (("a", "b"), ("b", "c"))),
    "kronecker": Quiver(("a", "b"), (("a", "b"), ("a", "b"))),
    "d4": Quiver(("a", "b", "c", "d"), (("a", "d"), ("b", "d"), ("c", "d"))),
}


def resolve_quiver(name: str) -> Quiver:
    """A named shape, or a path to a JSON file with vertices and arrows."""
    key = name.strip().lower()
    if key in _NAMED_QUIVERS:
        return _NAMED_QUIVERS[key]
    if os.path.exists(name):
        with open(name, encoding="utf-8") as fh:
            return parse_quiver(json.load(fh))
    raise ValueError(
        f"unknown quiver {name!r} (try point, a2, a3, kronecker, d4, or a file path)"
    )


@dataclass(frozen=True)
class SuiteConfig:
    primes: tuple[int, ...] = (2, 3)
    quivers: tuple[str, ...] = ("point", "a2")
    seed: int = 0
    cases: int = 100
    max_dim: int = 4
    window: tuple[int, int] = (-4, 4)
    shifts: tuple[int, ...] = (-2, -1, 0, 1, 2)

    def __post_init__(self):
        if not self.primes:
            raise ValueError("at least one prime required")
        for p in self.primes:
            PrimeField(p)
        if not self.quivers:
            raise ValueError("at least one quiver required")
        for q in self.quivers:
            resolve_quiver(q)
        if self.cases < 1:
            raise ValueError("cases must be at least 1")
        if self.max_dim < 1:
            raise ValueError("max_dim must be at least 1")
        if self.window[0] > self.window[1]:
            raise ValueError("degree window is empty")
        if not self.shifts:
            raise ValueError("at least one cutoff shift required")

    def to_tree(self) -> dict:
        return {
            "primes": list(self.primes),
            "quivers": list(self.quivers),
            "seed": self.seed,
            "cases": self.cases,
            "max_dim": self.max_dim,
            "window": list(self.window),
            "shifts": list(self.shifts),
        }

    @classmethod
    def from_tree(cls, tree: dict) -> "SuiteConfig":
        kwargs = {}
        for key in ("primes", "quivers", "shifts"):
            if key in tree:
                kwargs[key] = tuple(tree[key])
        for key in ("seed", "cases", "max_dim"):
            if key in tree:
                kwargs[key] = int(tree[key])
        if "window" in tree:
            kwargs["window"] = (int(tree["window"][0]), int(tree["window"][1]))
        unknown = set(tree) - {
            "primes", "quivers", "seed", "cases", "max_dim", "window", "shifts",
        }
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**kwargs)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    cases: int
    failed: int
    counterexample: dict | None
    elapsed: float

    @property
    def passed(self) -> int:
        return self.cases - self.failed

    @property
    def ok(self) -> bool:
        return self.failed == 0


@dataclass(frozen=True)
class Report:
    config: SuiteConfig
    results: tuple[PropertyResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_tree(self) -> dict:
        # wall-clock stays out of the tree so identical runs serialize identically
        return {
            "report_version": REPORT_VERSION,
            "ok": self.ok,
            "config": self.config.to_tree(),
            "properties": [
                {
                    "name": r.name,
                    "cases": r.cases,
                    "passed": r.passed,
                    "failed": r.failed,
                    "counterexample": r.counterexample,
                }
                for r in self.results
            ],
        }


def report_json(report: Report) -> str:
    return json.dumps(report.to_tree(), indent=2, sort_keys=True) + "\n"


def _result_line(name: str, passed: int, cases: int, suffix: str) -> str:
    verdict = "PASS" if passed == cases else "FAIL"
    return f"{verdict} {name:<22} {passed}/{cases}{suffix}"


def _failure_line(ce: dict) -> str:
    at = f" (raised at {ce['raised_at']})" if "raised_at" in ce else ""
    return (
        f"     first failure: case {ce['case']} "
        f"(seed path {ce['seed_path']}): {ce['detail']}{at}"
    )


def report_text(report: Report) -> str:
    lines = []
    for r in report.results:
        lines.append(_result_line(r.name, r.passed, r.cases, f"  ({r.elapsed:.2f}s)"))
        if r.counterexample is not None:
            lines.append(_failure_line(r.counterexample))
    total = sum(r.elapsed for r in report.results)
    lines.append(f"{'suite ok' if report.ok else 'suite FAILED'}  ({total:.2f}s)")
    return "\n".join(lines) + "\n"


def render_tree(tree: dict, fmt: str) -> str:
    """Re-render a previously emitted JSON report."""
    if tree.get("report_version") != REPORT_VERSION:
        raise ValueError(f"unsupported report_version {tree.get('report_version')!r}")
    if fmt == "json":
        return json.dumps(tree, indent=2, sort_keys=True) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = []
    for r in tree["properties"]:
        lines.append(_result_line(r["name"], r["passed"], r["cases"], ""))
        if r.get("counterexample"):
            lines.append(_failure_line(r["counterexample"]))
    lines.append("suite ok" if tree["ok"] else "suite FAILED")
    return "\n".join(lines) + "\n"


# -- case generation helpers ---------------------------------------------------


def _draw(rng, fld, quiver, config: SuiteConfig) -> Complex:
    return random_complex(
        quiver, fld, rng,
        max_dim=config.max_dim, lo=config.window[0], hi=config.window[1],
    )


def _draw_small(rng, fld, quiver, config: SuiteConfig) -> Complex:
    """Trimmed envelope for the hom-complex-heavy properties."""
    return random_complex(
        quiver, fld, rng,
        max_dim=min(config.max_dim, 2),
        lo=max(config.window[0], -2),
        hi=min(config.window[1], 2),
    )


def _sphere(quiver: Quiver, fld: PrimeField, n: int) -> Complex:
    """One-dimensional stalk at degree n (zero arrow action)."""
    dims = tuple(1 for _ in quiver.vertices)
    mats = tuple(
        Mat.zeros(fld, 1, 1) for _ in quiver.arrows
    )
    return Complex(quiver, fld, n, (QuiverRep(quiver, fld, dims, mats),), ())


class _Fail(Exception):
    """A failing case: what broke, and the complexes and maps that show it.
    _run_case turns it into the counterexample's detail and document."""

    def __init__(self, detail: str, complexes=None, maps=None):
        super().__init__(detail)
        self.detail, self.complexes, self.maps = detail, complexes, maps


# -- the properties -------------------------------------------------------------


def _case_pullout(rng, fld, quiver, t, config, case):
    x = _draw(rng, fld, quiver, config)
    y = _draw(rng, fld, quiver, config)
    f = random_chain_map(x, y, rng)
    w = _draw(rng, fld, quiver, config)
    g = random_chain_map(w, y, rng)
    z0 = zero_complex(quiver, fld)

    cf = cone(f)
    sq_cone = CommutingSquare(f, zero_map(x, z0), cf.into, zero_map(z0, cf.complex), cf.null_wit)
    sq_pb = homotopy_pullback(f, g).square
    # degenerate square on x: a pullout exactly when x is acyclic
    sq_zero = CommutingSquare.strict(
        zero_map(x, z0), zero_map(x, z0), zero_map(z0, x), zero_map(z0, x)
    )
    for tag, sq in (("cone", sq_cone), ("pullback", sq_pb), ("zero", sq_zero)):
        if is_cartesian(sq) != is_cocartesian(sq):
            raise _Fail(
                f"cartesian/cocartesian disagree on the {tag} square", maps={"f": f, "g": g}
            )
    fb = fib(f)
    sq_fib = CommutingSquare(
        fb.to_source, zero_map(fb.complex, z0), f, zero_map(z0, y), fb.null_wit
    )
    if not is_pullout(sq_fib):
        raise _Fail("fiber square is not a pullout", maps={"f": f})


def _case_t_axioms(rng, fld, quiver, t, config, case):
    x = _draw_small(rng, fld, quiver, config)
    y = _draw_small(rng, fld, quiver, config)
    sx, _ = tstruct.truncate_ge(x, t)
    ry, _ = tstruct.truncate_lt(y, t)
    shown = {"x": x, "y": y}
    hom = hom_complex(sx, ry)
    for n, dims in homology_dims(hom.complex).items():
        if n >= 0 and any(dims):
            raise _Fail(f"hom of upper part into lower part has homology at {n}", shown)
    if not (tstruct.in_coaisle(sx, t) and tstruct.in_coaisle(shift(sx, 1), t)):
        raise _Fail("upper truncation not shift-stable", shown)
    if not (tstruct.in_aisle(ry, t) and tstruct.in_aisle(shift(ry, -1), t)):
        raise _Fail("lower truncation not shift-stable", shown)
    if not is_pullout(tstruct.truncation_square(x, t)):
        raise _Fail("truncation square is not a pullout", shown)


def _case_factorization(rng, fld, quiver, t, config, case):
    x = _draw(rng, fld, quiver, config)
    y = _draw(rng, fld, quiver, config)
    f = random_chain_map(x, y, rng)
    shown = {"f": f}
    fac = factor(f, t)
    if not in_E(fac.e, t):
        raise _Fail("left factor is not inverted by the lower truncation", maps=shown)
    if not in_M(fac.m, t):
        raise _Fail("right factor is not inverted by the upper truncation", maps=shown)
    if compose(fac.m, fac.e) != f:
        raise _Fail("factorization composite differs from the map", maps=shown)
    if not is_quasi_iso(factor(fac.m, t).e):
        raise _Fail("re-factoring the right factor gives a non-invertible left part", maps=shown)
    if not is_quasi_iso(factor(fac.e, t).m):
        raise _Fail("re-factoring the left factor gives a non-invertible right part", maps=shown)


def _case_lifting(rng, fld, quiver, t, config, case):
    if case % 7 < 5:
        x = _draw_small(rng, fld, quiver, config)
        y = _draw_small(rng, fld, quiver, config)
        w = _draw_small(rng, fld, quiver, config)
        z = _draw_small(rng, fld, quiver, config)
        e = factor(random_chain_map(x, y, rng), t).e
        m = factor(random_chain_map(w, z, rng), t).m
        glue = random_chain_map(e.target, m.source, rng)
        sq = CommutingSquare.strict(compose(glue, e), e, m, compose(m, glue))
        count, witness = solve_lifting(sq)
        shown = {"e": e, "m": m, "glue": glue}
        if not is_orthogonal(e, m):
            raise _Fail("orthogonality fails on a factored pair", maps=shown)
        if count != 1 or witness is None:
            raise _Fail(f"expected a unique filler class, solver found {count}", maps=shown)
        return
    # constructed non-orthogonal pair: a stalk at the cut receives from the
    # initial object in E, but its collapse is not in M
    s = _sphere(quiver, fld, t.n)
    z0 = zero_complex(quiver, fld)
    e = zero_map(z0, s)
    m = zero_map(s, z0)
    sq = CommutingSquare.strict(zero_map(z0, s), e, m, zero_map(s, z0))
    count, _ = solve_lifting(sq)
    if is_orthogonal(e, m) or count == 1:
        raise _Fail(f"non-orthogonal stalk pair not detected (count {count})", {"s": s})


def _case_normality(rng, fld, quiver, t, config, case):
    x = _draw(rng, fld, quiver, config)
    report = normality_report(x, t)
    if not (report.all_hold() and report.agree()):
        raise _Fail(f"normality conditions disagree: {report.as_tuple()}", {"x": x})


def _case_semiexact(rng, fld, quiver, t, config, case):
    x = _draw(rng, fld, quiver, config)
    y = _draw(rng, fld, quiver, config)
    f = random_chain_map(x, y, rng)
    if not semiexact_check(f, t):
        raise _Fail("pushout-to-pullback comparison is not a quasi-iso", maps={"f": f})


def _case_em_intersection(rng, fld, quiver, t, config, case):
    x = _draw(rng, fld, quiver, config)
    y = _draw(rng, fld, quiver, config)
    f = random_chain_map(x, y, rng)
    both = in_E(f, t) and in_M(f, t)
    if both != is_quasi_iso(f):
        raise _Fail("intersection of the two classes differs from quasi-isos", maps={"f": f})
    # constructed quasi-iso: pad the source with a contractible summand
    a = _draw(rng, fld, quiver, config)
    ca = cone(identity_map(a)).complex
    inj = direct_sum_complex(x, ca).inclusion(0)
    if not (is_quasi_iso(inj) and in_E(inj, t) and in_M(inj, t)):
        raise _Fail("constructed quasi-iso missing from one of the classes", maps={"inj": inj})


def _case_three_for_two(rng, fld, quiver, t, config, case):
    x = _draw(rng, fld, quiver, config)
    y = _draw(rng, fld, quiver, config)
    z = _draw(rng, fld, quiver, config)
    f = random_chain_map(x, y, rng)
    g = random_chain_map(y, z, rng)
    shown = {"f": f, "g": g}
    if not three_for_two_check("E", t, [(f, g)]):
        raise _Fail("three-for-two fails for the inverted-below class", maps=shown)
    if not three_for_two_check("M", t, [(f, g)]):
        raise _Fail("three-for-two fails for the inverted-above class", maps=shown)
    if not sator_check(x, t):
        raise _Fail("initial and terminal arrows of an object disagree on class", maps=shown)


def _case_roundtrips(rng, fld, quiver, t, config, case):
    x = _draw(rng, fld, quiver, config)
    y = _draw(rng, fld, quiver, config)
    f = random_chain_map(x, y, rng)
    if not roundtrip_check(t, morphisms=[f], objects=[x]):
        raise _Fail("membership roundtrip broke", maps={"f": f})
    other = config.shifts[(case + 1) % len(config.shifts)]
    lo, hi = sorted((t.n, other))
    if not antitone_check(f, tstruct.TStructure(lo), tstruct.TStructure(hi)):
        raise _Fail(
            f"class containment not antitone between cutoffs {lo} and {hi}", maps={"f": f}
        )


def _case_heart(rng, fld, quiver, t, config, case):
    hm = tstruct.random_heart_morphism(quiver, fld, t, rng)
    shown = {"f": hm.map}
    comparison, _ = tstruct.heart_comparison(hm)
    if not is_quasi_iso(comparison):
        raise _Fail("coimage-to-image comparison is not a quasi-iso", maps=shown)
    h_map = induced_homology_map(hm.map, t.n)
    zero_dims = tuple(0 for _ in quiver.vertices)
    ker = tstruct.heart_kernel(hm).source
    if homology_dims(ker).get(t.n, zero_dims) != rep_kernel(h_map)[0].dims:
        raise _Fail("kernel dimensions disagree with the homology-level kernel", maps=shown)
    cok = tstruct.heart_cokernel(hm).target
    if homology_dims(cok).get(t.n, zero_dims) != rep_cokernel(h_map)[0].dims:
        raise _Fail("cokernel dimensions disagree with the homology-level cokernel", maps=shown)


def _case_postnikov(rng, fld, quiver, t, config, case):
    x = _draw(rng, fld, quiver, config)
    y = _draw(rng, fld, quiver, config)
    f = random_chain_map(x, y, rng)
    shown = {"f": f}
    tower = postnikov_tower(f)
    if not verify_tower(f, tower):
        raise _Fail("tower fails verification", maps=shown)
    win = tower.window  # verify_tower checked it equals boundedness_window(f)
    if win is None:
        if len(tower.stages) != 1 or tower.stages[0].degree is not None:
            raise _Fail("invertible map did not produce the one-stage tower", maps=shown)
        return
    if len(tower.stages) != win.width:
        raise _Fail(f"tower length {len(tower.stages)} != window width {win.width}", maps=shown)
    degrees = sorted(s.degree for s in tower.stages)
    if degrees != list(range(win.lo, win.hi)):
        raise _Fail(f"stage degrees {degrees} do not enumerate the window", maps=shown)


# -- degree-wise mapping-space counter, assembled from scratch ------------------


def _graded_map_boundary(x: Complex, y: Complex, n: int, fld) -> Mat:
    """Matrix of f |-> d.f - (-1)^n f.d on degree-n graded maps, via Kronecker
    blocks on raw matrix entries.  Point quiver only."""
    if x.is_zero() or y.is_zero():
        return Mat.zeros(fld, 0, 0)
    slots = list(range(x.lo, x.hi + 1))
    cols = {i: x.term(i).dims[0] * y.term(i + n).dims[0] for i in slots}
    rows = {i: x.term(i).dims[0] * y.term(i + n - 1).dims[0] for i in slots}
    sign = fld.p - 1 if n % 2 else 1
    total_rows, total_cols = sum(rows.values()), sum(cols.values())
    out = np.zeros((total_rows, total_cols), dtype=np.int64)
    row_off = {}
    acc = 0
    for i in slots:
        row_off[i] = acc
        acc += rows[i]
    col_off = {}
    acc = 0
    for i in slots:
        col_off[i] = acc
        acc += cols[i]
    for i in slots:
        dy = y.diff(i + n).components[0].a
        dx = x.diff(i).components[0].a
        xi = x.term(i).dims[0]
        yi = y.term(i + n - 1).dims[0]
        if cols[i] and rows[i]:
            blk = np.kron(dy, np.eye(xi, dtype=np.int64))
            out[row_off[i] : row_off[i] + rows[i], col_off[i] : col_off[i] + cols[i]] += blk
        if i - 1 in col_off and cols[i - 1] and rows[i]:
            blk = (fld.p - sign) % fld.p * np.kron(np.eye(yi, dtype=np.int64), dx.T)
            out[row_off[i] : row_off[i] + rows[i], col_off[i - 1] : col_off[i - 1] + cols[i - 1]] += blk
    return Mat(fld, out % fld.p)


def _class_dim_direct(x: Complex, y: Complex, n: int, fld) -> int:
    d_n = _graded_map_boundary(x, y, n, fld)
    d_up = _graded_map_boundary(x, y, n + 1, fld)
    return d_n.cols - rank(d_n) - rank(d_up)


def _micro_pair(case: int) -> tuple[Complex, Complex, PrimeField]:
    """Instance `case` of the fixed micro enumeration (seed-independent)."""
    half = FIXED_CASES["hom-oracle"] // 2
    p = 2 if case < half else 3
    k = case % half
    fld = PrimeField(p)
    quiver = Quiver.point()
    gen = np.random.default_rng([2718, p, k])
    if k % 2:
        draw = lambda: random_complex(quiver, fld, gen, max_dim=2, lo=0, hi=1)
    else:
        draw = lambda: random_complex(quiver, fld, gen, max_dim=1, lo=0, hi=2)
    pair = []
    for _ in range(2):
        c = draw()
        while c.is_zero():
            c = draw()
        pair.append(c)
    return pair[0], pair[1], fld


def _case_hom_oracle(rng, fld, quiver, t, config, case):
    x, y, fld = _micro_pair(case)
    hdims = homology_dims(hom_complex(x, y).complex)
    for n in range(y.lo - x.hi - 1, y.hi - x.lo + 2):
        route_a = hdims.get(n, (0,))[0]
        route_b = _class_dim_direct(x, y, n, fld)
        if route_a != route_b:
            raise _Fail(
                f"degree {n}: mapping-complex homology {fld.p}^{route_a} vs "
                f"{fld.p}^{route_b} homotopy classes by direct count",
                {"x": x, "y": y},
            )


PROPERTIES: tuple[tuple[str, object], ...] = (
    ("pullout-agreement", _case_pullout),
    ("t-axioms", _case_t_axioms),
    ("factorization", _case_factorization),
    ("lifting-cross-check", _case_lifting),
    ("normality", _case_normality),
    ("semiexactness", _case_semiexact),
    ("em-intersection", _case_em_intersection),
    ("three-for-two-sator", _case_three_for_two),
    ("roundtrips", _case_roundtrips),
    ("heart-abelian", _case_heart),
    ("postnikov", _case_postnikov),
    ("hom-oracle", _case_hom_oracle),
)

# the micro enumeration fixes its own breadth; everything else obeys config.cases
FIXED_CASES = {"hom-oracle": 200}


def property_names() -> tuple[str, ...]:
    return tuple(name for name, _ in PROPERTIES)


def _case_count(name: str, config: SuiteConfig) -> int:
    return FIXED_CASES.get(name, config.cases)


def _raised_at(exc: Exception) -> str:
    """module.py:function of the innermost torsionlab frame that exc passed."""
    here = os.path.dirname(os.path.abspath(__file__))
    frames = traceback.extract_tb(exc.__traceback__)
    inner = [f for f in frames if os.path.dirname(os.path.abspath(f.filename)) == here]
    return f"{os.path.basename(inner[-1].filename)}:{inner[-1].name}"


def _run_case(config: SuiteConfig, prop_index: int, case: int) -> dict | None:
    _, runner = PROPERTIES[prop_index]
    combos = [(p, q) for p in config.primes for q in config.quivers]
    p, qname = combos[case % len(combos)]
    cut = config.shifts[case % len(config.shifts)]
    rng = np.random.default_rng([config.seed, prop_index, case])
    context = {
        "case": case,
        "prime": p,
        "quiver": qname,
        "cut": cut,
        "seed_path": [config.seed, prop_index, case],
    }
    try:
        runner(rng, PrimeField(p), resolve_quiver(qname), tstruct.TStructure(cut), config, case)
        return None
    except _Fail as fail:
        # the document (and its prime) come from the shown objects: hom-oracle
        # draws its own field
        shown = next(iter((fail.complexes or fail.maps).values()))
        x = shown if isinstance(shown, Complex) else shown.source
        doc = document_of(x.quiver, x.field, complexes=fail.complexes, maps=fail.maps)
        failure = {"detail": fail.detail, "prime": x.field.p, "document": serialize_document(doc)}
    except Exception as exc:
        failure = {"detail": f"{type(exc).__name__}: {exc}", "raised_at": _raised_at(exc)}
    return {**context, **failure}


def replay_case(config: SuiteConfig, name: str, case: int) -> dict | None:
    """Re-run one case of one property; None means it passes."""
    for idx, (pname, _) in enumerate(PROPERTIES):
        if pname == name:
            return _run_case(config, idx, case)
    raise ValueError(f"unknown property {name!r}")


def run_suite(config: SuiteConfig) -> Report:
    results = []
    for idx, (name, _) in enumerate(PROPERTIES):
        ncases = _case_count(name, config)
        start = time.perf_counter()
        outcomes = [_run_case(config, idx, c) for c in range(ncases)]
        elapsed = time.perf_counter() - start
        # cases run in order, so the first failure is the lowest failing case
        failures = [f for f in outcomes if f is not None]
        counterexample = failures[0] if failures else None
        results.append(
            PropertyResult(name, ncases, len(failures), counterexample, elapsed)
        )
    return Report(config, tuple(results))
