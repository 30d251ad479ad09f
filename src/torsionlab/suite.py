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

import os
import time
import traceback
from dataclasses import dataclass, fields, replace

import numpy as np

from . import tstruct
from .complexes import (
    ChainMap,
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
    initial_map,
    is_cartesian,
    is_cocartesian,
    is_pullout,
    is_quasi_iso,
    random_chain_map,
    random_complex,
    shift,
    terminal_map,
)
from .document import MAX_DIM, _dumps, _load_json, document_of, parse_quiver, serialize_document
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
from .linalg import PrimeField, rank
from .postnikov import postnikov_tower, verify_tower
from .quiver import Quiver, rep_cokernel, rep_kernel

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
# the widest config window, hi - lo: supports are drawn anywhere inside it
MAX_WINDOW = 64
# the largest |degree| of a window end or a cut: degrees are drawn as int64
MAX_DEGREE = 2**62


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
            return parse_quiver(_load_json(fh.read(), "quiver file"))
    raise ValueError(
        f"unknown quiver {name!r} (try point, a2, a3, kronecker, d4, or a file path)"
    )


_JSON = {bool: "a boolean", int: "an integer", str: "a string", list: "an array", dict: "an object"}


def _need(value, kind: type, what: str):
    """value, unless it is not a JSON value of kind (a boolean is no
    integer): then a ValueError naming what."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{what} must be {_JSON[kind]}")
    return value


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
        if self.seed < 0:
            raise ValueError("seed must be at least 0")
        if self.cases < 1:
            raise ValueError("cases must be at least 1")
        if not 1 <= self.max_dim <= MAX_DIM:
            raise ValueError(f"max_dim must be between 1 and {MAX_DIM}")
        if not 0 <= self.window[1] - self.window[0] <= MAX_WINDOW:
            raise ValueError(f"config key 'window' needs 0 <= hi - lo <= {MAX_WINDOW}")
        for key in ("window", "shifts"):
            if any(abs(n) > MAX_DEGREE for n in getattr(self, key)):
                raise ValueError(f"config key {key!r} needs degrees within ±2^62")
        if not self.shifts:
            raise ValueError("at least one cutoff shift required")

    def to_tree(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}

    @classmethod
    def from_tree(cls, tree: dict) -> "SuiteConfig":
        unknown = set(_need(tree, dict, "a config")) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for key, value in tree.items():
            what = f"config key {key!r}"
            if key in ("seed", "cases", "max_dim"):
                kwargs[key] = _need(value, int, what)
                continue
            kind = str if key == "quivers" else int
            items = _need(value, list, what)
            kwargs[key] = tuple(_need(v, kind, f"each entry of {what}") for v in items)
        if len(kwargs.get("window", (0, 0))) != 2:
            raise ValueError("config key 'window' must hold two integers")
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
    return _dumps(report.to_tree())


def report_text(report: Report) -> str:
    times = [r.elapsed for r in report.results]
    return _text(report.to_tree(), [f"  ({s:.2f}s)" for s in times + [sum(times)]])


def _text(tree: dict, suffixes: list[str]) -> str:
    """The text of a report tree: a line per property, ended by its suffix,
    and the verdict line, ended by the last suffix."""
    lines = []
    for r, suffix in zip(tree["properties"], suffixes):
        verdict = "PASS" if r["passed"] == r["cases"] else "FAIL"
        lines.append(f"{verdict} {r['name']:<22} {r['passed']}/{r['cases']}{suffix}")
        if ce := r.get("counterexample"):
            at = f" (raised at {ce['raised_at']})" if "raised_at" in ce else ""
            lines.append(
                f"     first failure: case {ce['case']} "
                f"(seed path {ce['seed_path']}): {ce['detail']}{at}"
            )
    lines.append(("suite ok" if tree["ok"] else "suite FAILED") + suffixes[-1])
    return "\n".join(lines) + "\n"


def render_tree(tree: dict, fmt: str) -> str:
    """Re-render a previously emitted JSON report, refused unless every
    field the text reads has the type report_json writes."""
    version = _need(tree, dict, "a report").get("report_version")
    if type(version) is not int or version != REPORT_VERSION:
        raise ValueError(f"unsupported report_version {version!r}")
    _need(tree.get("ok"), bool, "report key 'ok'")
    for r in _need(tree.get("properties"), list, "report key 'properties'"):
        what = "each entry of report key 'properties'"
        for key, kind in (("name", str), ("passed", int), ("cases", int)):
            _need(_need(r, dict, what).get(key), kind, f"key {key!r} of {what}")
        ce = r.get("counterexample")
        if ce and {"case", "seed_path", "detail"} - set(_need(ce, dict, "a counterexample")):
            raise ValueError("a counterexample needs the keys 'case', 'seed_path' and 'detail'")
    if fmt == "json":
        return _dumps(tree)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    return _text(tree, [""] * (len(tree["properties"]) + 1))


# -- case generation helpers ---------------------------------------------------


def _draw(rng, fld, quiver, config: SuiteConfig) -> Complex:
    return random_complex(
        quiver, fld, rng,
        max_dim=config.max_dim, lo=config.window[0], hi=config.window[1],
    )


def _draw_map(rng, fld, quiver, config: SuiteConfig) -> tuple[Complex, Complex, ChainMap]:
    """x and y drawn by _draw, then a chain map f : x -> y."""
    x = _draw(rng, fld, quiver, config)
    y = _draw(rng, fld, quiver, config)
    return x, y, random_chain_map(x, y, rng)


def _draw_small(rng, fld, quiver, config: SuiteConfig) -> Complex:
    """Trimmed envelope for the hom-complex-heavy properties: the window's
    part in [-2, 2], or the (at most) 5 degrees of the window nearest 0 when
    it misses [-2, 2]."""
    lo, hi = config.window
    if lo > 2:
        hi = min(hi, lo + 4)
    elif hi < -2:
        lo = max(lo, hi - 4)
    else:
        lo, hi = max(lo, -2), min(hi, 2)
    return random_complex(quiver, fld, rng, max_dim=min(config.max_dim, 2), lo=lo, hi=hi)


class _Fail(Exception):
    """A failing case: what broke, and the complexes and maps that show it.
    _run_case turns it into the counterexample's detail and document."""

    def __init__(self, detail: str, complexes=None, maps=None):
        super().__init__(detail)
        self.detail, self.complexes, self.maps = detail, complexes, maps


# -- the properties -------------------------------------------------------------


def _case_pullout(rng, fld, quiver, t, config, case):
    x, y, f = _draw_map(rng, fld, quiver, config)
    w = _draw(rng, fld, quiver, config)
    g = random_chain_map(w, y, rng)
    sq_pb = homotopy_pullback(f, g).square
    # degenerate square on x: a pullout exactly when x is acyclic
    out, back = terminal_map(x), initial_map(x)
    sq_zero = CommutingSquare.strict(out, out, back, back)
    for tag, sq in (("cone", cone(f).square), ("pullback", sq_pb), ("zero", sq_zero)):
        if is_cartesian(sq) != is_cocartesian(sq):
            raise _Fail(
                f"cartesian/cocartesian disagree on the {tag} square", maps={"f": f, "g": g}
            )
    if not is_pullout(fib(f).square):
        raise _Fail("fiber square is not a pullout", maps={"f": f})
    if is_pullout(sq_zero) != (not any(any(d) for d in homology_dims(x).values())):
        raise _Fail("pullout test of the zero square disagrees with H(x)", complexes={"x": x})


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
    _, _, f = _draw_map(rng, fld, quiver, config)
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
    s = tstruct.heart_stalk(quiver, fld, t)
    e, m = initial_map(s), terminal_map(s)
    count, _ = solve_lifting(CommutingSquare.strict(e, e, m, m))
    if is_orthogonal(e, m) or count == 1:
        raise _Fail(f"non-orthogonal stalk pair not detected (count {count})", {"s": s})


def _case_normality(rng, fld, quiver, t, config, case):
    x = _draw(rng, fld, quiver, config)
    report = normality_report(x, t)
    if not report.all_hold():
        raise _Fail(f"normality conditions disagree: {report.as_tuple()}", {"x": x})


def _case_semiexact(rng, fld, quiver, t, config, case):
    _, _, f = _draw_map(rng, fld, quiver, config)
    if not semiexact_check(f, t):
        raise _Fail("pushout-to-pullback comparison is not a quasi-iso", maps={"f": f})


def _case_em_intersection(rng, fld, quiver, t, config, case):
    x, _, f = _draw_map(rng, fld, quiver, config)
    both = in_E(f, t) and in_M(f, t)
    if both != is_quasi_iso(f):
        raise _Fail("intersection of the two classes differs from quasi-isos", maps={"f": f})
    # constructed quasi-iso: pad the source with a contractible summand
    a = _draw(rng, fld, quiver, config)
    ca = cone(identity_map(a))
    inj = direct_sum_complex(x, ca).inclusion(0)
    if not (is_quasi_iso(inj) and in_E(inj, t) and in_M(inj, t)):
        raise _Fail("constructed quasi-iso missing from one of the classes", maps={"inj": inj})


def _mono(f: ChainMap, t) -> bool:
    """Degreewise monomorphisms (t is not read): they compose, but do not cancel."""
    return all(rank(c) == c.cols for n in f.source.support for c in f.comp(n).components)


def _case_three_for_two(rng, fld, quiver, t, config, case):
    x = _draw(rng, fld, quiver, config)
    y = _draw(rng, fld, quiver, config)
    z = _draw(rng, fld, quiver, config)
    f = random_chain_map(x, y, rng)
    g = random_chain_map(y, z, rng)
    shown = {"f": f, "g": g}
    if not three_for_two_check(in_E, f, g, t):
        raise _Fail("three-for-two fails for the inverted-below class", maps=shown)
    if not three_for_two_check(in_M, f, g, t):
        raise _Fail("three-for-two fails for the inverted-above class", maps=shown)
    if not (sator_check(in_E, x, t) and sator_check(in_M, x, t)):
        raise _Fail("initial and terminal arrows of an object disagree on class", maps=shown)
    # planted no: the arrows of a nonzero stalk, where monomorphisms fail both laws
    s = tstruct.heart_stalk(quiver, fld, t)
    if three_for_two_check(_mono, initial_map(s), terminal_map(s), t) or sator_check(_mono, s, t):
        raise _Fail("a class check accepts the monomorphisms, which do not cancel", {"s": s})


def _case_roundtrips(rng, fld, quiver, t, config, case):
    x, _, f = _draw_map(rng, fld, quiver, config)
    if not roundtrip_check(f, x, t):
        raise _Fail("membership roundtrip broke", maps={"f": f})
    other = tstruct.TStructure(config.shifts[(case + 1) % len(config.shifts)])
    lo, hi = sorted((t, other))
    if not antitone_check(in_M, f, lo, hi):
        raise _Fail(
            f"class containment not antitone between cutoffs {lo} and {hi}", maps={"f": f}
        )
    # planted no: 0 -> s for a stalk s at the cut is in E there, not one cut higher
    s = tstruct.heart_stalk(quiver, fld, t)
    if antitone_check(in_E, initial_map(s), t, t.shifted(1)):
        raise _Fail("the antitone check lets E grow as the cut rises", {"s": s})


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
    _, _, f = _draw_map(rng, fld, quiver, config)
    shown = {"f": f}
    tower = postnikov_tower(f)
    if not verify_tower(f, tower):
        raise _Fail("tower fails verification", maps=shown)
    win = tower.window  # verify_tower checked it equals boundedness_window(f)
    # planted no: the tower with its last stage dropped, or with a degree shifted
    wrong = [replace(tower, stages=tower.stages[:-1])]
    if win is None:
        if len(tower.stages) != 1 or tower.stages[0].degree is not None:
            raise _Fail("invertible map did not produce the one-stage tower", maps=shown)
    else:
        if len(tower.stages) != win.width:
            raise _Fail(f"tower length {len(tower.stages)} != window width {win.width}", maps=shown)
        degrees = sorted(s.degree for s in tower.stages)
        if degrees != list(range(win.lo, win.hi)):
            raise _Fail(f"stage degrees {degrees} do not enumerate the window", maps=shown)
        top = replace(tower.stages[0], degree=tower.stages[0].degree + 1)
        wrong.append(replace(tower, stages=(top, *tower.stages[1:])))
    if any(verify_tower(f, bad) for bad in wrong):
        raise _Fail("verify_tower accepts a tower with a stage dropped or shifted", maps=shown)


# -- homotopy classes counted by Künneth from the ends' own ranks ---------------


def _class_dim_direct(x: Complex, y: Complex, n: int, fld) -> int:
    """dim H_n Hom(X, Y) by Künneth: the sum over i of dim H_i(X) *
    dim H_{i+n}(Y), each read as dim X_i - rank d_i - rank d_{i+1} off the
    ends' own differentials (point quiver only; fld is not read).  It shares
    only `rank`, on the ends' small matrices, with the mapping complex."""

    def h(c: Complex, i: int) -> int:
        out, into = c.diff(i).components[0], c.diff(i + 1).components[0]
        return c.term(i).dims[0] - rank(out) - rank(into)

    return sum(h(x, i) * h(y, i + n) for i in x.support)


def _micro_pair(case: int) -> tuple[Complex, Complex, PrimeField]:
    """Instance `case` of the fixed micro enumeration (seed-independent):
    nonzero point-quiver complexes, over F2 for the first half of the cases
    and F3 for the rest, whose differentials have rank at most 2."""
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
        # a bounded redraw: a program that draws only zero complexes fails, not hangs
        c = next((d for d in (draw() for _ in range(100)) if not d.is_zero()), None)
        if c is None:
            raise RuntimeError("no nonzero complex in 100 draws")
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
