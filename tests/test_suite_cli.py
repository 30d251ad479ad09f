"""Suite determinism, fault injection, replay, and the command surface."""

from __future__ import annotations

import itertools
import json
import subprocess
import sys

import numpy as np
import pytest

import torsionlab.cli
import torsionlab.complexes
import torsionlab.linalg
import torsionlab.tstruct
from torsionlab.cli import main
from torsionlab.complexes import (
    ChainMap,
    Complex,
    compose,
    hom_complex,
    homology_dims,
    identity_map,
    random_chain_map,
    random_complex,
    zero_complex,
    zero_map,
)
from torsionlab.document import MAX_DIM, document_of, parse_document, serialize_document
from torsionlab.factorization import in_E, in_M
from torsionlab.linalg import Mat, PrimeField
from torsionlab.quiver import Quiver, QuiverRep, RepMap
from torsionlab.suite import (
    MAX_DEGREE,
    MAX_WINDOW,
    SuiteConfig,
    property_names,
    render_tree,
    replay_case,
    report_json,
    report_text,
    resolve_quiver,
    run_suite,
)
from torsionlab.tstruct import TStructure, truncate_ge

SMALL = SuiteConfig(cases=8, max_dim=3, window=(-2, 2), seed=5)


def test_reports_are_byte_identical():
    first = report_json(run_suite(SMALL))
    second = report_json(run_suite(SMALL))
    assert first == second


def test_all_properties_pass_small():
    report = run_suite(SMALL)
    assert report.ok
    assert len(report.results) == 12
    assert {r.name for r in report.results} >= {"t-axioms", "factorization", "postnikov"}
    text = report_text(report)
    assert "suite ok" in text and "PASS" in text


@pytest.mark.parametrize(
    "config",
    [SuiteConfig(quivers=(q,), cases=20) for q in ("a3", "kronecker", "d4")]
    + [SuiteConfig(quivers=("a2",), primes=(5,), cases=20)],
    ids=["a3", "kronecker", "d4", "a2-F5"],
)
def test_all_properties_pass_on_named_quivers(config):
    """Every property on the named quivers past point and a2, outside the
    timed default config: longer paths, parallel arrows and a branch point
    put wider flat hom matrices through both elimination kernels.  Over F5
    (a2) every rank is a Gauss-Jordan pivot count, the path that the
    default primes 2 and 3 leave for the packed rank kernel."""
    report = run_suite(config)
    assert [r.name for r in report.results] == list(property_names())
    assert all(r.cases >= 20 for r in report.results)
    assert report.ok, [r.counterexample for r in report.results if r.failed]


def test_trusted_constructions_pass_the_checks_they_skip(monkeypatch):
    """Composites, sums, negatives, zero and identity maps, and the
    inclusions and projections of graded sums, are built without the law
    checks; graded sums (cones, fibers, direct sums, homotopy (co)limits)
    and shifts without the dense d² product; and mapping complexes with no
    d² check at all, lawful by the sign rule from lawful ends.  Sending
    every such construction back through the checking constructors must
    leave the report byte-identical."""
    ordinary = report_json(run_suite(SMALL))
    routed = {"RepMap": 0, "ChainMap": 0, "Complex": 0}

    def checking(cls):
        def build(klass, *args):
            routed[cls.__name__] += 1
            return klass(*args)

        return classmethod(build)

    for cls in (RepMap, ChainMap, Complex):
        monkeypatch.setattr(cls, "_unchecked", checking(cls))
    checked = run_suite(SMALL)
    assert checked.ok
    assert report_json(checked) == ordinary
    assert all(count > 0 for count in routed.values())


def test_the_trusted_matrix_maker_is_given_only_reduced_arrays(monkeypatch):
    """linalg._reduced makes a Mat on an array without Mat.__init__'s copy
    and reduction: every D_n of a mapping complex, and every zero or
    identity matrix made afresh.  Routing it through a checker that refuses
    anything but a 2-d int64 array already reduced mod p must leave the
    report byte-identical, and pass every D_n of seeded mapping complexes
    over point, a2 and Kronecker, over F2, F3 and F5."""
    ordinary = report_json(run_suite(SMALL))
    trusted, made = torsionlab.linalg._reduced, []

    def checking(field, arr):
        assert isinstance(arr, np.ndarray) and arr.ndim == 2 and arr.dtype == np.int64
        assert arr.size == 0 or (arr.min() >= 0 and arr.max() < field.p)
        assert np.array_equal(arr % field.p, arr)
        made.append(arr.shape)
        return trusted(field, arr)

    for module in (torsionlab.linalg, torsionlab.complexes):
        monkeypatch.setattr(module, "_reduced", checking)
    checked = run_suite(SMALL)
    assert checked.ok
    assert report_json(checked) == ordinary
    assert made
    for name, p, seed in itertools.product(("point", "a2", "kronecker"), (2, 3, 5), range(4)):
        rng = np.random.default_rng([p, seed])
        quiver, fld = resolve_quiver(name), PrimeField(p)
        x, y = (random_complex(quiver, fld, rng, max_dim=3, lo=-2, hi=2) for _ in "xy")
        hom, before = hom_complex(x, y), len(made)
        degrees = range(y.lo - x.hi + 1, y.hi - x.lo + 1)
        hom.complex  # each nonempty D_n, besides new zero and identity matrices
        assert len(made) - before >= sum(hom.dim(n) * hom.dim(n - 1) > 0 for n in degrees)


def test_corrupted_truncation_surfaces_with_replay(monkeypatch):
    with monkeypatch.context() as patching:
        patching.setattr(
            torsionlab.tstruct, "truncate_ge", lambda x, t: (x, identity_map(x))
        )
        report = run_suite(SMALL)
        assert not report.ok
        bad = [r for r in report.results if not r.ok]
        names = [r.name for r in bad]
        assert "t-axioms" in names
        worst = bad[0]
        ce = worst.counterexample
        assert ce is not None
        assert ce["case"] == min(
            c["case"] for r in bad if r.name == worst.name for c in [r.counterexample]
        )
        assert ce["seed_path"] == [SMALL.seed, 1, ce["case"]] or worst.name != "t-axioms"
        assert isinstance(ce["document"], str)
        parse_document(ce["document"])  # the fragment is a loadable document
        again = replay_case(SMALL, worst.name, ce["case"])
        assert again is not None and again["detail"] == ce["detail"]
    # corruption removed: the same case passes
    assert replay_case(SMALL, worst.name, ce["case"]) is None


def test_failing_case_names_where_it_raised(monkeypatch):
    """A case that raises records the innermost torsionlab frame it passed;
    a passing report carries no location at all."""
    assert "raised_at" not in report_json(run_suite(SMALL))

    def broken(x, t):
        raise RuntimeError("injected")

    monkeypatch.setattr(torsionlab.tstruct, "truncate_ge", broken)
    ce = replay_case(SMALL, "t-axioms", 0)
    assert ce["detail"] == "RuntimeError: injected"
    assert ce["raised_at"] == "suite.py:_case_t_axioms"
    # a corrupt truncation that breaks deeper inside the package
    monkeypatch.setattr(torsionlab.tstruct, "truncate_ge", lambda x, t: ("junk", None))
    ce = replay_case(SMALL, "t-axioms", 0)
    assert ce["detail"].startswith("AttributeError")
    assert ce["raised_at"] == "complexes.py:hom_complex"
    text = report_text(run_suite(SuiteConfig(cases=1, max_dim=2, window=(-1, 1))))
    assert "(seed path [0, 1, 0]): AttributeError" in text
    assert "(raised at complexes.py:hom_complex)" in text


def test_replay_unknown_property():
    with pytest.raises(ValueError, match="unknown property"):
        replay_case(SMALL, "no-such-thing", 0)


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(primes=(4,))
    with pytest.raises(ValueError):
        SuiteConfig(cases=0)
    with pytest.raises(ValueError):
        SuiteConfig(window=(2, -2))
    with pytest.raises(ValueError):
        SuiteConfig(shifts=())
    with pytest.raises(ValueError):
        SuiteConfig(quivers=("heptagon",))


def test_config_tree_round_trip():
    cfg = SuiteConfig(primes=(3,), quivers=("a2",), seed=9, cases=2)
    assert SuiteConfig.from_tree(cfg.to_tree()) == cfg
    # the README's example config
    assert SuiteConfig.from_tree({"max_dim": 3, "window": [-2, 2]}) == SuiteConfig(
        max_dim=3, window=(-2, 2)
    )
    with pytest.raises(ValueError, match="unknown config keys"):
        SuiteConfig.from_tree({"prime": 3})


def test_resolve_quiver_names_and_files(tmp_path):
    assert resolve_quiver("point") == Quiver.point()
    assert resolve_quiver("one-vertex") == Quiver.point()
    assert resolve_quiver("A2") == Quiver.a2()
    path = tmp_path / "kronecker.json"
    path.write_text(json.dumps({"vertices": ["a", "b"], "arrows": [["a", "b"], ["a", "b"]]}))
    assert resolve_quiver(str(path)) == resolve_quiver("Kronecker")
    assert resolve_quiver("a3").arrows == (("a", "b"), ("b", "c"))
    assert len(resolve_quiver("d4").vertices) == 4
    with pytest.raises(ValueError, match="unknown quiver"):
        resolve_quiver("heptagon")


@pytest.mark.parametrize(
    "tree",
    [
        {"vertices": "ab", "arrows": ["ab"]},
        {"vertices": ["a", "b"]},
    ],
    ids=["strings", "no-arrows"],
)
def test_malformed_quiver_file_exits_with_one_error_line(tmp_path, capsys, tree):
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(tree))
    code = main(["verify", "--quiver", str(path), "--cases", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_config_bounds_max_dim_by_the_document_bound():
    # only parsed: a suite at this bound would run for hours
    assert SuiteConfig.from_tree({"max_dim": MAX_DIM}).max_dim == MAX_DIM
    with pytest.raises(ValueError, match="max_dim must be between 1 and"):
        SuiteConfig.from_tree({"max_dim": MAX_DIM + 1})


def test_config_bounds_the_window_width():
    # only parsed: one case per property ran past 60 s on a window of width 1,600
    half = MAX_WINDOW // 2
    assert SuiteConfig.from_tree({"window": [-half, half]}).window == (-half, half)
    assert SuiteConfig.from_tree({"window": [3, 3]}).window == (3, 3)
    for window in ([-half, half + 1], [1, 0]):
        with pytest.raises(ValueError, match="config key 'window' needs"):
            SuiteConfig.from_tree({"window": window})


@pytest.mark.parametrize("window", [(5, 9), (3, 3), (-9, -5)])
def test_windows_that_miss_the_small_envelope_run_green(window):
    """The hom-complex-heavy properties draw from the window's part in
    [-2, 2]; a window that misses it lends them its 5 degrees nearest 0
    instead of an empty range."""
    report = run_suite(SuiteConfig(cases=3, window=window))
    assert report.ok, [r.counterexample for r in report.results if r.failed]


def test_config_bounds_window_ends_and_cuts():
    # only parsed: degrees are drawn as int64, which a cut of 10^19 overflowed
    top = MAX_DEGREE
    config = SuiteConfig.from_tree({"window": [top - 8, top], "shifts": [-top, top]})
    assert config.window == (top - 8, top) and config.shifts == (-top, top)
    for key, value in (("window", [top - 8, top + 1]), ("window", [-top - 1, -top]),
                       ("shifts", [0, top + 1]), ("shifts", [-top - 1])):
        with pytest.raises(ValueError, match=f"config key '{key}' needs degrees within"):
            SuiteConfig.from_tree({key: value})


REPORT = {"report_version": 1, "ok": True}
ENTRY = {"name": "x", "passed": 1, "cases": 1}


@pytest.mark.parametrize(
    "command, tree, key",
    [
        ("verify", 5, "config"),
        ("verify", [], "config"),
        ("verify", {"window": 5}, "'window'"),
        ("verify", {"window": [1]}, "'window'"),
        ("verify", {"primes": 5}, "'primes'"),
        ("verify", {"primes": [2.5]}, "'primes'"),
        ("verify", {"seed": None}, "'seed'"),
        ("verify", {"seed": -1}, "seed"),
        ("verify", {"quivers": [5]}, "'quivers'"),
        ("verify", {"shifts": ["a"]}, "'shifts'"),
        ("verify", {"cases": True}, "'cases'"),
        ("verify", {"max_dim": 2.0}, "'max_dim'"),
        ("report", [1], "report"),
        ("report", {**REPORT, "report_version": True, "properties": []}, "report_version"),
        ("report", {"report_version": 1}, "'ok'"),
        ("report", {**REPORT, "properties": [5]}, "'properties'"),
        ("report", {**REPORT, "properties": [{"name": "x"}]}, "'passed'"),
        ("report", {**REPORT, "properties": [{**ENTRY, "cases": False}]}, "'cases'"),
        ("report", {**REPORT, "properties": [{**ENTRY, "counterexample": 5}]}, "counterexample"),
        ("report", {**REPORT, "properties": [{**ENTRY, "counterexample": {"case": 0}}]}, "'detail'"),
        ("verify", {"window": [-800, 800]}, "'window'"),
        ("verify", {"window": [10**19, 10**19]}, "'window'"),
        ("verify", {"shifts": [10**19]}, "'shifts'"),
    ],
)
def test_malformed_config_or_report_exits_with_one_error_line(
    tmp_path, capsys, command, tree, key
):
    """A config or saved report of the wrong shape or field type is refused
    with one error line naming the key, before any case runs."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(tree))
    if command == "verify":
        code = main(["verify", "--config", str(path), "--cases", "1"])
    else:
        code = main(["report", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and key in lines[0]


@pytest.mark.parametrize(
    "argv, what",
    [
        (["verify", "--config", "PATH", "--cases", "1"], "config"),
        (["verify", "--quiver", "PATH", "--cases", "1"], "quiver file"),
        (["report", "--in", "PATH"], "report"),
        (["normality", "PATH", "--object", "x"], "document"),
    ],
    ids=["config", "quiver", "report", "document"],
)
def test_json_nested_past_the_decoder_exits_with_one_error_line(tmp_path, capsys, argv, what):
    """A JSON input nested deeper than the decoder's recursion limit is
    refused with one error line, not a RecursionError traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code = main([str(path) if arg == "PATH" else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {what} nests too deeply\n"


def test_render_tree_formats():
    report = run_suite(SuiteConfig(cases=1, max_dim=2, window=(-1, 1)))
    tree = json.loads(report_json(report))
    text = render_tree(tree, "text")
    assert "PASS" in text and "suite ok" in text
    assert json.loads(render_tree(tree, "json")) == tree
    with pytest.raises(ValueError, match="report_version"):
        render_tree({"report_version": 99}, "text")
    with pytest.raises(ValueError, match="format"):
        render_tree(tree, "yaml")


# -- command surface -------------------------------------------------------------


@pytest.fixture()
def doc_path(tmp_path):
    rng = np.random.default_rng(11)
    quiver = Quiver.a2()
    fld = PrimeField(3)
    y = random_complex(quiver, fld, rng, max_dim=3, lo=-2, hi=2)
    x = random_complex(quiver, fld, rng, max_dim=3, lo=-2, hi=2)
    f = random_chain_map(x, y, rng)
    init = zero_map(zero_complex(quiver, fld), y)
    doc = document_of(
        quiver, fld, complexes={"y": y}, maps={"f": f, "init": init}
    )
    path = tmp_path / "doc.json"
    path.write_text(serialize_document(doc))
    return path


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_factor_initial_arrow_gives_upper_truncation(doc_path, capsys):
    code, out = _run(capsys, ["factor", str(doc_path), "--map", "init", "--shift", "0"])
    assert code == 0
    emitted = parse_document(out)
    e, m = emitted.maps["e"], emitted.maps["m"]
    assert e.source.is_zero()
    t = TStructure(0)
    assert in_E(e, t) and in_M(m, t)
    y = parse_document(doc_path.read_text()).complexes["y"]
    upper, _ = truncate_ge(y, t)

    def nonzero_h(x):
        return {n: dims for n, dims in homology_dims(x).items() if any(dims)}

    assert nonzero_h(e.target) == nonzero_h(upper)
    assert m.target == y


def test_truncate_lt_leaves_lower_stalk_alone(tmp_path, capsys):
    # a stalk in degree -1 is already entirely below the cutoff at 0
    quiver, fld = Quiver.point(), PrimeField(2)
    stalk = Complex(quiver, fld, -1, (QuiverRep(quiver, fld, (1,), ()),), ())
    doc = document_of(quiver, fld, complexes={"s": stalk})
    path = tmp_path / "stalk.json"
    path.write_text(serialize_document(doc))
    code, out = _run(
        capsys, ["truncate", str(path), "--object", "s", "--at", "0", "--side", "lt"]
    )
    assert code == 0
    emitted = parse_document(out)
    assert emitted.complexes["truncation"] == stalk
    onto = emitted.maps["onto"]
    assert onto.source == stalk and onto.target == stalk


def test_truncate_ge_emits_inclusion(doc_path, capsys):
    code, out = _run(
        capsys, ["truncate", str(doc_path), "--object", "y", "--at", "1", "--side", "ge"]
    )
    assert code == 0
    emitted = parse_document(out)
    into = emitted.maps["into"]
    assert into.source == emitted.complexes["truncation"]
    assert into.target == emitted.complexes["y"]
    hd = homology_dims(emitted.complexes["truncation"])
    assert all(not any(dims) for n, dims in hd.items() if n < 1)


def test_postnikov_wrapper(doc_path, capsys):
    code, out = _run(capsys, ["postnikov", str(doc_path), "--map", "f"])
    assert code == 0
    wrapper = json.loads(out)
    assert wrapper["verified"] is True
    lo, hi = wrapper["window"]
    assert sorted(wrapper["degrees"]) == list(range(lo, hi))
    inner = json.dumps(wrapper["document"], indent=2, sort_keys=True) + "\n"
    emitted = parse_document(inner)
    assert len(emitted.maps) == len(wrapper["degrees"])


def test_normality_json_and_exit(doc_path, capsys):
    code, out = _run(capsys, ["normality", str(doc_path), "--object", "y", "--shift", "-1"])
    assert code == 0
    tree = json.loads(out)
    assert tree["all_hold"] is True
    assert len(tree) == 7  # six conditions plus the summary


def test_verify_json_and_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cases": 2, "max_dim": 2, "window": [-1, 1], "seed": 3}))
    code, out = _run(
        capsys, ["verify", "--config", str(cfg), "--prime", "2", "--quiver", "point", "--json"]
    )
    assert code == 0
    tree = json.loads(out)
    assert tree["ok"] is True
    assert tree["config"]["primes"] == [2]
    assert tree["config"]["quivers"] == ["point"]
    assert tree["config"]["cases"] == 2
    assert len(tree["properties"]) == 12


def test_report_subcommand_and_exit_codes(tmp_path, capsys):
    report = run_suite(SuiteConfig(cases=1, max_dim=2, window=(-1, 1)))
    saved = tmp_path / "report.json"
    saved.write_text(report_json(report))
    code, out = _run(capsys, ["report", "--in", str(saved), "--format", "text"])
    assert code == 0 and "suite ok" in out
    tree = json.loads(report_json(report))
    tree["ok"] = False
    saved.write_text(json.dumps(tree))
    code, _ = _run(capsys, ["report", "--in", str(saved), "--format", "json"])
    assert code == 1


def test_the_parser_is_built_once_across_calls(tmp_path, monkeypatch, capsys):
    built = []
    parser_class = torsionlab.cli.argparse.ArgumentParser
    init = parser_class.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "torsionlab":
            built.append(1)
        init(self, *args, **kwargs)

    torsionlab.cli._parser.cache_clear()
    monkeypatch.setattr(parser_class, "__init__", counted)
    try:
        missing = str(tmp_path / "missing.json")
        for _ in range(2):
            assert main(["factor", missing, "--map", "f"]) == 1
    finally:
        torsionlab.cli._parser.cache_clear()
    assert built == [1]
    assert capsys.readouterr().err.count("error:") == 2


def test_unknown_names_exit_nonzero(doc_path, capsys):
    code = main(["factor", str(doc_path), "--map", "nope"])
    err = capsys.readouterr().err
    assert code == 1
    assert "no map named" in err
    code = main(["truncate", str(doc_path), "--object", "nope", "--at", "0", "--side", "ge"])
    assert code == 1
    code = main(["factor", str(doc_path) + ".missing", "--map", "f"])
    assert code == 1


def test_console_entry_point(doc_path):
    proc = subprocess.run(
        [sys.executable, "-m", "torsionlab.cli", "normality", str(doc_path), "--object", "y"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_hold"] is True


FAR = 10**30
FAR_COMMANDS = [
    ["truncate", "--object", "x", "--side", "ge", "--at", "0"],
    ["truncate", "--object", "x", "--side", "lt", "--at", str(FAR + 5)],
    ["normality", "--object", "x"],
    ["factor", "--map", "f"],
    ["postnikov", "--map", "f"],
]
# runs each command through cli.main and prints its exit code and output
_FAR_SCRIPT = """
import contextlib, io, json, sys
from torsionlab.cli import main
path, commands = sys.argv[1], json.loads(sys.argv[2])
results = []
for argv in commands:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([argv[0], path, *argv[1:]])
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def test_postnikov_of_a_map_spanning_far_exits_with_one_error_line(tmp_path):
    """A tower over a map whose ends lie 10^30 degrees apart is refused at
    once; a subprocess, so a regression fails on the timeout."""
    quiver, fld = Quiver.a2(), PrimeField(2)
    rep = QuiverRep(quiver, fld, (1, 0), (Mat.zeros(fld, 0, 1),))
    x, y = Complex(quiver, fld, FAR, (rep,), ()), Complex(quiver, fld, 0, (rep,), ())
    path = tmp_path / "span.json"
    doc = document_of(quiver, fld, {"x": x, "y": y}, {"f": zero_map(x, y)})
    path.write_text(serialize_document(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "torsionlab.cli", "postnikov", str(path), "--map", "f"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_commands_on_a_complex_far_from_degree_zero_finish(tmp_path):
    """A one-term complex at degree 10^30: a cut outside its support, and
    homotopies between its maps, never walk the degrees in between.  Run in
    a subprocess so that a regression fails on the timeout instead of
    hanging the suite (each command takes milliseconds)."""
    quiver, fld = Quiver.a2(), PrimeField(2)
    x = Complex(quiver, fld, FAR, (QuiverRep(quiver, fld, (1, 0), (Mat.zeros(fld, 0, 1),)),), ())
    path = tmp_path / "far.json"
    path.write_text(serialize_document(document_of(quiver, fld, {"x": x}, {"f": zero_map(x, x)})))
    proc = subprocess.run(
        [sys.executable, "-c", _FAR_SCRIPT, str(path), json.dumps(FAR_COMMANDS)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    (ge, ge_out), (lt, lt_out), (normal, _), (fac, fac_out), (tower, tower_out) = json.loads(
        proc.stdout
    )
    assert (ge, lt, normal, fac, tower) == (0, 0, 0, 0, 0)
    for out in (ge_out, lt_out):
        emitted = parse_document(out)
        assert emitted.complexes["truncation"] == x
        assert next(iter(emitted.maps.values())) == identity_map(x)
    emitted = parse_document(fac_out)
    assert compose(emitted.maps["m"], emitted.maps["e"]).is_zero()
    wrapper = json.loads(tower_out)
    assert wrapper["verified"] is True
    assert sorted(wrapper["degrees"]) == [FAR - 1, FAR]
