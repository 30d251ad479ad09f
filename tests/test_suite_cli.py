"""Suite determinism, fault injection, replay, and the command surface."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

import torsionlab.tstruct
from torsionlab.cli import main
from torsionlab.complexes import (
    ChainMap,
    Complex,
    compose,
    homology_dims,
    identity_map,
    random_chain_map,
    random_complex,
    zero_complex,
    zero_map,
)
from torsionlab.document import document_of, parse_document, serialize_document
from torsionlab.factorization import in_E, in_M
from torsionlab.linalg import Mat, PrimeField
from torsionlab.quiver import Quiver, QuiverRep, RepMap
from torsionlab.suite import (
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


@pytest.mark.parametrize("quiver", ["a3", "kronecker", "d4"])
def test_all_properties_pass_on_named_quivers(quiver):
    """Every property on the named quivers past point and a2, outside the
    timed default config: longer paths, parallel arrows and a branch point
    put wider flat hom matrices through both elimination kernels."""
    report = run_suite(SuiteConfig(quivers=(quiver,), cases=20))
    assert [r.name for r in report.results] == list(property_names())
    assert all(r.cases >= 20 for r in report.results)
    assert report.ok, [r.counterexample for r in report.results if r.failed]


def test_trusted_constructions_pass_the_checks_they_skip(monkeypatch):
    """Composites, sums, negatives, zero and identity maps, and the
    inclusions and projections of graded sums, are built without the law
    checks; mapping complexes, graded sums (cones, fibers, direct sums,
    homotopy (co)limits) and shifts without the dense d² product.  Sending
    every such construction back through the checking constructors must
    leave the report byte-identical."""
    ordinary = report_json(run_suite(SMALL))
    routed = {"RepMap": 0, "ChainMap": 0, "Complex": 0}

    def checking(cls):
        def build(_, *args):
            routed[cls.__name__] += 1
            return cls(*args)

        return classmethod(build)

    for cls in (RepMap, ChainMap, Complex):
        monkeypatch.setattr(cls, "_unchecked", checking(cls))
    checked = run_suite(SMALL)
    assert checked.ok
    assert report_json(checked) == ordinary
    assert all(count > 0 for count in routed.values())


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
