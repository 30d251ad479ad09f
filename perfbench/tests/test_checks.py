"""Each output check accepts the program's answer and rejects a wrong one."""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import checks
from checks import CheckError
from timing import OpTimer, SpeedClock
from workloads import Documents, HomLarge


def run_cli(tl, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = tl.cli.main(argv)
    return status, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def doc(tl, tmp_path_factory):
    """An F_3 a2 document whose map is nonzero and not invertible, and whose
    source has homology on both sides of the cut."""
    a2, fld = tl.Quiver.a2(), tl.PrimeField(3)
    for k in range(200):
        rng = np.random.default_rng([17, k])
        x = tl.random_complex(a2, fld, rng, max_dim=3, lo=-2, hi=2)
        y = tl.random_complex(a2, fld, rng, max_dim=3, lo=-2, hi=2)
        f = tl.random_chain_map(x, y, rng)
        text = tl.serialize_document(
            tl.document_of(a2, fld, complexes={"x": x, "y": y}, maps={"f": f})
        )
        tree = json.loads(text)
        cxs = checks.complexes_of(tree)
        fmap = checks.maps_of(tree, cxs)["f"]
        xh = {n: d for n, d in checks.homology_dims(cxs["x"], 3).items() if any(d)}
        window = checks.fiber_window(fmap, 3)
        if f.comps and window is not None and len(xh) >= 2:
            path = tmp_path_factory.mktemp("doc") / "doc.json"
            path.write_text(text, encoding="utf-8")
            cut = max(xh)
            return {"path": str(path), "fmap": fmap, "xh": xh, "window": window, "cut": cut}
    raise AssertionError("no suitable document drawn")


def test_rank_mod_p():
    assert checks.rank_mod_p(np.eye(4, dtype=np.int64), 2) == 4
    assert checks.rank_mod_p([[1, 1], [1, 2]], 3) == 2
    assert checks.rank_mod_p([[1, 1], [1, 2]], 2) == 2
    assert checks.rank_mod_p([[1, 1], [1, 3]], 2) == 1
    assert checks.rank_mod_p([[2, 0], [0, 1]], 2) == 1
    assert checks.rank_mod_p(np.zeros((0, 3), dtype=np.int64), 3) == 0


def test_fiber_window_agrees_with_the_program(tl):
    a2, fld = tl.Quiver.a2(), tl.PrimeField(2)
    for k in range(10):
        rng = np.random.default_rng([23, k])
        x = tl.random_complex(a2, fld, rng, max_dim=3, lo=-2, hi=2)
        y = tl.random_complex(a2, fld, rng, max_dim=3, lo=-2, hi=2)
        f = tl.random_chain_map(x, y, rng)
        win = tl.boundedness_window(f)
        tree = json.loads(
            tl.serialize_document(
                tl.document_of(a2, fld, complexes={"x": x, "y": y}, maps={"f": f})
            )
        )
        fmap = checks.maps_of(tree, checks.complexes_of(tree))["f"]
        assert checks.fiber_window(fmap, 2) == (None if win is None else (win.lo, win.hi))


def test_kunneth(tl):
    point, fld = tl.Quiver.point(), tl.PrimeField(3)
    rng = np.random.default_rng(5)
    while True:
        x = tl.random_complex(point, fld, rng, max_dim=4, lo=-2, hi=2)
        y = tl.random_complex(point, fld, rng, max_dim=4, lo=-2, hi=2)
        expected = checks.kunneth_dims(checks.cx_of_program(x), checks.cx_of_program(y), 3)
        if any(expected.values()):
            break
    degrees = range(y.lo - x.hi - 1, y.hi - x.lo + 2)
    got = tl.homology_dims(tl.hom_complex(x, y).complex)
    checks.check_kunneth(expected, got, degrees)
    n = next(n for n, d in expected.items() if d)
    wrong = dict(got)
    wrong[n] = (got[n][0] + 1,)
    with pytest.raises(CheckError):
        checks.check_kunneth(expected, wrong, degrees)
    with pytest.raises(CheckError):
        checks.check_kunneth(expected, {k: v for k, v in got.items() if k != n}, degrees)


def test_factor(tl, doc):
    argv = ["factor", doc["path"], "--map", "f", "--shift", str(doc["cut"])]
    status, out, err = run_cli(tl, argv)
    assert (status, err) == (0, "")
    tree = json.loads(out)
    checks.check_factor(doc["fmap"], tree, 3)
    doubled = copy.deepcopy(tree)  # 2m is a chain map, but 2m.e = 2f != f
    for per_vertex in doubled["maps"]["m"]["components"].values():
        for mat in per_vertex:
            for row in mat:
                row[:] = [2 * e % 3 for e in row]
    with pytest.raises(CheckError, match="m.e != f"):
        checks.check_factor(doc["fmap"], doubled, 3)
    swapped = copy.deepcopy(tree)
    swapped["maps"]["e"], swapped["maps"]["m"] = tree["maps"]["m"], tree["maps"]["e"]
    with pytest.raises(CheckError):
        checks.check_factor(doc["fmap"], swapped, 3)


def test_chain_law_and_d_squared():
    one = np.ones((1, 1), dtype=np.int64)
    two_step = checks.Cx(0, ((1,), (1,), (1,)), {1: [one], 2: [one]}, 1)
    with pytest.raises(CheckError, match="d.d"):
        checks.check_d_squared(two_step, 2, "x")
    x = checks.Cx(0, ((1,),), {}, 1)
    y = checks.Cx(0, ((1,), (1,)), {1: [one]}, 1)
    checks.check_chain_law(checks.Map(y, y, {0: [one], 1: [one]}), 2, "id")
    with pytest.raises(CheckError, match="chain-map law"):
        checks.check_chain_law(checks.Map(y, x, {0: [one]}), 2, "f")


def test_truncate(tl, doc):
    cut = str(doc["cut"])
    outs = {}
    for side in ("ge", "lt"):
        status, out, err = run_cli(
            tl, ["truncate", doc["path"], "--object", "x", "--at", cut, "--side", side]
        )
        assert (status, err) == (0, "")
        outs[side] = json.loads(out)
        checks.check_truncate(doc["xh"], outs[side], 3, doc["cut"], side)
    with pytest.raises(CheckError):
        checks.check_truncate(doc["xh"], outs["ge"], 3, doc["cut"], "lt")
    with pytest.raises(CheckError):
        checks.check_truncate(doc["xh"], outs["lt"], 3, doc["cut"], "ge")


def test_postnikov(tl, doc):
    status, out, err = run_cli(tl, ["postnikov", doc["path"], "--map", "f"])
    assert (status, err) == (0, "")
    wrapper = json.loads(out)
    checks.check_postnikov(wrapper, doc["window"], 3)
    lo, hi = doc["window"]
    for key, value in (
        ("verified", False),
        ("degrees", wrapper["degrees"][:-1]),
        ("window", [lo + 1, hi + 1]),
    ):
        with pytest.raises(CheckError):
            checks.check_postnikov({**wrapper, key: value}, doc["window"], 3)
    with pytest.raises(CheckError):
        checks.check_postnikov(wrapper, (lo, hi + 1), 3)


def test_normality(tl, doc):
    status, out, err = run_cli(tl, ["normality", doc["path"], "--object", "x"])
    assert (status, err) == (0, "")
    tree = json.loads(out)
    checks.check_normality(tree)
    for condition in checks.NORMALITY_CONDITIONS:
        with pytest.raises(CheckError):
            checks.check_normality({**tree, condition: False})


def test_rejected():
    checks.check_rejected(1, "", "error: bad document\n")
    for status, out, err in (
        (0, "", "error: bad document\n"),
        (1, "", "error: one\nerror: two\n"),
        (1, "{}", "error: bad document\n"),
        (1, "", "Traceback (most recent call last):\n"),
    ):
        with pytest.raises(CheckError):
            checks.check_rejected(status, out, err)


def _report(**changes):
    props = []
    for k in range(12):
        name = "hom-oracle" if k == 11 else f"p{k}"
        n = 200 if name == "hom-oracle" else 100
        props.append({"name": name, "cases": n, "passed": n, "failed": 0, "counterexample": None})
    tree = {"ok": True, "properties": props}
    for key, value in changes.items():
        props[0][key] = value
    return json.dumps(tree)


def test_suite_report(tl):
    checks.check_suite_report(_report())
    for wrong in (_report(passed=99, failed=1), _report(cases=50, passed=50)):
        with pytest.raises(CheckError):
            checks.check_suite_report(wrong)
    tree = json.loads(_report())
    tree["ok"] = False
    with pytest.raises(CheckError):
        checks.check_suite_report(json.dumps(tree))
    small = tl.suite.report_json(tl.run_suite(tl.SuiteConfig(cases=1)))
    with pytest.raises(CheckError):
        checks.check_suite_report(small)


def test_documents_round_fails_only_on_the_two_parser_faults(tl, tmp_path):
    workload = Documents(tl, 0, tmp_path)
    timer = OpTimer(SpeedClock())
    assert workload.run_round(timer) == (250, 2)
    assert len(timer.scaled()) == 250
    assert dict(workload.failures) == {
        "reject fault-reps-body: AttributeError": 1,
        "reject fault-diffs-body: TypeError": 1,
    }


def test_hom_round_passes(tl, tmp_path):
    workload = HomLarge(tl, 1, tmp_path)
    assert workload.run_round(OpTimer(SpeedClock())) == (48, 0)
