"""The claim rule of scripts/bench_pairs.py (wins, ties and the quartile gap),
its no-regression verdict, its per-layer table of traced medians and of
timed layers' shares of their run's raw untraced round wall, and the JSON file it
writes with --out."""

import importlib.util
import json
import subprocess
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

LOWER = {"better": "lower"}


def test_ties_count_for_neither_side():
    runs = {"parent": [1.0] * 10, "change": [1.0] * 9 + [0.5]}
    got = bench_pairs.verdict(LOWER, runs)
    assert got["wins"] == 1 and not got["gain"]


def test_gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_parent_quartiles():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    clear = bench_pairs.verdict(LOWER, {"parent": parent, "change": [p / 2 for p in parent]})
    assert clear["wins"] == 10 and clear["gain"]
    assert clear["parent"]["median"] == 1.2 and clear["change"]["median"] == 0.6
    # every pair won, but by less than the parent's interquartile range
    close = bench_pairs.verdict(LOWER, {"parent": parent, "change": [p - 0.01 for p in parent]})
    assert close["wins"] == 10 and not close["gain"]
    # 8 of 10 pairs won
    mixed = [p / 2 for p in parent[:8]] + parent[8:]
    assert not bench_pairs.verdict(LOWER, {"parent": parent, "change": mixed})["gain"]


def test_higher_is_better_flips_the_sign():
    runs = {"parent": [0.5] * 4 + [0.6] * 6, "change": [0.9] * 10}
    assert bench_pairs.verdict({"better": "higher"}, runs)["gain"]
    assert not bench_pairs.verdict(LOWER, runs)["gain"]


def test_regressed_means_a_median_worse_than_the_parents_by_more_than_the_bound():
    def regressed(better, bound, parent, change):
        metric = {"better": better, "bound": bound}
        return bench_pairs.verdict(metric, {"parent": [parent] * 4, "change": [change] * 4})[
            "regressed"
        ]

    # lower is better: a median 20 % above the parent's is at the bound
    assert regressed("lower", 0.2, 10.0, 12.5)
    assert not regressed("lower", 0.2, 10.0, 12.0)
    assert not regressed("lower", 0.2, 10.0, 2.0)
    assert not regressed("lower", 0.05, 100.0, 105.0) and regressed("lower", 0.05, 100.0, 106.0)
    # higher is better: a median 20 % below the parent's is at the bound
    assert regressed("higher", 0.2, 10.0, 7.5)
    assert not regressed("higher", 0.2, 10.0, 8.0)
    assert not regressed("higher", 0.2, 10.0, 30.0)
    # a metric without a bound has no verdict
    assert bench_pairs.verdict(LOWER, {"parent": [1.0] * 4, "change": [9.0] * 4})[
        "regressed"
    ] is None


def test_layer_rows_pair_each_metric_with_its_relative_change():
    per_layer = [
        {"name": "linalg.reduce.self_s", "unit": "s", "better": "lower"},
        {"name": "linalg.reduce.calls", "unit": "count", "better": "lower"},
        {"name": "quiver.repmap.zero", "unit": "count", "better": "lower"},
    ]

    def traced(values, wall=1.0):
        return {"raw_wall_s": wall,
                "metrics": {m["name"]: {"value": v, "unit": m["unit"]}
                            for m, v in zip(per_layer, values)}}

    # each side's median over its traced runs
    rows = bench_pairs.layer_rows(per_layer, {
        "parent": [traced([0.2, 831, 0]), traced([0.3, 831, 0]), traced([0.1, 831, 0], 0.5)],
        "change": [traced([0.15, 831, 4], 1.5), traced([0.1, 831, 4], 0.5),
                   traced([0.4, 831, 4], 2.0)],
    })
    assert [r[:4] for r in rows] == [
        ("linalg.reduce.self_s", "s", 0.2, 0.15),
        ("linalg.reduce.calls", "count", 831, 831),
        ("quiver.repmap.zero", "count", 0, 4),
    ]
    assert abs(rows[0][4] + 0.25) < 1e-12 and rows[1][4] == 0.0
    # no relative change from a parent value of zero
    assert rows[2][4] is None
    # a timed layer's share is the median of value / wall over each side's
    # runs: 0.2, 0.3, 0.2 against 0.1, 0.2, 0.2; counts have no share
    assert abs(rows[0][5] - 0.2) < 1e-12 and abs(rows[0][6] - 0.2) < 1e-12
    assert abs(rows[0][7]) < 1e-12
    assert rows[1][5:] == rows[2][5:] == (None, None, None)


def test_layer_shares_cancel_a_drift_that_slows_whole_runs():
    per_layer = [{"name": "tstruct.truncate.self_s", "unit": "s", "better": "lower"}]

    def traced(value, wall):
        return {"raw_wall_s": wall,
                "metrics": {"tstruct.truncate.self_s": {"value": value, "unit": "s"}}}

    # every change run is 30 % slower as a whole, the layer with it
    rows = bench_pairs.layer_rows(per_layer, {
        "parent": [traced(0.1, 1.0), traced(0.12, 1.2), traced(0.11, 1.1)],
        "change": [traced(0.13, 1.3), traced(0.156, 1.56), traced(0.143, 1.43)],
    })
    (_, _, _, _, rel, p_share, c_share, share_rel), = rows
    assert abs(rel - 0.3) < 1e-9
    assert abs(p_share - 0.1) < 1e-12 and abs(c_share - 0.1) < 1e-12 and abs(share_rel) < 1e-9


def _result(value, failed=0, machine=None):
    return {"attempted": 10, "failed": failed, "machine": machine or {"cpu": "x"},
            "metrics": {"wall_s": {"value": value, "unit": "s"}}}


SPEC = {
    "run_seconds": 20,
    "workloads": [{"name": "hom-large"}],
    "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}],
    "per_layer": [{"name": "linalg.matmul.calls", "unit": "count", "better": "lower"},
                  {"name": "linalg.reduce.self_s", "unit": "s", "better": "lower"}],
}


def test_workload_summary_voids_a_gain_when_more_operations_fail():
    runs = {"parent": [_result(1.0 + i / 100) for i in range(4)],
            "change": [_result(0.5 + i / 100) for i in range(4)]}
    clean = bench_pairs.workload_summary(SPEC, runs)
    assert clean["metrics"]["wall_s"]["gain"] and clean["metrics"]["wall_s"]["wins"] == 4
    assert clean["failed"] == {"parent": [0, 40], "change": [0, 40]}
    runs["change"][0] = _result(0.5, failed=1)
    assert not bench_pairs.workload_summary(SPEC, runs)["metrics"]["wall_s"]["gain"]


def test_out_writes_the_printed_figures_and_each_sides_machine(tmp_path, monkeypatch, capsys):
    roots = {}
    for side in bench_pairs.SIDES:
        roots[side] = tmp_path / side
        (roots[side] / "perfbench").mkdir(parents=True)
        (roots[side] / "BENCHMARK.json").write_text(json.dumps(SPEC))

    traced = []

    def fake_run(root, workload, seed, seconds, trace=0):
        side = root.name
        if trace:
            traced.append((side, seed))
            out = _result(0.0, machine={"cpu": side})
            calls = (192 if side == "parent" else 0) + {3: 10, 4: 0, 5: 1000}[seed]
            # the change side runs twice as long on its layer, and as a whole
            wall = (1.0 if side == "parent" else 2.0) * {3: 1.0, 4: 0.8, 5: 1.25}[seed]
            out["raw_wall_s"] = wall
            out["metrics"] = {"linalg.matmul.calls": {"value": calls, "unit": "count"},
                              "linalg.reduce.self_s": {"value": wall / 4, "unit": "s"}}
            return out
        return _result((1.0 if side == "parent" else 0.7) + seed / 100, machine={"cpu": side})

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH_test.json"
    argv = [str(roots["parent"]), str(roots["change"]), "--pairs", "4", "--first-seed", "3",
            "--layers", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    bench = json.loads(out.read_text())
    assert bench["machine"] == {"parent": {"cpu": "parent"}, "change": {"cpu": "change"}}
    hom = bench["workloads"]["hom-large"]
    assert (hom["pairs"], hom["first_seed"], hom["seconds"]) == (4, 3, 20)
    wall = hom["metrics"]["wall_s"]
    assert wall["wins"] == 4 and wall["gain"] and wall["regressed"] is False
    assert abs(wall["parent"]["median"] - 1.045) < 1e-12
    assert abs(wall["change"]["median"] - 0.745) < 1e-12
    assert hom["failed"] == {"parent": [0, 40], "change": [0, 40]}
    # three traced pairs on the first three seeds, alternating which side runs first
    assert traced == [("parent", 3), ("change", 3), ("change", 4), ("parent", 4),
                      ("parent", 5), ("change", 5)]
    assert hom["layer_seeds"] == [3, 4, 5]
    assert hom["layers"] == [
        {"name": "linalg.matmul.calls", "unit": "count", "parent": 202, "change": 10,
         "relative_change": 10 / 202 - 1, "parent_share": None, "change_share": None,
         "share_relative_change": None},
        {"name": "linalg.reduce.self_s", "unit": "s", "parent": 0.25, "change": 0.5,
         "relative_change": 1.0, "parent_share": 0.25, "change_share": 0.25,
         "share_relative_change": 0.0},
    ]
    printed = capsys.readouterr().out
    assert "hom-large: 4 pairs, seeds 3..6" in printed and "linalg.matmul.calls" in printed
    assert "parent share" in printed
    row = next(line for line in printed.splitlines() if "linalg.reduce.self_s" in line)
    assert row.split() == ["linalg.reduce.self_s", "0.25", "0.5", "+100.0%", "25.00%", "25.00%",
                           "+0.0%", "s"]
    assert "gain  regressed" in printed and "4/4   yes   no" in printed


def test_each_run_starts_without_a_bytecode_cache(tmp_path, monkeypatch):
    """perfbench/run.py runs with PYTHONDONTWRITEBYTECODE=1, without
    PYTHONPYCACHEPREFIX (even when the caller set one), and after every
    __pycache__ in the checkout is removed, so a cache in one checkout is
    not read."""
    (tmp_path / "perfbench" / "out").mkdir(parents=True)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "shared"))
    seen = []

    def fake_subprocess_run(cmd, cwd, env, **kw):
        caches = sorted(p.relative_to(cwd) for p in cwd.rglob("__pycache__"))
        seen.append((env["PYTHONDONTWRITEBYTECODE"], "PYTHONPYCACHEPREFIX" in env, caches))
        record = cwd / "perfbench" / "out" / "hom-large-seed0-trace0.json"
        record.write_text(json.dumps({"machine": {"cpu": "x"}}))
        return subprocess.CompletedProcess(cmd, 0, stdout='{"correct": true}\n', stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    for _ in range(2):
        for where in ("__pycache__", "src/torsionlab/__pycache__", "perfbench/__pycache__"):
            (tmp_path / where).mkdir(parents=True, exist_ok=True)
            (tmp_path / where / "m.cpython-311.pyc").write_bytes(b"")
        assert bench_pairs.run_once(tmp_path, "hom-large", 0, 1.0)["machine"] == {"cpu": "x"}
    assert seen == [("1", False, []), ("1", False, [])]
    # the sources beside the caches stay
    assert (tmp_path / "src" / "torsionlab").is_dir()


def test_a_traced_run_carries_the_median_of_its_raw_untraced_round_walls(tmp_path, monkeypatch):
    """The wall a share divides by is on the tracer's raw clock, not one of
    the calibrated walls beside it in the record."""
    (tmp_path / "perfbench" / "out").mkdir(parents=True)

    def fake_subprocess_run(cmd, cwd, env, **kw):
        trace = cmd[cmd.index("--trace") + 1]
        record = cwd / "perfbench" / "out" / f"documents-seed2-trace{trace}.json"
        walls = {"untraced": [0.5, 0.6, 0.55], "untraced_raw": [0.4, 0.2, 0.3],
                 "traced": [0.9, 0.7, 0.8] if trace == "1" else []}
        record.write_text(json.dumps({"machine": {"cpu": "x"}, "round_walls_s": walls}))
        return subprocess.CompletedProcess(cmd, 0, stdout='{"correct": true}\n', stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    assert bench_pairs.run_once(tmp_path, "documents", 2, 1.0, trace=1)["raw_wall_s"] == 0.3
    assert "raw_wall_s" not in bench_pairs.run_once(tmp_path, "documents", 2, 1.0)
