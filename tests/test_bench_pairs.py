"""The claim rule of scripts/bench_pairs.py (wins, ties and the quartile gap),
its per-layer table of traced medians and the JSON file it writes with --out."""

import importlib.util
import json
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


def test_layer_rows_pair_each_metric_with_its_relative_change():
    per_layer = [
        {"name": "linalg.reduce.self_s", "unit": "s", "better": "lower"},
        {"name": "linalg.reduce.calls", "unit": "count", "better": "lower"},
        {"name": "quiver.repmap.zero", "unit": "count", "better": "lower"},
    ]

    def traced(values):
        return {"metrics": {m["name"]: {"value": v, "unit": m["unit"]}
                            for m, v in zip(per_layer, values)}}

    # each side's median over its traced runs
    rows = bench_pairs.layer_rows(per_layer, {
        "parent": [traced([0.2, 831, 0]), traced([0.3, 831, 0]), traced([0.1, 831, 0])],
        "change": [traced([0.15, 831, 4]), traced([0.1, 831, 4]), traced([0.4, 831, 4])],
    })
    assert [r[:4] for r in rows] == [
        ("linalg.reduce.self_s", "s", 0.2, 0.15),
        ("linalg.reduce.calls", "count", 831, 831),
        ("quiver.repmap.zero", "count", 0, 4),
    ]
    assert abs(rows[0][4] + 0.25) < 1e-12 and rows[1][4] == 0.0
    # no relative change from a parent value of zero
    assert rows[2][4] is None


def _result(value, failed=0, machine=None):
    return {"attempted": 10, "failed": failed, "machine": machine or {"cpu": "x"},
            "metrics": {"wall_s": {"value": value, "unit": "s"}}}


SPEC = {
    "run_seconds": 20,
    "workloads": [{"name": "hom-large"}],
    "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower"}],
    "per_layer": [{"name": "linalg.matmul.calls", "unit": "count", "better": "lower"}],
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
            out["metrics"] = {"linalg.matmul.calls": {"value": calls, "unit": "count"}}
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
    assert wall["wins"] == 4 and wall["gain"]
    assert abs(wall["parent"]["median"] - 1.045) < 1e-12
    assert abs(wall["change"]["median"] - 0.745) < 1e-12
    assert hom["failed"] == {"parent": [0, 40], "change": [0, 40]}
    # three traced pairs on the first three seeds, alternating which side runs first
    assert traced == [("parent", 3), ("change", 3), ("change", 4), ("parent", 4),
                      ("parent", 5), ("change", 5)]
    assert hom["layer_seeds"] == [3, 4, 5]
    assert hom["layers"] == [{"name": "linalg.matmul.calls", "unit": "count", "parent": 202,
                              "change": 10, "relative_change": 10 / 202 - 1}]
    printed = capsys.readouterr().out
    assert "hom-large: 4 pairs, seeds 3..6" in printed and "linalg.matmul.calls" in printed
