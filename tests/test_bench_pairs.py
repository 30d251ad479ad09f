"""The claim rule of scripts/bench_pairs.py: wins, ties and the quartile gap."""

import importlib.util
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
