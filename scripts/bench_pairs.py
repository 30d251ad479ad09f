#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised per metric.

Runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
in two checkouts, N pairs per workload, with seed S = first seed + pair
index; the side that runs first alternates from pair to pair.  For every
workload and end-to-end metric named in BENCHMARK.json it prints each
side's median and quartiles, how many pairs the change won (ties count for
neither side), and whether a gain can be claimed: the change wins at least
nine tenths of the pairs and the medians differ by more than the parent's
interquartile range.  It also prints whether the metric regressed: the
change's median is worse than the parent's by more than the metric's bound
in BENCHMARK.json, a relative change of the median in the direction that
`better` names.  Failed operations are summed per side, and every run's
metrics go to standard error as it ends.

With --layers, after the pairs of a workload each side also makes three
`--trace 1` runs, one on each of the first three seeds, in pairs whose
first side alternates like the timed pairs.  The per-layer metrics named in
BENCHMARK.json are printed as each side's median over its three traced
runs, side by side with their relative change: the trace evidence that
names the layer behind a gain.  Timed layers of a single traced run drift
together with the load of the machine; the median of alternating runs
does not follow one such drift.  Each timed layer (unit s) is also given
as a share of its own run's median raw untraced round wall
(round_walls_s["untraced_raw"] in perfbench's record), as each side's
median share and their relative change, so that a drift which slows a
whole run cancels.  Layer times and raw walls are both read off the
tracer's uncalibrated clock, so the share does not follow perfbench's
calibration of a run.

With --out FILE (by convention BENCH_<name>.json at the root of the change)
the same figures are also written as JSON: per workload the settings, each
metric's medians, quartiles, win count, gain and regression, the failed
operations and the per-layer rows with their shares, plus each side's
machine record (CPU model, nproc, platform, Python, numpy and torsionlab
versions) as perfbench/run.py wrote it.

Both checkouts must hold byte-identical perfbench/ and BENCHMARK.json, so
the two sides run the same benchmark code and settings.  Before every run
the checkout's own __pycache__ directories are removed, and the run starts
with PYTHONDONTWRITEBYTECODE=1 and without PYTHONPYCACHEPREFIX, so neither
side reads a cache of its own code that the other lacks; the installed
libraries keep their caches on both sides.

Usage: python3 scripts/bench_pairs.py PARENT CHANGE [--workload W ...]
           [--pairs 10] [--first-seed 0] [--seconds 20] [--layers] [--out FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
LAYER_PAIRS = 3


def bench_digest(root: Path) -> str:
    """sha256 over BENCHMARK.json and perfbench/, leaving out run results
    (perfbench/out) and caches."""
    h = hashlib.sha256()
    bench = root / "perfbench"
    files = [root / "BENCHMARK.json"] + sorted(
        p for p in bench.rglob("*")
        if p.is_file()
        and not any(part == "out" or part.startswith((".", "__")) for part in
                    p.relative_to(bench).parts[:-1])
    )
    for p in files:
        h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One run of perfbench/run.py in root.  It neither reads nor writes a
    bytecode cache of the checkout's code: a warm __pycache__ on one side
    only would show up as a setup gain."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    for cache in list(root.rglob("__pycache__")):
        shutil.rmtree(cache)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RuntimeError(
            f"{root}: {workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}"
        )
    path = root / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    result["machine"] = record["machine"]
    if trace:
        result["raw_wall_s"] = statistics.median(record["round_walls_s"]["untraced_raw"])
    return result


def summarise(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def verdict(metric: dict, runs: dict[str, list[float]]) -> dict:
    sign = 1 if metric["better"] == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(runs["parent"], runs["change"]))
    par, chg = summarise(runs["parent"]), summarise(runs["change"])
    gain = (
        wins >= 0.9 * len(runs["parent"])
        and sign * (par["median"] - chg["median"]) > par["q3"] - par["q1"]
    )
    change = chg["median"] / par["median"] - 1 if par["median"] else 0.0
    # worse by more than the bound, as a share of the parent's median; None
    # for a metric without a bound
    bound = metric.get("bound")
    regressed = (
        None if bound is None
        else sign * (chg["median"] - par["median"]) > bound * abs(par["median"])
    )
    return {"parent": par, "change": chg, "wins": wins, "median_change": change, "gain": gain,
            "regressed": regressed}


def layer_rows(per_layer: list[dict], traced: dict[str, list[dict]]) -> list[tuple]:
    """(name, unit, parent median, change median, relative change, parent
    share, change share, relative change of the share) for each per-layer
    metric, over the traced results of each side.  A share is the metric
    over its own run's raw untraced round wall, for timed layers (unit s) only;
    the share columns are None for the others, and a relative change is
    None from a parent value of zero."""
    def rel(par, chg):
        return chg / par - 1 if par else None

    rows = []
    for metric in per_layer:
        name, unit = metric["name"], metric["unit"]
        par, chg = (statistics.median(r["metrics"][name]["value"] for r in traced[s])
                    for s in SIDES)
        shares = (None, None, None)
        if unit == "s":
            p_share, c_share = (
                statistics.median(r["metrics"][name]["value"] / r["raw_wall_s"]
                                  for r in traced[s])
                for s in SIDES
            )
            shares = (p_share, c_share, rel(p_share, c_share))
        rows.append((name, unit, par, chg, rel(par, chg), *shares))
    return rows


def workload_summary(spec: dict, runs: dict[str, list[dict]]) -> dict:
    """Each end-to-end metric's verdict and each side's failed and attempted
    operations, from the runs of one workload.  A gain does not count when a
    larger share of operations fails."""
    failed = {s: [sum(r["failed"] for r in runs[s]), sum(r["attempted"] for r in runs[s])]
              for s in SIDES}
    no_worse = failed["change"][0] * failed["parent"][1] <= (
        failed["parent"][0] * failed["change"][1]
    )
    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        row = verdict(metric, {s: [r["metrics"][name]["value"] for r in runs[s]] for s in SIDES})
        row["gain"] = row["gain"] and no_worse
        metrics[name] = row
    return {"metrics": metrics, "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--layers", action="store_true",
                        help=f"{LAYER_PAIRS} traced runs per side on the first seeds, "
                             "per-layer table of their medians")
    parser.add_argument("--out", type=Path,
                        help="also write the figures as JSON, e.g. BENCH_<name>.json")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least 2 pairs")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if bench_digest(roots["parent"]) != bench_digest(roots["change"]):
        print("error: the checkouts hold different perfbench/ or BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bench = {"machine": {}, "workloads": {}}
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            seed = args.first_seed + i
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                result = run_once(roots[side], workload, seed, seconds)
                runs[side].append(result)
                bench["machine"].setdefault(side, result["machine"])
                values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                print(f"{workload} pair {i + 1} seed {seed} {side}: {values}",
                      file=sys.stderr, flush=True)
        summary = workload_summary(spec, runs)
        failed = summary["failed"]
        print(f"\n{workload}: {args.pairs} pairs, seeds {args.first_seed}.."
              f"{args.first_seed + args.pairs - 1}, {seconds:g} s runs")
        print(f"  {'metric':<12} {'parent median [q1, q3]':>28} {'change median [q1, q3]':>28}"
              f" {'change':>8} {'won':>6}  gain  regressed")
        for name, row in summary["metrics"].items():
            cells = [f"{row[s]['median']:.4g} [{row[s]['q1']:.4g}, {row[s]['q3']:.4g}]"
                     for s in SIDES]
            regressed = {None: "-", True: "yes", False: "no"}[row["regressed"]]
            print(f"  {name:<12} {cells[0]:>28} {cells[1]:>28} {row['median_change']:>+8.1%}"
                  f" {row['wins']:>3}/{args.pairs:<2}  {'yes' if row['gain'] else 'no':<4}"
                  f"  {regressed}")
        print(f"  failed operations: parent {failed['parent'][0]} of {failed['parent'][1]},"
              f" change {failed['change'][0]} of {failed['change'][1]}")
        summary = {"pairs": args.pairs, "first_seed": args.first_seed, "seconds": seconds,
                   **summary}
        if args.layers:
            traced = {side: [] for side in SIDES}
            for i in range(LAYER_PAIRS):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    traced[side].append(
                        run_once(roots[side], workload, args.first_seed + i, seconds, trace=1)
                    )
            rows = layer_rows(spec["per_layer"], traced)
            print(f"  per layer, median of {LAYER_PAIRS} traced runs per side, seeds "
                  f"{args.first_seed}..{args.first_seed + LAYER_PAIRS - 1}; timed layers"
                  " also as a share of their run's median raw untraced round wall:")
            print(f"  {'metric':<36} {'parent':>12} {'change':>12} {'change':>8}"
                  f" {'parent share':>12} {'change share':>12} {'change':>8}")
            for name, unit, par, chg, rel, p_share, c_share, share_rel in rows:
                cells = [f"{v:>12.2%}" if v is not None else f"{'-':>12}"
                         for v in (p_share, c_share)]
                rels = [f"{v:+8.1%}" if v is not None else f"{'-':>8}" for v in (rel, share_rel)]
                print(f"  {name:<36} {par:>12.6g} {chg:>12.6g} {rels[0]} {cells[0]} {cells[1]}"
                      f" {rels[1]}  {unit}")
            keys = ("name", "unit", "parent", "change", "relative_change",
                    "parent_share", "change_share", "share_relative_change")
            summary["layer_seeds"] = [args.first_seed + i for i in range(LAYER_PAIRS)]
            summary["layers"] = [dict(zip(keys, row)) for row in rows]
        bench["workloads"][workload] = summary
    if args.out:
        args.out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
