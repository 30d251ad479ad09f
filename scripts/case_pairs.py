#!/usr/bin/env python3
"""Every suite case timed back to back on two checkouts in one process.

Copies PARENT/src/torsionlab and CHANGE/src/torsionlab into a temporary
directory as the packages side_parent and side_change (the package imports
only itself, relatively, so the copies are independent), and runs each case
of the suite (suite._run_case) on both, one right after the other.  Which
side goes first alternates from case to case and from round to round, so a
drift of the machine's load falls on both sides alike.  Each side's
SuiteConfig is built from the same config tree (--config, a JSON file in
the `torsionlab verify --config` format; the default config without it).

Prints each side's summed time over all rounds and the ratio change /
parent, and exits 1 when any case's outcome (None for a pass, or the
failure record) differs between the sides or the two suites do not list the
same properties and case counts.  Comparing a checkout with itself measures
the noise of the method.

Usage: python3 scripts/case_pairs.py PARENT CHANGE [--rounds N] [--config FILE]
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def load_suites(checkouts: dict[str, Path], work: Path) -> dict:
    """Each side's suite module, imported from its own copy of the package."""
    for side, root in checkouts.items():
        shutil.copytree(root / "src" / "torsionlab", work / f"side_{side}")
    sys.path.insert(0, str(work))
    return {side: importlib.import_module(f"side_{side}.suite") for side in checkouts}


def cases(suite, config) -> list[tuple[str, int]]:
    """(property name, case count) of every property, in suite order."""
    return [(name, suite._case_count(name, config)) for name in suite.property_names()]


def case_pairs(checkouts: dict[str, Path], tree: dict | None, rounds: int) -> dict:
    """Summed seconds per side and the cases whose outcomes differ."""
    with tempfile.TemporaryDirectory(prefix="case-pairs-") as work:
        suites = load_suites(checkouts, Path(work))
        configs = {
            side: s.SuiteConfig.from_tree(tree) if tree is not None else s.SuiteConfig()
            for side, s in suites.items()
        }
        plan = {side: cases(s, configs[side]) for side, s in suites.items()}
        if plan["parent"] != plan["change"]:
            return {"seconds": dict.fromkeys(SIDES, 0.0), "differ": [("properties", None)]}
        seconds = dict.fromkeys(SIDES, 0.0)
        differ = []
        for r in range(rounds):
            k = r  # the side that goes first flips with every case and round
            for idx, (name, count) in enumerate(plan["parent"]):
                for case in range(count):
                    order = SIDES if k % 2 == 0 else SIDES[::-1]
                    k += 1
                    outcome = {}
                    for side in order:
                        start = time.perf_counter()
                        outcome[side] = suites[side]._run_case(configs[side], idx, case)
                        seconds[side] += time.perf_counter() - start
                    if outcome["parent"] != outcome["change"] and (name, case) not in differ:
                        differ.append((name, case))
        return {"seconds": seconds, "differ": differ}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--config", type=Path, help="JSON suite config")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    tree = json.loads(args.config.read_text(encoding="utf-8")) if args.config else None
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    got = case_pairs(checkouts, tree, args.rounds)
    secs = got["seconds"]
    for side in SIDES:
        print(f"{side}: {secs[side]:.3f} s")
    ratio = secs["change"] / secs["parent"] if secs["parent"] else float("nan")
    print(f"ratio change / parent: {ratio:.4f} ({(ratio - 1) * 100:+.2f} %)")
    for name, case in got["differ"]:
        if case is None:
            print("the two suites list different properties or case counts")
        else:
            print(f"outcome differs: {name} case {case}")
    return 1 if got["differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
