"""torsionlab benchmark: one workload per process, one thread, closed loop.

    python3 perfbench/run.py --workload hom-large --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its src/
directory.  The workload's inputs are built from --seed (set-up is repeated
SETUPS times and its median reported), then whole rounds of the workload's
operations run until --seconds have passed (at least one round).  Every
output is checked.  Times are rescaled to the reference box's speed (see
timing.py).  The last line of standard output is one JSON object: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A result file with the machine and library versions, the raw and rescaled
round times, and with --trace 1 the time of every traced function, goes to
perfbench/out/.

Without --workload every workload runs in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
from timing import OpTimer, SpeedClock
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 5
clock = time.perf_counter


def fresh_import():
    """Import torsionlab from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "torsionlab" or m.startswith("torsionlab.")]:
        del sys.modules[name]
    package = importlib.import_module("torsionlab")
    importlib.import_module("torsionlab.cli")
    return package


def machine(tl) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        model = models[0] if models else ""
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "torsionlab": tl.__version__,
    }


def quantile(values: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values), q))


def run_rounds(workload, seconds: float, speed: SpeedClock, latencies: list, tracer=None):
    """Whole rounds until the next one would end after `seconds`.  With a
    tracer, rounds alternate untraced and traced, starting untraced.
    Untraced latencies go to `latencies`; returns the rounds' walls (sums of
    their latencies), the operations attempted and failed, and the seconds
    per suite property of each untraced round."""
    plain, traced, raw, attempted, failed, prop_times = [], [], [], 0, 0, []
    start = clock()
    while True:
        r0 = clock()
        for with_trace in (False, True) if tracer else (False,):
            timer = OpTimer(speed)
            if with_trace:
                tracer.install()
            try:
                att, fail = workload.run_round(timer)
            finally:
                if with_trace:
                    tracer.uninstall()
            scaled = timer.scaled()
            (traced if with_trace else plain).append(sum(scaled))
            if not with_trace:
                raw.append(sum(timer.raw))
                latencies.extend(scaled)
                if hasattr(workload, "property_times"):
                    prop_times.append(workload.property_times(scaled))
            attempted += att
            failed += fail
        now = clock()
        if now - start + (now - r0) > seconds:
            walls = {"untraced": plain, "traced": traced, "untraced_raw": raw}
            return walls, attempted, failed, prop_times


def end_to_end(setups, plain, latencies) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(plain),
        "op_p50_ms": 1000 * quantile(latencies, 0.5),
        "op_p90_ms": 1000 * quantile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, plain, traced, prop_times, properties) -> dict[str, float]:
    """The tracer's metrics per traced round, seconds per suite property
    (median over untraced rounds; 0 outside suite-default) and the
    tracing overhead per round."""
    out = tracer.metrics(len(traced))
    for name in properties:
        times = [t[name] for t in prop_times if name in t]
        out[f"suite.prop.{name}.s"] = statistics.median(times) if times else 0.0
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out


def run_one(args, spec) -> int:
    os.environ.pop("TORSIONLAB_THREADS", None)
    src = ROOT / "src"
    if not (src / "torsionlab" / "__init__.py").is_file():
        print(f"error: no torsionlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT.mkdir(exist_ok=True)
    kind = WORKLOADS[args.workload]
    speed = SpeedClock()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        setups = []
        for _ in range(SETUPS):
            timer = OpTimer(speed)
            timer.start()
            tl = fresh_import()
            workload = kind(tl, args.seed, Path(work))
            timer.stop()
            setups.extend(timer.scaled())
        if Path(tl.__file__).resolve().parent != src / "torsionlab":
            print(f"error: torsionlab imported from {tl.__file__}", file=sys.stderr)
            return 2
        tracer = Tracer(tl) if args.trace else None
        latencies: list[float] = []
        try:
            walls, attempted, failed, prop_times = run_rounds(
                workload, args.seconds, speed, latencies, tracer
            )
        except checks.CheckError as exc:
            print(f"error: wrong output: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": max(len(latencies), 1),
                              "failed": 0, "metrics": {}}))
            return 1

    if tracer:
        values = per_layer(
            tracer, walls["untraced"], walls["traced"], prop_times, tl.suite.property_names()
        )
        wanted = spec["per_layer"]
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    else:
        values = end_to_end(setups, walls["untraced"], latencies)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(tl),
        "round_walls_s": walls,
        "setups_s": setups,
        "calibrations_s": speed.samples,
        "failures": dict(getattr(workload, "failures", {})),
        "result": result,
    }
    if tracer:
        record["spans"] = tracer.table()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for metric, v in metrics.items():
        print(f"{args.workload} {metric} = {v['value']:.6g} {v['unit']}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}")
    print(json.dumps(result))
    return 0


def run_all(args, spec) -> int:
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
