"""The tracer leaves results unchanged and sees calls from every module."""

import json
from pathlib import Path

import numpy as np

import run
from tracing import CALLS, SELF_TIME, Tracer

SMALL_CASES = 3


def _traced(tl, fn):
    tracer = Tracer(tl)
    tracer.install()
    try:
        return tracer, fn()
    finally:
        tracer.uninstall()


def test_traced_report_is_byte_identical(tl):
    config = tl.SuiteConfig(cases=SMALL_CASES)
    plain = tl.suite.report_json(tl.run_suite(config))
    _, traced = _traced(tl, lambda: tl.suite.report_json(tl.run_suite(config)))
    assert traced == plain


def test_every_grouped_name_is_traced(tl):
    names = set(Tracer(tl).names)
    for group in (*SELF_TIME.values(), *CALLS.values()):
        assert set(group) <= names


def test_every_binding_is_wrapped_and_restored(tl):
    mods = [getattr(tl, m) for m in ("complexes", "factorization", "postnikov", "tstruct", "suite")]
    orig = tl.complexes.fib
    assert all(m.fib is orig for m in mods)
    tracer = Tracer(tl)
    tracer.install()
    try:
        wrapped = tl.complexes.fib
        assert wrapped is not orig and all(m.fib is wrapped for m in mods)
        assert tl.hom_complex is tl.complexes.hom_complex is not None
    finally:
        tracer.uninstall()
    assert all(m.fib is orig for m in mods)


def test_calls_from_other_modules_are_spanned(tl):
    config = tl.SuiteConfig(cases=SMALL_CASES)
    tracer, _ = _traced(tl, lambda: tl.run_suite(config))
    names = np.array(tracer.names)
    name = np.array(tracer.span_name)
    parent = np.array(tracer.span_parent)
    fib = name == tracer.name_ids["complexes.fib"]
    callers = {n.split(".")[0] for n in names[name[parent[fib & (parent >= 0)]]]}
    # fib is called directly by suite cases, by factorization and by postnikov
    assert {"suite", "factorization", "postnikov"} <= callers
    table = tracer.table()
    assert table["suite.run_suite"]["calls"] == 1
    assert tracer.count["linalg.mat.built"] > tracer.count["quiver.repmap.checked"] > 0
    # self times partition the root span
    total_self = sum(row["self_s"] for row in table.values())
    assert abs(total_self - table["suite.run_suite"]["total_s"]) < 1e-6


def test_per_layer_metrics_cover_the_benchmark(tl):
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    config = tl.SuiteConfig(cases=1)
    tracer, _ = _traced(tl, lambda: tl.run_suite(config))
    values = run.per_layer(tracer, [1.0], [1.5], [{}], tl.suite.property_names())
    assert {m["name"] for m in spec["per_layer"]} <= set(values)
    assert values["trace.overhead_s"] == 0.5
