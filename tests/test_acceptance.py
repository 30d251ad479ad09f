"""Acceptance gate: one test per advertised guarantee, at the stated scale.

A single default-config suite run (p in {2,3}, both quivers, window [-4,4],
dims <= 4, 100 seeded cases per property) backs most criteria; the two
per-cutoff criteria top it up to 100 cases per cutoff via replay_case.
Each test finishes by printing its own pass line, so `pytest -v -s` shows
one line per criterion.
"""

from __future__ import annotations

import hashlib
import time

import pytest

from torsionlab.suite import (
    FIXED_CASES,
    SuiteConfig,
    replay_case,
    report_json,
    run_suite,
)
from torsionlab.suite import _micro_pair

CONFIG = SuiteConfig()
PER_CUT_CASES = 100 * len(CONFIG.shifts)
# sha256 of report_json for the default config; a change that means to move
# the report's bytes updates it and says why
DEFAULT_REPORT_SHA256 = "cd8cf9e7fbc65e7b24dc86b6ee6b8b960c4dd00275768fe45969a07a875c2c76"


@pytest.fixture(scope="session")
def default_run():
    start = time.perf_counter()
    report = run_suite(CONFIG)
    elapsed = time.perf_counter() - start
    return report, elapsed


def _result(report, name):
    for r in report.results:
        if r.name == name:
            return r
    raise AssertionError(f"property {name} missing from the report")


def _check(default_run, name, criterion, label, cases=100):
    report, _ = default_run
    r = _result(report, name)
    assert r.cases >= cases, f"{name} ran {r.cases} cases, wanted {cases}"
    assert r.failed == 0, f"{name} failed: {r.counterexample}"
    print(f"criterion {criterion:02d} PASS: {label}")


def _top_up(name):
    """Extend a rotated property to 100 cases per cutoff."""
    for case in range(CONFIG.cases, PER_CUT_CASES):
        failure = replay_case(CONFIG, name, case)
        assert failure is None, f"{name} case {case}: {failure['detail']}"


def test_criterion_01_pullout_axiom(default_run):
    _check(
        default_run,
        "pullout-agreement",
        1,
        "cartesian/cocartesian agree on cone, pullback and degenerate squares; "
        "fiber squares are pullouts",
    )


def test_criterion_02_t_structure_axioms(default_run):
    assert set(CONFIG.shifts) == {-2, -1, 0, 1, 2}
    _check(
        default_run,
        "t-axioms",
        2,
        "orthogonality, shift inclusions and the fiber-sequence pullout "
        "across cutoffs -2..2",
    )


def test_criterion_03_factorization(default_run):
    _check(
        default_run,
        "factorization",
        3,
        "factor() lands in the two classes, composes back, and re-factoring "
        "is idempotent up to quasi-iso",
    )


def test_criterion_04_orthogonality_cross_validation(default_run):
    positives = sum(1 for c in range(CONFIG.cases) if c % 7 < 5)
    assert positives >= 50 and CONFIG.cases - positives >= 20
    _check(
        default_run,
        "lifting-cross-check",
        4,
        f"{positives} factored pairs have a unique filler class; "
        f"{CONFIG.cases - positives} constructed pairs fail both tests",
    )


def test_criterion_05_normality(default_run):
    _check(default_run, "normality", 5, "six normality conditions hold and agree")
    _top_up("normality")
    print("criterion 05 PASS: normality extended to 100 objects per cutoff")


def test_criterion_06_semiexactness(default_run):
    _check(
        default_run,
        "semiexactness",
        6,
        "pushout-to-pullback comparison is a quasi-iso",
    )


def test_criterion_07_intersection_is_quasi_isos(default_run):
    _check(
        default_run,
        "em-intersection",
        7,
        "both classes together pick out exactly the quasi-isos "
        "(random and constructed)",
    )


def test_criterion_08_three_for_two_and_sator(default_run):
    _check(
        default_run,
        "three-for-two-sator",
        8,
        "both halves of three-for-two for both classes; initial/terminal "
        "arrows agree on membership",
    )


def test_criterion_09_roundtrips(default_run):
    _check(
        default_run,
        "roundtrips",
        9,
        "membership roundtrips and antitone containment between cutoffs",
    )
    _top_up("roundtrips")
    print("criterion 09 PASS: roundtrips extended to 100 cases per cutoff")


def test_criterion_10_heart_abelianness(default_run):
    _check(
        default_run,
        "heart-abelian",
        10,
        "coimage-to-image comparison invertible; heart (co)kernels match "
        "homology-level (co)kernels",
    )


def test_criterion_11_postnikov(default_run):
    _check(
        default_run,
        "postnikov",
        11,
        "towers verify, length equals window width, degrees enumerate it",
    )


def test_criterion_12_mapping_space_oracle(default_run):
    assert FIXED_CASES["hom-oracle"] >= 200
    for case in range(FIXED_CASES["hom-oracle"]):
        x, y, _ = _micro_pair(case)
        assert x.total_dim + y.total_dim <= 8
        assert not x.is_zero() and not y.is_zero()
    _check(
        default_run,
        "hom-oracle",
        12,
        "mapping-complex homology equals direct homotopy-class counts on the "
        "micro enumeration",
        cases=200,
    )


def test_default_suite_is_green_and_fast(default_run):
    report, elapsed = default_run
    assert report.ok
    assert elapsed < 60, f"default suite took {elapsed:.1f}s"
    print(f"defaults PASS: full suite green in {elapsed:.1f}s")


def test_default_report_bytes_are_pinned(default_run):
    report, _ = default_run
    digest = hashlib.sha256(report_json(report).encode("utf-8")).hexdigest()
    assert digest == DEFAULT_REPORT_SHA256
    print("defaults PASS: report bytes match the pinned digest")
