"""Counterexample bytes of forced failures, pinned.

Each scenario patches predicates that the suite module imports (or the
tstruct functions it calls through the module object) so that every one of
the 12 properties fails, and reaches the failure branches that a green
report never shows.  The sha256 of the JSON report, and of the text report
with its timing suffixes stripped, must not move when the way a case
reports its failure is rewritten.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re

import pytest

import torsionlab.suite as suite
import torsionlab.tstruct
from torsionlab.factorization import NormalityReport
from torsionlab.suite import SuiteConfig, report_json, report_text, run_suite

# cases=7 reaches case 5, the first constructed stalk pair of lifting-cross-check
CONFIG = SuiteConfig(cases=7, max_dim=3, window=(-2, 2), seed=5)

_real_tower = suite.postnikov_tower
_real_cocartesian = suite.is_cocartesian
_real_direct = suite._class_dim_direct


def _injected(*args):
    raise ZeroDivisionError("injected")


def _short_tower(f):
    tower = _real_tower(f)
    return dataclasses.replace(tower, stages=tower.stages[:-1])


def _shifted_tower(f):
    tower = _real_tower(f)
    stages = tuple(
        s if s.degree is None else dataclasses.replace(s, degree=s.degree + 1)
        for s in tower.stages
    )
    return dataclasses.replace(tower, stages=stages)


class _NoDims:
    dims = (99,)


SCENARIOS = {
    "first-checks": {
        "is_pullout": lambda sq: False,
        "in_E": lambda f, tt: False,
        "solve_lifting": lambda sq: (2, None),
        "normality_report": lambda x, tt: NormalityReport(True, False, False, True, True, True),
        "semiexact_check": lambda f, tt: False,
        "three_for_two_check": lambda member, f, g, tt: False,
        "roundtrip_check": lambda f, x, tt: False,
        "is_quasi_iso": lambda f: False,
        "verify_tower": lambda f, tower: False,
        "_class_dim_direct": lambda x, y, n, fld: -1,
    },
    "second-checks": {
        "is_cartesian": lambda sq: not _real_cocartesian(sq),
        "homology_dims": lambda x: {0: (1,) * len(x.quiver.vertices)},
        "in_M": lambda f, tt: False,
        "is_orthogonal": lambda e, m: False,
        "three_for_two_check": lambda member, f, g, tt: member is suite.in_E,
        "antitone_check": lambda member, f, lower, higher: False,
        "verify_tower": lambda f, tower: True,
        "postnikov_tower": _short_tower,
    },
    "late-checks": {
        "solve_lifting": lambda sq: (1, object()),
        "sator_check": lambda member, x, tt: False,
        "rep_kernel": lambda m: (_NoDims(), None),
        "verify_tower": lambda f, tower: True,
        "postnikov_tower": _shifted_tower,
        "_class_dim_direct": _injected,
        "in_E": lambda f, tt: True,
        "in_M": lambda f, tt: True,
        "is_quasi_iso": lambda f: False,
        "tstruct.in_aisle": lambda x, t: False,
        "is_pullout": lambda sq: False,
        "normality_report": _injected,
        "semiexact_check": _injected,
        "roundtrip_check": lambda f, x, tt: True,
    },
    "cokernels": {
        "rep_cokernel": lambda m: (_NoDims(), None),
        "tstruct.in_coaisle": lambda x, t: False,
        "is_pullout": lambda sq: True,
        "is_cartesian": lambda sq: True,
        "is_cocartesian": lambda sq: False,
        "in_E": lambda f, tt: True,
        "in_M": lambda f, tt: False,
        "is_quasi_iso": lambda f: True,
        "three_for_two_check": lambda member, f, g, tt: True,
        "sator_check": lambda member, x, tt: True,
        "antitone_check": _injected,
        "solve_lifting": _injected,
        "postnikov_tower": _injected,
        # first failure at case 100, over F3 while the case's own prime is 2
        "_class_dim_direct": lambda x, y, n, fld: -1 if fld.p == 3 else _real_direct(x, y, n, fld),
    },
}

PINNED = {
    "first-checks": (
        "3edee5ae7eae21f5d6b380a7cc6891a0ed5d5c07d41c34f99f158dd58afece81",
        "0a4d0678bb8c3172a7d00768bfa468894bf637d86eba3dd9e34b46abbaa33ed7",
    ),
    "second-checks": (
        "b5f81f6fa31ab2ec8cf6bfb9cefb09020a127ac0529bdface72482bea7687706",
        "0671fad3762bc643144a55d5a915d1c3af827dc3e6d472265602b3b3e4c217c7",
    ),
    "late-checks": (
        "2e24b8f8ef5f23cdb072f789f1bc3ed9bce90a073836cd23f3aec055ae0bd9ff",
        "e823bbaf03e13035122044097212a678dfd55f824163578e8fb34bfde49da991",
    ),
    "cokernels": (
        "1ef481d3e8378dff296b9f82880a18012c580a6aefe42b231a7554ef53843729",
        "98255aa795b914e35b19e229efecb690d8ba13a3b5dbd61481099a90bb4d828b",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_forced_failure_reports_are_pinned(monkeypatch, scenario):
    for name, patch in SCENARIOS[scenario].items():
        module, attr = (torsionlab.tstruct, name[8:]) if name.startswith("tstruct.") else (suite, name)
        monkeypatch.setattr(module, attr, patch)
    report = run_suite(CONFIG)
    assert not report.ok
    text = re.sub(r"  \(\d+\.\d+s\)$", "", report_text(report), flags=re.M)
    assert (_sha(report_json(report)), _sha(text)) == PINNED[scenario], text


def test_pullout_agreement_catches_a_pullout_test_that_always_says_yes(monkeypatch):
    """The zero square on x is a pullout exactly when x is acyclic, so an
    is_pullout that answers True on every square fails pullout-agreement as
    soon as a case draws an x with homology; every other pullout check of
    the property passes under that mutant."""
    config = SuiteConfig(cases=6, max_dim=2, window=(-1, 1), seed=3)
    names = suite.property_names()
    idx = names.index("pullout-agreement")
    assert run_suite(config).results[idx].ok
    monkeypatch.setattr(suite, "is_pullout", lambda sq: True)
    result = run_suite(config).results[idx]
    assert result.failed
    assert result.counterexample["detail"] == "pullout test of the zero square disagrees with H(x)"
