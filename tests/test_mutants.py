"""Mutants of src/torsionlab, each with the suite properties that kill it.

A row names a module of the package, an exact text in it (found once), its
replacement and the properties expected to kill the mutant.  The row is
applied to a copy of the package imported under its own name, as
scripts/case_pairs.py does, so the mutant lives beside the real package.
Only the named properties are replayed, case by case in order, through the
copy's suite.replay_case under the default config; each must fail on some
case.  A property that is the only killer of a row cannot go without a
replacement.
"""

from __future__ import annotations

import importlib
import shutil
from dataclasses import dataclass
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "torsionlab"


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str
    old: str
    new: str
    killers: tuple[str, ...]


def _rank_one_less(name: str, when: str) -> Mutant:
    """linalg.rank returning one less whenever `when` holds of its true
    rank r (and the matrix m)."""
    old = "def rank(m: Mat) -> int:\n"
    new = (
        f"{old}    r = _exact_rank(m)\n"
        f"    return r - 1 if {when} else r\n\n\n"
        "def _exact_rank(m: Mat) -> int:\n"
    )
    return Mutant(name, "linalg.py", old, new, ("hom-oracle",))


ROWS = (
    _rank_one_less("rank-less-from-3", "r >= 3"),
    _rank_one_less("rank-less-from-2", "r >= 2"),
    _rank_one_less("rank-less-from-1", "r >= 1"),
    _rank_one_less("rank-less-from-3-over-F3", "r >= 3 and m.field.p == 3"),
    Mutant(
        "hom-differential-without-pre-part",
        "complexes.py",
        "        if self._is_slot(n - 1, i + 1):\n"
        "            d = x.diff(i + 1)\n"
        "            yield i + 1, pre_op, (d if n % 2 else -d), y.term(i + n)\n",
        "",
        ("hom-oracle",),
    ),
    # the packed F2/F3 kernel, behind every reduction over F2 and F3 but rank's
    Mutant(
        "packed-F3-pivot-of-2-unscaled",
        "linalg.py",
        "        if p == 3 and y[1] & low:\n            y = y[::-1]\n",
        "",
        ("t-axioms", "roundtrips"),
    ),
    Mutant(
        "packed-F2-no-clearing-above-the-pivot",
        "linalg.py",
        "            rows[:] = [x ^ y if x & low else x for x in rows]\n",
        "            rows[r:] = [x ^ y if x & low else x for x in rows[r:]]\n",
        ("t-axioms", "roundtrips"),
    ),
    Mutant(
        "packed-F3-no-clearing-above-the-pivot",
        "linalg.py",
        "            rows[:] = [_minus(*x, y, low) if (x[0] | x[1]) & low else x for x in rows]\n",
        "            rows[r:] = [_minus(*x, y, low) if (x[0] | x[1]) & low else x for x in rows[r:]]\n",
        ("roundtrips", "em-intersection"),
    ),
    Mutant(
        "packed-F3-minus-adding-where-it-should-subtract",
        "linalg.py",
        "    y1, y2 = y if x2 & low else y[::-1]\n",
        "    y1, y2 = y\n",
        ("t-axioms", "roundtrips"),
    ),
    Mutant(
        "packed-F3-unpacked-with-the-planes-swapped",
        "linalg.py",
        "else _PLANES[:, 0] @ bits",
        "else _PLANES[::-1, 0] @ bits",
        ("t-axioms", "roundtrips"),
    ),
    Mutant(
        "packed-wide-rows-unpacked-backwards",
        "linalg.py",
        'count=cols, bitorder="little")',
        'count=cols, bitorder="big")',
        ("postnikov",),
    ),
    # from the scratch mutation run of ROADMAP item 9, each with its killers
    Mutant(
        "in-aisle-off-by-one",
        "tstruct.py",
        "_acyclic_where(x, lambda k: k >= t.n)",
        "_acyclic_where(x, lambda k: k > t.n)",
        ("roundtrips",),
    ),
    Mutant(
        "is-cocartesian-always-true",
        "complexes.py",
        "    return is_quasi_iso(ChainMap(po, z, block_components(po, z, 0, table)))\n",
        "    return True\n",
        ("pullout-agreement",),
    ),
    Mutant(
        "is-pullout-always-true",
        "complexes.py",
        "    return is_quasi_iso(_square_glue_map(sq))\n",
        "    return True\n",
        ("pullout-agreement",),
    ),
    Mutant(
        "homotopic-always-none",
        "complexes.py",
        "    return Homotopy(g, f, got[0][0])\n",
        "    return None\n",
        ("postnikov",),
    ),
    Mutant(
        "heart-cokernel-cut-one-degree-off",
        "tstruct.py",
        "truncate_lt(cofibration, f.t.shifted(1))",
        "truncate_lt(cofibration, f.t.shifted(2))",
        ("heart-abelian",),
    ),
    Mutant(
        "is-cartesian-always-true",
        "complexes.py",
        "    return is_quasi_iso(pb.gap_map(sq.top, sq.left, sq.witness.comps))\n",
        "    return True\n",
        ("pullout-agreement",),
    ),
    Mutant(
        "solve-lifting-counts-one-class",
        "factorization.py",
        "    classes = sq.top.source.field.p ** (nullity - rank(total_diff(nodes, edges, 1)))\n",
        "    classes = 1\n",
        ("lifting-cross-check",),
    ),
    Mutant(
        "is-orthogonal-always-true",
        "factorization.py",
        "    return not any(any(d) for n, d in dims.items() if n >= 0)\n",
        "    return True\n",
        ("lifting-cross-check",),
    ),
    Mutant(
        "is-quasi-iso-on-degree-0-only",
        "complexes.py",
        "    return all(not any(dims) for dims in cone_homology_dims(f).values())\n",
        "    return not any(cone_homology_dims(f).get(0, ()))\n",
        ("pullout-agreement", "three-for-two-sator", "roundtrips"),
    ),
    # the sign of the pre part of the hom differential, which sits on d_X;
    # HomComplex.diff runs no d² pass, so these rows are what catches a
    # wrong sign there
    Mutant(
        "hom-differential-pre-part-always-negated",
        "complexes.py",
        "(d if n % 2 else -d)",
        "-d",
        ("lifting-cross-check",),
    ),
    Mutant(
        "hom-differential-pre-part-never-negated",
        "complexes.py",
        "(d if n % 2 else -d)",
        "d",
        (
            "pullout-agreement",
            "factorization",
            "lifting-cross-check",
            "semiexactness",
            "em-intersection",
            "three-for-two-sator",
            "roundtrips",
            "heart-abelian",
            "postnikov",
        ),
    ),
    # the one place that decides a hom slot is free (no basis): declaring
    # every slot free makes every flat map of every slot an intertwiner
    Mutant(
        "every-hom-slot-declared-free",
        "quiver.py",
        "    return kernel_basis(constraints) if constraints.a.any() else None\n",
        "    return None\n",
        ("pullout-agreement", "em-intersection", "three-for-two-sator"),
    ),
    # class checks that cannot say no: each property also asks its check on
    # a planted input where the right answer is False
    Mutant(
        "three-for-two-check-always-true",
        "factorization.py",
        "    return member(f, t) + member(g, t) + member(compose(g, f), t) != 2\n",
        "    return True\n",
        ("three-for-two-sator",),
    ),
    Mutant(
        "sator-check-always-true",
        "factorization.py",
        "    return member(initial_map(a), t) == member(terminal_map(a), t)\n",
        "    return True\n",
        ("three-for-two-sator",),
    ),
    Mutant(
        "antitone-check-always-true",
        "factorization.py",
        "    return not member(f, lower) or member(f, higher)\n",
        "    return True\n",
        ("roundtrips",),
    ),
    Mutant(
        "verify-tower-always-true",
        "postnikov.py",
        '    """Re-check every claim a tower makes about f, from scratch."""\n',
        '    """Re-check every claim a tower makes about f, from scratch."""\n    return True\n',
        ("postnikov",),
    ),
    # the Kronecker order of the operators m (x) I and I (x) m^T that
    # post_op and pre_op write, in place or into a new array, behind the
    # images of every slot
    Mutant(
        "post-op-operator-in-swapped-kronecker-order",
        "quiver.py",
        "source.dims, eye_first=False, out=out)",
        "source.dims, eye_first=True, out=out)",
        (
            "pullout-agreement",
            "t-axioms",
            "factorization",
            "lifting-cross-check",
            "normality",
            "semiexactness",
            "em-intersection",
            "three-for-two-sator",
            "roundtrips",
            "heart-abelian",
            "postnikov",
        ),
    ),
    Mutant(
        "pre-op-operator-in-swapped-kronecker-order",
        "quiver.py",
        "target.dims, eye_first=True, out=out)",
        "target.dims, eye_first=False, out=out)",
        (
            "pullout-agreement",
            "t-axioms",
            "factorization",
            "lifting-cross-check",
            "semiexactness",
            "em-intersection",
            "three-for-two-sator",
            "roundtrips",
            "heart-abelian",
            "postnikov",
        ),
    ),
)


def _mutant_suite(row: Mutant, root: Path, monkeypatch):
    """The suite module of a copy of the package with row applied."""
    package = "mutant_" + row.name.replace("-", "_")
    shutil.copytree(SRC, root / package, ignore=shutil.ignore_patterns("__pycache__"))
    path = root / package / row.module
    text = path.read_text(encoding="utf-8")
    assert text.count(row.old) == 1, f"{row.name}: the old text is not in {row.module} once"
    path.write_text(text.replace(row.old, row.new), encoding="utf-8")
    monkeypatch.syspath_prepend(str(root))
    return importlib.import_module(f"{package}.suite")


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_each_mutant_is_killed_by_its_properties(row, tmp_path, monkeypatch):
    suite = _mutant_suite(row, tmp_path, monkeypatch)
    config = suite.SuiteConfig()
    for name in row.killers:
        cases = range(suite._case_count(name, config))
        assert any(suite.replay_case(config, name, case) for case in cases), (
            f"{row.name} survives {name}"
        )
