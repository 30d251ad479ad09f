#!/usr/bin/env python3
"""Walk one random morphism through the whole pipeline, printing as it goes:
truncation memberships, the factorization and its classes, the normality
report of an object, a lifting count, and the stage tower.

Usage: python scripts/factorization_demo.py [--seed N] [--prime P] [--cut N]
"""

from __future__ import annotations

import argparse

import numpy as np

from torsionlab.complexes import (
    CommutingSquare,
    compose,
    homology_dims,
    random_chain_map,
    random_complex,
)
from torsionlab.factorization import (
    factor,
    in_E,
    in_M,
    is_orthogonal,
    normality_report,
    solve_lifting,
)
from torsionlab.linalg import PrimeField
from torsionlab.postnikov import boundedness_window, postnikov_tower, verify_tower
from torsionlab.quiver import Quiver
from torsionlab.tstruct import TStructure


def homology_table(name, x) -> str:
    cells = {n: "+".join(str(d) for d in dims) for n, dims in homology_dims(x).items() if any(dims)}
    if not cells:
        return f"  H({name}) = 0"
    row = "  ".join(f"H_{n}=F^({cells[n]})" for n in sorted(cells))
    return f"  H({name}): {row}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--prime", type=int, default=3)
    parser.add_argument("--cut", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    quiver = Quiver.a2()
    fld = PrimeField(args.prime)
    t = TStructure(args.cut)

    x = random_complex(quiver, fld, rng, max_dim=3, lo=-3, hi=3)
    y = random_complex(quiver, fld, rng, max_dim=3, lo=-3, hi=3)
    f = random_chain_map(x, y, rng)

    print(f"quiver a->b over F_{args.prime}, cutoff {args.cut}")
    print(homology_table("X", x))
    print(homology_table("Y", y))
    print(f"  f in E: {in_E(f, t)}   f in M: {in_M(f, t)}")

    fac = factor(f, t)
    print("\nfactor(f) = m . e through the middle object:")
    print(homology_table("mid", fac.e.target))
    print(f"  e in E: {in_E(fac.e, t)}   m in M: {in_M(fac.m, t)}")
    print(f"  m.e == f on the nose: {compose(fac.m, fac.e) == f}")

    print("\nnormality of X:")
    for field_name, value in zip(
        (
            "kernel_is_torsion",
            "cokernel_is_torsion_free",
            "two_sided",
            "cokernel_comparison_iso",
            "kernel_comparison_iso",
            "fiber_sequence_pullout",
        ),
        normality_report(x, t).as_tuple(),
    ):
        print(f"  {field_name:26} {value}")

    glue = random_chain_map(fac.e.target, fac.m.source, rng)
    sq = CommutingSquare.strict(compose(glue, fac.e), fac.e, fac.m, compose(fac.m, glue))
    count, _ = solve_lifting(sq)
    print(f"\nlifting against itself: orthogonal={is_orthogonal(fac.e, fac.m)}, "
          f"filler classes={count}")

    tower = postnikov_tower(f)
    win = boundedness_window(f)
    print(f"\nstage tower of f (window {None if win is None else (win.lo, win.hi)}):")
    for stage in tower.stages:
        src = stage.map.source
        tgt = stage.map.target
        print(f"  degree {stage.degree}: total dims {src.total_dim} -> {tgt.total_dim}, "
              f"fiber in heart: {stage.fiber_in_heart}")
    print(f"  verified: {verify_tower(f, tower)}")


if __name__ == "__main__":
    main()
