"""Towers interpolating a bounded morphism through its fiber's homology.

A morphism is bounded when the homology of its fiber lives in a finite
window [lo, hi).  Such a morphism factors into hi - lo stages whose fibers
are concentrated in single, pairwise distinct degrees: descend the cutoff
through the truncations of the cofiber and take the fiber of
Y -> (below-cutoff part of cone f) at each step.  The top stage lifts f
through the deepest truncation using the cofiber's strict null-homotopy,
the bottom stage is the fiber projection back onto Y, and every
intermediate stage restricts truncations, so the tower composes to f on
the nose.

Construction runs in descending fiber degree (hi-1 down to lo); each stage
carries its degree label, and checkers treat the labels as a set, so the
emission order carries no contract weight.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    ChainMap,
    Complex,
    Fiber,
    Homotopy,
    block_components,
    compose,
    cone,
    cone_homology_dims,
    fib,
    homotopic,
    identity_map,
    is_quasi_iso,
)
from .quiver import RepMap
from .tstruct import TStructure, lt_restriction, truncate_lt

__all__ = [
    "BoundWindow",
    "TowerStage",
    "Tower",
    "boundedness_window",
    "postnikov_tower",
    "verify_tower",
]


@dataclass(frozen=True)
class BoundWindow:
    """Half-open degree window [lo, hi) containing the fiber homology."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError("window must be nonempty")

    @property
    def width(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class TowerStage:
    """One tower map with its fiber certificate.

    degree is None only on the degenerate single-stage tower of a
    quasi-iso, where the fiber is acyclic and carries no degree.
    """

    map: ChainMap
    degree: int | None
    fiber_in_heart: bool


@dataclass(frozen=True)
class Tower:
    objects: tuple[Complex, ...]
    stages: tuple[TowerStage, ...]
    witness: Homotopy  # from the composite of the stages to the original map
    window: BoundWindow | None


def _fiber_support(f: ChainMap) -> list[int]:
    """The degrees where fib(f) has homology, read from the cone's ranks:
    fib(f) = cone(f)[-1], so H_k(fib f) = H_{k+1}(cone f)."""
    return [k - 1 for k, dims in cone_homology_dims(f).items() if any(dims)]


def boundedness_window(f: ChainMap) -> BoundWindow | None:
    """Minimal window containing the homology support of fib(f).

    Returns None when the fiber is acyclic, i.e. f is already invertible.
    """
    supported = _fiber_support(f)
    if not supported:
        return None
    return BoundWindow(min(supported), max(supported) + 1)


def _lift_into_fiber(
    g: ChainMap, fb: Fiber, null_h: dict[int, RepMap]
) -> ChainMap:
    """The strict lift x -> (g x, -h x) of g through fib(q), given a strict
    null-homotopy h from 0 to q.g."""
    table = {(0, 0): (1, g.comps), (1, 0): (-1, null_h)}
    return ChainMap(g.source, fb.complex, block_components(g.source, fb.blocks, 0, table))


def _fiber_descend(fb_hi: Fiber, fb_lo: Fiber, restrict: ChainMap) -> ChainMap:
    """fib(Y -> B) -> fib(Y -> B') over Y, along a strict B -> B' under Y."""
    y = fb_hi.to_source.target
    table = {(0, 0): (1, identity_map(y).comps), (1, 1): (1, restrict.comps)}
    comps = block_components(fb_hi.blocks, fb_lo.blocks, 0, table)
    return ChainMap(fb_hi.complex, fb_lo.complex, comps)


def _certify(stage_map: ChainMap, degree: int) -> TowerStage:
    """The stage with its certificate: fib(stage_map)[-degree] lies in the
    heart, that is, the fiber has homology only in the given degree."""
    ok = all(k == degree for k in _fiber_support(stage_map))
    return TowerStage(stage_map, degree, ok)


def postnikov_tower(f: ChainMap) -> Tower:
    window = boundedness_window(f)
    x, y = f.source, f.target
    if window is None:
        stage = TowerStage(f, None, True)
        return Tower((x, y), (stage,), Homotopy(f, f, {}), None)
    lo, hi = window.lo, window.hi
    if window.width == 1:
        return Tower((x, y), (_certify(f, lo),), Homotopy(f, f, {}), window)
    cf = cone(f)
    cutoffs = list(range(hi, lo + 1, -1))  # hi, hi-1, ..., lo+2
    fibers = []
    projections = []
    for n in cutoffs:
        _, pi = truncate_lt(cf.complex, TStructure(n))
        fibers.append(fib(compose(pi, cf.into)))
        projections.append(pi)
    # top: push the cofiber's null-homotopy through the deepest truncation
    pushed = {
        m: projections[0].comp(m + 1).compose(h)
        for m, h in cf.null_wit.comps.items()
    }
    maps = [_lift_into_fiber(f, fibers[0], pushed)]
    for idx in range(len(cutoffs) - 1):
        restrict = lt_restriction(
            cf.complex, TStructure(cutoffs[idx + 1]), TStructure(cutoffs[idx])
        )
        maps.append(_fiber_descend(fibers[idx], fibers[idx + 1], restrict))
    maps.append(fibers[-1].to_source)
    objects = [x] + [fb.complex for fb in fibers] + [y]
    stages = tuple(
        _certify(m, hi - 1 - k) for k, m in enumerate(maps)
    )
    composite = maps[0]
    for m in maps[1:]:
        composite = compose(m, composite)
    return Tower(tuple(objects), stages, Homotopy(composite, f, {}), window)


def verify_tower(f: ChainMap, tower: Tower) -> bool:
    """Re-check every claim a tower makes about f, from scratch."""
    if not tower.stages or len(tower.objects) != len(tower.stages) + 1:
        return False
    if tower.objects[0] != f.source or tower.objects[-1] != f.target:
        return False
    for k, stage in enumerate(tower.stages):
        if stage.map.source != tower.objects[k]:
            return False
        if stage.map.target != tower.objects[k + 1]:
            return False
    composite = tower.stages[0].map
    for stage in tower.stages[1:]:
        composite = compose(stage.map, composite)
    if homotopic(composite, f) is None:
        return False
    window = boundedness_window(f)
    if tower.window != window:
        return False
    if window is None:
        only = tower.stages[0]
        return (
            len(tower.stages) == 1
            and only.degree is None
            and is_quasi_iso(only.map)
        )
    degrees = [stage.degree for stage in tower.stages]
    if sorted(degrees) != list(range(window.lo, window.hi)):
        return False
    for stage in tower.stages:
        if not stage.fiber_in_heart:
            return False
        if any(k != stage.degree for k in _fiber_support(stage.map)):
            return False
    return True
