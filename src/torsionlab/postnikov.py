"""Towers interpolating a bounded morphism through its fiber's homology.

A morphism is bounded when the homology of its fiber lives in a finite
window [lo, hi).  Such a morphism factors into hi - lo stages whose fibers
are concentrated in single, pairwise distinct degrees: descend the cutoff
through the truncations of the cofiber and take the fiber of
Y -> (below-cutoff part of cone f), the pullback along 0 -> B, at each
step.  The top stage is the gap map of f into the deepest fiber, its
witness the cofiber's strict null-homotopy (the witness of the pushout
cone f) pushed through the deepest truncation; the bottom stage is the
fiber's projection back onto Y, and every intermediate stage is the map of
pullbacks (pullback_induced) along a restriction of truncations, so the
tower composes to f on the nose; verify_tower checks it, with no witness.

Construction runs in descending fiber degree (hi-1 down to lo); each stage
carries its degree label, and checkers treat the labels as a set, so the
emission order carries no contract weight.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    ChainMap,
    Complex,
    compose,
    cone,
    cone_homology_dims,
    fib,
    homotopic,
    identity_map,
    is_quasi_iso,
    pullback_induced,
    terminal_map,
)
from .tstruct import TStructure, lt_restriction, truncate_lt

__all__ = [
    "BoundWindow",
    "TowerStage",
    "Tower",
    "boundedness_window",
    "postnikov_tower",
    "verify_tower",
]

# the widest span of degrees that a map's source and target cover together;
# a tower builds one stage per degree of its fiber's window
MAX_SPAN = 64


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
    """One tower map and the one degree where its fiber has homology, a
    claim that verify_tower checks.

    degree is None only on the degenerate single-stage tower of a
    quasi-iso, where the fiber is acyclic and carries no degree.
    """

    map: ChainMap
    degree: int | None


@dataclass(frozen=True)
class Tower:
    """Stages from f.source to f.target that compose to f on the nose."""

    objects: tuple[Complex, ...]
    stages: tuple[TowerStage, ...]
    window: BoundWindow | None


def _fiber_support(f: ChainMap) -> list[int]:
    """The degrees where fib(f) has homology, read from the cone's ranks:
    fib(f) = cone(f)[-1], so H_k(fib f) = H_{k+1}(cone f)."""
    return [k - 1 for k, dims in cone_homology_dims(f).items() if any(dims)]


def boundedness_window(f: ChainMap) -> BoundWindow | None:
    """Minimal window containing the homology support of fib(f).

    Returns None when the fiber is acyclic, i.e. f is already invertible.
    Refuses, before any ranking, a map whose ends span more than MAX_SPAN.
    """
    ends = [n for c in (f.source, f.target) if not c.is_zero() for n in (c.lo, c.hi)]
    if ends and max(ends) - min(ends) > MAX_SPAN:
        raise ValueError(f"map spans {max(ends) - min(ends)} degrees, more than {MAX_SPAN}")
    supported = _fiber_support(f)
    if not supported:
        return None
    return BoundWindow(min(supported), max(supported) + 1)


def postnikov_tower(f: ChainMap) -> Tower:
    window = boundedness_window(f)
    x, y = f.source, f.target
    if window is None or window.width == 1:
        return Tower((x, y), (TowerStage(f, None if window is None else window.lo),), window)
    lo, hi = window.lo, window.hi
    cf = cone(f)
    cuts = [TStructure(hi).shifted(-k) for k in range(hi - lo - 1)]  # hi, ..., lo+2
    fibers = [fib(compose(truncate_lt(cf, t)[1], cf.inj_first)) for t in cuts]
    # top: push the cofiber's null-homotopy through the deepest truncation
    _, deepest = truncate_lt(cf, cuts[0])
    pushed = {m: deepest.comp(m + 1).compose(h) for m, h in cf.witness.comps.items()}
    maps = [fibers[0].gap_map(f, terminal_map(x), pushed)]
    same_y, same_zero = identity_map(y), identity_map(fibers[0].g.source)
    for idx in range(len(cuts) - 1):
        restrict = lt_restriction(cf, cuts[idx + 1], cuts[idx])
        maps.append(pullback_induced(fibers[idx], fibers[idx + 1], same_y, same_zero, restrict))
    maps.append(fibers[-1].proj_first)
    objects = [x, *fibers, y]
    stages = tuple(TowerStage(m, hi - 1 - k) for k, m in enumerate(maps))
    return Tower(tuple(objects), stages, window)


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
    # the window and degree labels first: they are cheaper than the composite
    window = boundedness_window(f)
    if tower.window != window:
        return False
    degrees = [stage.degree for stage in tower.stages]
    if window is None and degrees != [None]:
        return False
    if window is not None and sorted(degrees) != list(range(window.lo, window.hi)):
        return False
    composite = tower.stages[0].map
    for stage in tower.stages[1:]:
        composite = compose(stage.map, composite)
    if homotopic(composite, f) is None:
        return False
    if window is None:
        return is_quasi_iso(tower.stages[0].map)
    for stage in tower.stages:
        if any(k != stage.degree for k in _fiber_support(stage.map)):
            return False
    return True
