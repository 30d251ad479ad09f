"""Per-layer tracing of torsionlab from outside the package.

A Tracer wraps every public function of the layer modules in every
torsionlab namespace that binds it (most modules import names directly, so
wrapping only the defining module would miss those calls).  Each call of a
wrapped function records a span: name, start, end and parent span.  Spans
stay in memory in flat arrays and are written out when the run ends.

The per-object constructors (Mat, RepMap, ChainMap, Complex) run hundreds
of thousands of times per round, so they are counted, not spanned; the
checked RepMap and ChainMap constructors also accumulate their time.
A layer's self time is its spans' duration minus the time its child spans
cover, so constructor time lands in the self time of the enclosing span.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
import types
from array import array

import numpy as np

LAYERS = (
    "linalg",
    "quiver",
    "complexes",
    "tstruct",
    "factorization",
    "postnikov",
    "document",
    "cli",
    "suite",
)

REDUCE = tuple(
    f"linalg.{n}"
    for n in ("rref", "rank", "kernel_basis", "image_basis", "solve", "inverse", "quotient")
)
TRUNCATE = (
    "tstruct.truncate_ge",
    "tstruct.truncate_lt",
    "tstruct.truncate_map_ge",
    "tstruct.truncate_map_lt",
)
MEMBERSHIP = ("factorization.in_E", "factorization.in_M")

# span-name groups whose self time is one per-layer metric
SELF_TIME = {
    "linalg.reduce.self_s": REDUCE,
    "quiver.direct_sum.self_s": ("quiver.direct_sum",),
    "quiver.subquotient.self_s": (
        "quiver.rep_kernel",
        "quiver.rep_cokernel",
        "quiver.quotient_rep",
    ),
    "complexes.biproduct.self_s": (
        "complexes.cone",
        "complexes.fib",
        "complexes.direct_sum_complex",
    ),
    "complexes.hom_complex.self_s": ("complexes.hom_complex",),
    "complexes.homology.self_s": (
        "complexes.homology_dims",
        "complexes.homology",
        "complexes.homology_data",
    ),
    "complexes.homotopy.self_s": ("complexes.Homotopy", "complexes.homotopic"),
    "complexes.pullout.self_s": (
        "complexes.is_pullout",
        "complexes.is_cartesian",
        "complexes.is_cocartesian",
        "complexes.homotopy_pullback",
        "complexes.homotopy_pushout",
    ),
    "tstruct.truncate.self_s": TRUNCATE,
    "tstruct.heart.self_s": tuple(
        f"tstruct.heart_{n}"
        for n in ("kernel", "cokernel", "image", "coimage", "comparison", "contains")
    ),
    "factorization.factor.self_s": ("factorization.factor",),
    "factorization.membership.self_s": MEMBERSHIP,
    "factorization.lifting.self_s": (
        "factorization.solve_lifting",
        "factorization.is_orthogonal",
    ),
    "factorization.normality.self_s": ("factorization.normality_report",),
    "postnikov.tower.self_s": ("postnikov.postnikov_tower",),
    "postnikov.verify.self_s": ("postnikov.verify_tower",),
    "document.parse.self_s": ("document.parse_document",),
    "document.serialize.self_s": ("document.serialize_document",),
    "cli.parser.self_s": ("cli.build_parser", "cli.parse_args"),
}

# span-name groups whose call count is one per-layer metric
CALLS = {
    "linalg.reduce.calls": REDUCE,
    "quiver.direct_sum.calls": ("quiver.direct_sum",),
    "tstruct.truncate.calls": TRUNCATE,
    "factorization.membership.calls": MEMBERSHIP,
    "postnikov.window.calls": ("postnikov.boundedness_window",),
}

# counters kept beside the spans
COUNTERS = (
    "linalg.mat.built",
    "linalg.matmul.calls",
    "linalg.reduce.cells",
    "quiver.repmap.checked",
    "quiver.repmap.checked_s",
    "quiver.repmap.zero",
    "complexes.complex.built",
    "complexes.chainmap.checked",
    "complexes.chainmap.checked_s",
    "document.parse.bytes",
    "document.serialize.bytes",
)


class Tracer:
    """Spans and counters for one process; install() and uninstall() may
    alternate, and the recorded data accumulates across installs."""

    def __init__(self, package: types.ModuleType):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.count = {name: 0 for name in COUNTERS}
        self.reduce_nonempty = 0
        self._patches = self._plan(package)

    # -- wrappers ---------------------------------------------------------------

    def _span(self, fn, name: str, before=None, after=None):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
            if after is not None:
                after(out)
            return out

        return wrapper

    def _counted(self, fn, key: str):
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, fn, key: str):
        count, key_s, clock = self.count, key + "_s", time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                count[key] += 1
                count[key_s] += clock() - t0

        return wrapper

    def _reduce_args(self, mat_type):
        def before(args):
            cells = sum(a.a.size for a in args if type(a) is mat_type)
            self.count["linalg.reduce.cells"] += cells
            if cells:
                self.reduce_nonempty += 1

        return before

    def _add_bytes(self, key: str, text: str) -> None:
        self.count[key] += len(text.encode("utf-8"))

    def _plan(self, package) -> list[tuple[object, str, object, object]]:
        prefix = package.__name__
        mods = {name: sys.modules[f"{prefix}.{name}"] for name in LAYERS}
        linalg, quiver, complexes = mods["linalg"], mods["quiver"], mods["complexes"]
        hooks = {name: {"before": self._reduce_args(linalg.Mat)} for name in REDUCE}
        hooks["document.parse_document"] = {
            "before": lambda args: self._add_bytes("document.parse.bytes", args[0])
        }
        hooks["document.serialize_document"] = {
            "after": lambda text: self._add_bytes("document.serialize.bytes", text)
        }

        wrappers = {}
        for layer, mod in mods.items():
            for attr, val in vars(mod).items():
                if (
                    isinstance(val, types.FunctionType)
                    and not attr.startswith("_")
                    and val.__module__ == mod.__name__
                ):
                    name = f"{layer}.{attr}"
                    wrappers[val] = self._span(val, name, **hooks.get(name, {}))
        patches = []
        for modname, mod in list(sys.modules.items()):
            if modname != prefix and not modname.startswith(prefix + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    patches.append((mod, attr, val, wrappers[val]))

        def method(cls, attr, make):
            orig = cls.__dict__[attr]
            patches.append((cls, attr, orig, make(orig)))

        method(linalg.Mat, "__init__", lambda f: self._counted(f, "linalg.mat.built"))
        method(linalg.Mat, "__matmul__", lambda f: self._counted(f, "linalg.matmul.calls"))
        method(quiver.RepMap, "__init__", lambda f: self._timed(f, "quiver.repmap.checked"))
        method(
            quiver.RepMap,
            "zero",
            lambda f: classmethod(self._counted(f.__func__, "quiver.repmap.zero")),
        )
        method(
            complexes.Complex, "__init__", lambda f: self._counted(f, "complexes.complex.built")
        )
        method(
            complexes.ChainMap, "__init__", lambda f: self._timed(f, "complexes.chainmap.checked")
        )
        method(complexes.Homotopy, "__init__", lambda f: self._span(f, "complexes.Homotopy"))
        method(argparse.ArgumentParser, "parse_args", lambda f: self._span(f, "cli.parse_args"))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------------

    def _arrays(self) -> dict[str, np.ndarray]:
        return {
            "span_name": np.array(self.span_name, dtype=np.int32),
            "span_parent": np.array(self.span_parent, dtype=np.int32),
            "span_start": np.array(self.span_start, dtype=np.float64),
            "span_end": np.array(self.span_end, dtype=np.float64),
        }

    def table(self) -> dict[str, dict[str, float]]:
        """Calls, total time and self time of every span name."""
        spans = self._arrays()
        name, parent = spans["span_name"], spans["span_parent"]
        dur = spans["span_end"] - spans["span_start"]
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        total = np.bincount(name, weights=dur, minlength=size)
        self_s = np.bincount(name, weights=dur - child, minlength=size)
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.names)
        }

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per traced round."""
        table = self.table()
        zero = {"calls": 0, "self_s": 0.0}
        out = {}
        for metric, group in SELF_TIME.items():
            out[metric] = sum(table.get(n, zero)["self_s"] for n in group) / rounds
        for metric, group in CALLS.items():
            out[metric] = sum(table.get(n, zero)["calls"] for n in group) / rounds
        for key, value in self.count.items():
            out[key] = value / rounds
        calls = out["linalg.reduce.calls"] * rounds
        out["linalg.reduce.nonempty_ratio"] = self.reduce_nonempty / calls if calls else 0.0
        return out

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self._arrays())
