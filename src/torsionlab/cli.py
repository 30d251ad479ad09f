"""Command-line surface: run the verification suite, or apply one
operation to a named object in a document and emit the result."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from .document import DocumentError, _dumps, _load_json, document_of, document_tree
from .document import parse_document, serialize_document
from .factorization import factor, normality_report
from .postnikov import postnikov_tower, verify_tower
from .suite import (
    SuiteConfig,
    render_tree,
    report_json,
    report_text,
    run_suite,
)
from .tstruct import TStructure, truncate_ge, truncate_lt


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _pick(table: dict, name: str, kind: str):
    if name not in table:
        known = ", ".join(sorted(table)) or "none"
        raise DocumentError(f"no {kind} named {name!r} in the document (have: {known})")
    return table[name]


def _cmd_verify(args) -> int:
    if args.config:
        config = SuiteConfig.from_tree(_load_json(_read(args.config), "config"))
    else:
        config = SuiteConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.cases is not None:
        overrides["cases"] = args.cases
    if args.prime is not None:
        overrides["primes"] = (args.prime,)
    if args.quiver is not None:
        overrides["quivers"] = (args.quiver,)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    report = run_suite(config)
    sys.stdout.write(report_json(report) if args.json else report_text(report))
    return 0 if report.ok else 1


def _cmd_factor(args) -> int:
    doc = parse_document(_read(args.document))
    f = _pick(doc.maps, args.map, "map")
    fac = factor(f, TStructure(args.shift))
    out = document_of(doc.quiver, doc.field, maps={"e": fac.e, "m": fac.m})
    sys.stdout.write(serialize_document(out))
    return 0


def _cmd_truncate(args) -> int:
    doc = parse_document(_read(args.document))
    x = _pick(doc.complexes, args.object, "complex")
    t = TStructure(args.at)
    if args.side == "ge":
        part, structural = truncate_ge(x, t)
        maps = {"into": structural}
    else:
        part, structural = truncate_lt(x, t)
        maps = {"onto": structural}
    out = document_of(
        doc.quiver, doc.field, complexes={args.object: x, "truncation": part}, maps=maps
    )
    sys.stdout.write(serialize_document(out))
    return 0


def _cmd_postnikov(args) -> int:
    doc = parse_document(_read(args.document))
    f = _pick(doc.maps, args.map, "map")
    tower = postnikov_tower(f)
    stages = {f"stage{i}": s.map for i, s in enumerate(tower.stages)}
    out = document_of(doc.quiver, doc.field, maps=stages)
    win = tower.window
    wrapper = {
        "document": document_tree(out),
        "window": None if win is None else [win.lo, win.hi],
        "degrees": [s.degree for s in tower.stages],
        "verified": verify_tower(f, tower),
    }
    sys.stdout.write(_dumps(wrapper))
    return 0 if wrapper["verified"] else 1


def _cmd_normality(args) -> int:
    doc = parse_document(_read(args.document))
    x = _pick(doc.complexes, args.object, "complex")
    report = normality_report(x, TStructure(args.shift))
    tree = dataclasses.asdict(report)
    tree["all_hold"] = report.all_hold()
    sys.stdout.write(_dumps(tree))
    return 0 if report.all_hold() else 1


def _cmd_report(args) -> int:
    tree = _load_json(_read(args.infile), "report")
    sys.stdout.write(render_tree(tree, args.format))
    return 0 if tree.get("ok") else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsionlab",
        description="truncation-driven factorization workbench over prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the seeded property suite")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--cases", type=int)
    p.add_argument("--prime", type=int, help="restrict to a single prime")
    p.add_argument(
        "--quiver", help="restrict to one quiver: point, a2, a3, kronecker, d4 or a JSON file"
    )
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("factor", help="factor a named map through its middle object")
    p.add_argument("document")
    p.add_argument("--map", required=True)
    p.add_argument("--shift", type=int, default=0, help="truncation cutoff")
    p.set_defaults(run=_cmd_factor)

    p = sub.add_parser("truncate", help="truncate a named complex at a cutoff")
    p.add_argument("document")
    p.add_argument("--object", required=True)
    p.add_argument("--at", type=int, required=True)
    p.add_argument("--side", choices=("ge", "lt"), required=True)
    p.set_defaults(run=_cmd_truncate)

    p = sub.add_parser("postnikov", help="build and check the stage tower of a map")
    p.add_argument("document")
    p.add_argument("--map", required=True)
    p.set_defaults(run=_cmd_postnikov)

    p = sub.add_parser("normality", help="evaluate the six normality conditions")
    p.add_argument("document")
    p.add_argument("--object", required=True)
    p.add_argument("--shift", type=int, default=0, help="truncation cutoff")
    p.set_defaults(run=_cmd_normality)

    p = sub.add_parser("report", help="re-render a saved JSON report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every call of main shares, built on the first call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (DocumentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
