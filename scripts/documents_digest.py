#!/usr/bin/env python3
"""One sha256 over a seeded round of the benchmark's `documents` workload.

Builds the `documents` workload of CHECKOUT/perfbench/workloads.py for
--seed, with the torsionlab package of CHECKOUT/src, runs its operations
once through torsionlab.cli.main and hashes argv, exit status, stdout and
stderr of each.  The temporary directory that holds the documents is
written as WORKDIR wherever it appears, so two checkouts of the same code
print the same digest: comparing the digests of a parent and a change
checks that all the round's outputs are byte-identical.  An exception that
escapes main is recorded by its type in place of the status.  The workload
file is read, never changed, and the operations' checkers are not run.

Usage: python3 scripts/documents_digest.py CHECKOUT [--seed S]
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def record(argv: list[str], status, out: str, err: str, workdir: str) -> bytes:
    """One operation's line of the digest, with workdir written as WORKDIR."""
    line = json.dumps([argv, status, out, err])
    return line.replace(json.dumps(workdir)[1:-1], "WORKDIR").encode("utf-8") + b"\n"


def documents_digest(checkout: Path, seed: int) -> str:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import torsionlab
    import torsionlab.cli
    from workloads import Documents

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="documents-digest-") as work:
        workload = Documents(torsionlab, seed, Path(work))
        for _, argv, _ in workload.ops:
            out, err = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    status = torsionlab.cli.main(argv)
            except Exception as exc:  # a traceback escaping the CLI
                status = f"raised {type(exc).__name__}"
            digest.update(record(argv, status, out.getvalue(), err.getvalue(), work))
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    print(documents_digest(args.checkout.resolve(), args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
