"""The bytes the command line writes, pinned: one sha256 over argv, exit
status, stdout and stderr of every document command on seeded a2 documents
and on documents that break the d-squared, intertwiner and chain-map laws.
A refactor below the command surface must leave this digest unchanged."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from torsionlab.cli import main
from torsionlab.complexes import random_chain_map, random_complex
from torsionlab.document import document_of, serialize_document
from torsionlab.linalg import PrimeField
from torsionlab.quiver import Quiver

CLI_DIGEST = "0693a420351cdd558e0e28c0f250dda5c1331ad3381c45b2456368635389ac62"

COMMANDS = (
    ["factor", "--map", "f", "--shift", "-1"],
    ["factor", "--map", "f", "--shift", "0"],
    ["factor", "--map", "f", "--shift", "1"],
    ["truncate", "--object", "x", "--at", "0", "--side", "ge"],
    ["truncate", "--object", "x", "--at", "0", "--side", "lt"],
    ["normality", "--object", "x", "--shift", "0"],
    ["postnikov", "--map", "f"],
)

_A2 = {"vertices": ["a", "b"], "arrows": [["a", "b"]]}


def _seeded_documents() -> dict[str, str]:
    quiver = Quiver.a2()
    docs = {}
    for p in (2, 3):
        fld = PrimeField(p)
        for seed in range(6):
            rng = np.random.default_rng([p, seed])
            x = random_complex(quiver, fld, rng, max_dim=2, lo=-2, hi=2)
            y = random_complex(quiver, fld, rng, max_dim=2, lo=-2, hi=2)
            f = random_chain_map(x, y, rng)
            doc = document_of(quiver, fld, complexes={"x": x, "y": y}, maps={"f": f})
            docs[f"a2-F{p}-{seed}"] = serialize_document(doc)
    return docs


def _rejected_documents() -> dict[str, str]:
    line = {"dims": [1, 1], "arrows": [[[1]]]}
    slack = {"dims": [1, 1], "arrows": [[[0]]]}
    one = [[[1]], [[1]]]
    zero = [[[0]], [[0]]]
    bodies = {
        "d-squared": {
            "reps": {"line": line},
            "complexes": {"x": {"lo": 0, "terms": ["line"] * 3, "diffs": [one, one]}},
        },
        "intertwiner": {
            "reps": {"line": line, "slack": slack},
            "complexes": {"x": {"lo": 0, "terms": ["slack", "line"], "diffs": [one]}},
        },
        "chain-map": {
            "reps": {"line": line},
            "complexes": {
                "x": {"lo": 0, "terms": ["line", "line"], "diffs": [one]},
                "y": {"lo": 0, "terms": ["line", "line"], "diffs": [zero]},
            },
            "maps": {"f": {"source": "x", "target": "y", "components": {"0": one, "1": one}}},
        },
    }
    return {
        f"reject-{law}": json.dumps({"format_version": 1, "prime": 3, "quiver": _A2, **body})
        for law, body in bodies.items()
    }


def test_cli_output_bytes_are_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    for name, text in {**_seeded_documents(), **_rejected_documents()}.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        for command in COMMANDS:
            argv = [command[0], str(path), *command[1:]]
            status = main(argv)
            captured = capsys.readouterr()
            record = [[command[0], name, *command[1:]], status, captured.out, captured.err]
            digest.update(json.dumps(record).encode() + b"\n")
    assert digest.hexdigest() == CLI_DIGEST
