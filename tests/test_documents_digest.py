"""scripts/documents_digest.py: one sha256 over a seeded documents round,
the same from run to run although each run writes its documents to a new
temporary directory."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "documents_digest.py"
spec = importlib.util.spec_from_file_location("documents_digest", SCRIPT)
documents_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(documents_digest)


def test_a_record_writes_the_temporary_directory_as_workdir():
    work = "/tmp/documents-digest-x1"
    line = documents_digest.record(
        ["factor", f"{work}/doc0.json"], 1, "", f"error: {work}/doc0.json: no map", work
    )
    assert work not in line.decode()
    assert json.loads(line) == [
        ["factor", "WORKDIR/doc0.json"], 1, "", "error: WORKDIR/doc0.json: no map"
    ]


def test_two_runs_of_a_seed_print_one_and_the_same_digest():
    def run(seed):
        cmd = [sys.executable, str(SCRIPT), str(ROOT), "--seed", str(seed)]
        return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout

    first = run(3)
    assert re.fullmatch(r"[0-9a-f]{64}\n", first)
    assert run(3) == first
