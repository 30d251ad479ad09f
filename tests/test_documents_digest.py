"""scripts/documents_digest.py: one sha256 over a seeded documents round,
the same from run to run although each run writes its documents to a new
temporary directory, and the same as recorded for seeds 0, 7 and 123, so
every output of those rounds stays byte-identical."""

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


def run(seed):
    """The script's output for seed, run on this checkout in a new process."""
    cmd = [sys.executable, str(SCRIPT), str(ROOT), "--seed", str(seed)]
    return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout


def test_two_runs_of_a_seed_print_one_and_the_same_digest():
    first = run(3)
    assert re.fullmatch(r"[0-9a-f]{64}\n", first)
    assert run(3) == first


# sha256 of a seeded documents round, recorded when the round's outputs were
# last meant to change; a change to any output of the round moves its digest
RECORDED = {
    0: "bdc4603452449446292007738cc3ad037f92399791aaeed3995d378e4822ea9a",
    7: "3c539b384956b177e2d43f981eec10a4491279fea98a20927d018c0e6b2a93e3",
    123: "5f67d829c065ad831702e06e5abbf878b7ddb753d2a0e75992cc2bcbd85c9d7d",
}


def test_seeded_rounds_print_the_recorded_digests():
    for seed, digest in RECORDED.items():
        assert run(seed) == digest + "\n", seed
