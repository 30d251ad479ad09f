"""scripts/case_pairs.py: a checkout against itself gives the same outcome
on every case and exits 0; a change that makes a case fail is named and
exits 1."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "case_pairs.py"
TINY = {"cases": 2, "max_dim": 2, "window": [-1, 1], "primes": [2], "quivers": ["a2"]}


def run(parent: Path, change: Path, config: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(SCRIPT), str(parent), str(change), "--rounds", "2",
           "--config", str(config)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300)


def test_the_repo_against_itself_has_identical_outcomes(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    got = run(ROOT, ROOT, config)
    assert got.returncode == 0, got.stdout + got.stderr
    lines = got.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["parent", "change", "ratio change / parent"]
    assert "differs" not in got.stdout


def test_a_case_whose_outcome_moves_is_named_and_fails_the_run(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    change = tmp_path / "change"
    shutil.copytree(ROOT / "src" / "torsionlab", change / "src" / "torsionlab")
    suite = change / "src" / "torsionlab" / "suite.py"
    text = suite.read_text()
    draw = "def _case_pullout(rng, fld, quiver, t, config, case):\n" + (
        "    x, y, f = _draw_map(rng, fld, quiver, config)\n"
    )
    assert draw in text
    suite.write_text(text.replace(draw, draw + '    raise _Fail("moved", maps={"f": f})\n'))
    got = run(ROOT, change, config)
    assert got.returncode == 1
    assert "outcome differs: pullout-agreement case 0" in got.stdout
    assert "outcome differs: pullout-agreement case 1" in got.stdout
