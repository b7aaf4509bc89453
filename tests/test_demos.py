"""The worked examples print exactly what they printed when recorded.

Each `demos/*.py` script and `symalg demo` run in a fresh interpreter; their
stdout must equal the golden file under `tests/golden/` byte for byte.  A
change that shifts a printed coefficient, basis order or verdict fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _stdout(args) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    return run.stdout


@pytest.mark.hash_order
@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_matches_golden(demo):
    assert _stdout([str(demo)]) == (GOLDEN / f"{demo.stem}.txt").read_bytes()


@pytest.mark.hash_order
def test_symalg_demo_stdout_matches_golden():
    assert _stdout(["-m", "symalg.cli", "demo"]) == (GOLDEN / "symalg_demo.txt").read_bytes()
