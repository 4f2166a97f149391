"""Every demo prints the text recorded in tests/demo_outputs/<stem>.txt.

Each demo runs in its own interpreter, as a reader would run it. Demo 08
prints the temporary directory it writes its reports to and removes it
when done; the demos run with TMPDIR set to the test's own directory,
which must hold no such directory afterwards, and that name is replaced
by a fixed token before the comparison.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
OUTPUTS = Path(__file__).resolve().parent / "demo_outputs"
TOKEN = "<tmpdir>"


def demo_stdout(demo: Path, tmp_path: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", TMPDIR=str(tmp_path))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=tmp_path,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert not list(tmp_path.glob("stoqmap-demo-*"))  # a demo removes the directory it writes to
    return re.sub(re.escape(str(tmp_path)) + r"/stoqmap-demo-\w+", TOKEN, run.stdout)


def test_every_demo_has_a_recorded_output():
    assert len(DEMOS) == 8
    assert sorted(p.stem for p in OUTPUTS.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_prints_its_recorded_output(demo, tmp_path):
    assert demo_stdout(demo, tmp_path) == (OUTPUTS / f"{demo.stem}.txt").read_text(encoding="utf-8")
