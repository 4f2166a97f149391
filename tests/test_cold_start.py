"""A command that solves under the dense cap never loads ARPACK.

scipy.sparse.linalg (and scipy.linalg, which it imports) is loaded by
classify._eigsh alone, the one iterative solve; the pattern blocks of a
path are labelled with numpy, not scipy.sparse.csgraph, whose package
imports scipy.sparse.linalg. The check runs in a fresh interpreter, so
nothing the test suite imported can hide a load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import stoqmap
from stoqmap import (
    LocalHamiltonian,
    QuantumCircuit,
    SatInstance,
    build_Hc,
    cnot,
    random_instance,
    rot,
    save_circuit,
    save_hamiltonian,
    save_sat_instance,
)

HEAVY = ("scipy.sparse.linalg", "scipy.linalg", "scipy.sparse.csgraph")

SCRIPT = """
import json, sys
from stoqmap.cli import run_command

heavy, under_cap, above_cap = json.loads(sys.argv[1])
codes = [run_command(argv) for argv in under_cap]
loaded = [name for name in heavy if name in sys.modules]
code = run_command(above_cap)
print(json.dumps({"codes": codes, "loaded": loaded, "above_cap": code, "arpack": heavy[0] in sys.modules}))
"""


def test_under_cap_commands_load_no_arpack(tmp_path):
    save_hamiltonian(random_instance(3, seed=4), str(tmp_path / "h.json"))
    save_hamiltonian(build_Hc(2, 3), str(tmp_path / "hc.json"))
    save_circuit(QuantumCircuit(2, (rot(0, 0.4), cnot(0, 1), rot(1, 0.9))), str(tmp_path / "c.json"))
    proj = LocalHamiltonian.from_signed(1, [(0.5, {}), (-0.5, {0: "Z"})])
    save_sat_instance(SatInstance.from_paulis([proj], epsilon=1.0), str(tmp_path / "sat.json"))
    under_cap = [
        ["ham", "spectrum", "h.json"],
        ["map", "stoquastic", "h.json"],
        ["clock", "build", "c.json"],
        ["clock", "gap-scan", "--Lmin", "1", "--Lmax", "3"],
        ["adiabatic", "run", "c.json", "--T", "8", "--steps", "16", "--shots", "64"],
        ["protocol", "excited", "hc.json", "--c", "2", "--a", "-0.4", "--b", "0.1"],
        ["sat", "decide", "sat.json"],
    ]
    under_cap = [argv + ["--out", f"r{i}.out"] for i, argv in enumerate(under_cap)]
    above_cap = ["ham", "spectrum", "h.json", "--dense-cap", "4", "--out", "arpack.json"]  # dim 8 > 4
    src = str(Path(stoqmap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps([HEAVY, under_cap, above_cap])], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["codes"] == [0] * len(under_cap)
    assert got["loaded"] == []
    assert got["above_cap"] == 0 and got["arpack"]
    with open(tmp_path / "arpack.json", encoding="utf-8") as fh:
        assert json.load(fh)["results"]["spectral_report"]["method"] == "iterative"
