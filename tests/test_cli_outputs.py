"""Every subcommand writes the report recorded in tests/cli_outputs/<name>.

One under-cap run of each command on small seeded inputs (at most 4
qubits, a 2-qubit 3-gate circuit, a one-projector SAT instance), all in
one fresh interpreter with relative paths and OPENBLAS_NUM_THREADS=1, as
a reader would run them. A refactor that keeps the reports must keep
these files byte for byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

OUTPUTS = Path(__file__).resolve().parent / "cli_outputs"

# (recorded file, argv without --out, exit code)
CASES = [
    ("ham_check.json", ["ham", "check", "h.json"], 0),
    ("ham_spectrum.json", ["ham", "spectrum", "h.json"], 0),
    ("ham_spectrum_stochastic.json", ["ham", "spectrum", "stochastic.json"], 0),
    ("map_stoquastic.json", ["map", "stoquastic", "h.json"], 0),
    ("map_stochastic.json", ["map", "stochastic", "h.json", "--p", "0.25"], 0),
    ("map_stochastic_p0.json", ["map", "stochastic", "h.json", "--p", "0"], 0),
    ("map_complex.json", ["map", "complex", "hy.json", "--p", "0.2"], 0),
    ("map_complex_p0.json", ["map", "complex", "hy.json", "--p", "0"], 0),
    ("clock_build.json", ["clock", "build", "c.json"], 0),
    ("clock_gap_scan.csv", ["clock", "gap-scan", "--Lmin", "1", "--Lmax", "4", "--s-samples", "2"], 0),
    ("adiabatic_run.json", ["adiabatic", "run", "c.json", "--T", "8", "--steps", "16", "--shots", "64",
                            "--seed", "7"], 0),
    ("protocol_excited.json", ["protocol", "excited", "hc.json", "--c", "2", "--a", "-0.4", "--b", "0.1"], 0),
    ("sat_decide.json", ["sat", "decide", "sat.json"], 0),
    ("sat_reduce.json", ["sat", "reduce", "sat.json"], 0),
]

SCRIPT = """
import json, sys
from stoqmap.cli import run_command

print(json.dumps([run_command(argv) for argv in json.loads(sys.argv[1])]))
"""


def write_inputs(where: Path) -> None:
    save_hamiltonian(random_instance(3, seed=5), str(where / "h.json"))
    save_hamiltonian(random_instance(2, seed=3, include_y=True), str(where / "hy.json"))
    # (1 + X0 X1)/2: symmetric and doubly stochastic, so the report reads the Perron fields
    save_hamiltonian(LocalHamiltonian.from_signed(2, [(0.5, {}), (0.5, {0: "X", 1: "X"})]),
                     str(where / "stochastic.json"))
    save_hamiltonian(build_Hc(2, 3), str(where / "hc.json"))
    save_circuit(QuantumCircuit(2, (rot(0, 0.4), cnot(0, 1), rot(1, 0.9))), str(where / "c.json"))
    proj = LocalHamiltonian.from_signed(1, [(0.5, {}), (-0.5, {0: "Z"})])
    save_sat_instance(SatInstance.from_paulis([proj], epsilon=1.0), str(where / "sat.json"))


def run_all(where: Path) -> dict[str, tuple[int, str]]:
    """{recorded file: (exit code, report text)} of every case, run in one fresh interpreter in where."""
    write_inputs(where)
    argvs = [argv + ["--out", name] for name, argv, _ in CASES]
    src = str(Path(stoqmap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)], cwd=where, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    codes = json.loads(run.stdout)
    return {name: (code, (where / name).read_text(encoding="utf-8")) for (name, _, _), code in zip(CASES, codes)}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("cli"))


def test_every_case_has_a_recorded_output():
    assert sorted(p.name for p in OUTPUTS.iterdir()) == sorted(name for name, _, _ in CASES)


@pytest.mark.parametrize("name,code", [(name, code) for name, _, code in CASES], ids=[c[0] for c in CASES])
def test_command_writes_its_recorded_report(outputs, name, code):
    got_code, text = outputs[name]
    assert got_code == code
    assert text == (OUTPUTS / name).read_text(encoding="utf-8")
