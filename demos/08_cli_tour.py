"""Drive the command-line interface end to end from Python.

Everything the library does is reachable through the `stoqmap` console
script; reports are deterministic JSON (sorted keys, no timestamps) so
runs are byte-for-byte reproducible.
"""

import json
import tempfile
from pathlib import Path

from stoqmap import (
    QuantumCircuit,
    random_instance,
    rot,
    run_command,
    save_circuit,
    save_hamiltonian,
)

with tempfile.TemporaryDirectory(prefix="stoqmap-demo-") as name:
    tmp = Path(name)
    ham_file = tmp / "h.json"
    circuit_file = tmp / "c.json"
    save_hamiltonian(random_instance(2, seed=4), str(ham_file))
    save_circuit(QuantumCircuit(1, (rot(0, 0.4), rot(0, 0.2))), str(circuit_file))

    invocations = [
        ["ham", "check", str(ham_file)],
        ["map", "stochastic", str(ham_file), "--p", "0.25"],
        ["clock", "build", str(circuit_file), "--s", "0.5"],
        ["clock", "gap-scan", "--Lmin", "1", "--Lmax", "3"],
        ["adiabatic", "run", str(circuit_file), "--T", "32", "--steps", "64", "--shots", "256"],
    ]

    for argv in invocations:
        out = tmp / "report.out"
        code = run_command(argv + ["--out", str(out)])
        line = f"stoqmap {' '.join(argv)}"
        print(f"$ {line}\n  exit {code}", end="")
        text = out.read_text(encoding="utf-8")
        if argv[1] == "gap-scan":
            print(f", CSV with {len(text.splitlines()) - 1} rows")
        else:
            report = json.loads(text)
            checks = {c["name"]: c["passed"] for c in report.get("checks", [])}
            print(f", checks: {checks}")
        print()
