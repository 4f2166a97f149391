"""Each cap, tolerance and shared helper is defined in exactly one module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stoqmap"
SINGLE = ("DENSE_CAP", "DEGENERACY_TOL", "MAX_QUBITS", "_as_csr")


def _defined_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def test_caps_and_helpers_defined_once():
    homes = {name: [] for name in SINGLE}
    stray_4096 = []
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in set(_defined_names(tree)) & set(SINGLE):
            homes[name].append(path.name)
        if path.name != "pauli.py":
            stray_4096 += [
                f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and type(node.value) is int and node.value == 4096
            ]
    assert all(len(where) == 1 for where in homes.values()), homes
    assert not stray_4096, stray_4096
