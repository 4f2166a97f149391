"""Each cap, tolerance and shared helper is defined in exactly one module,
and every dense eigensolve goes through one function."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stoqmap"
SINGLE = ("DENSE_CAP", "DEGENERACY_TOL", "HERMITIAN_TOL", "MAX_QUBITS", "_as_csr", "_eigh", "_is_hermitian")
# Each dense LAPACK eigensolver may be named only inside its one gate (module.function).
SOLVER_HOMES = {
    "eigh": "classify._eigh",
    "eigvalsh": "classify._eigh",
    "eig": "spectra.eig_dense",
    "eigvals": "spectra.eig_dense",
}


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


def _solver_uses(node, owner, out):
    """(enclosing module.function, solver) for every attribute or import naming a solver."""
    for child in ast.iter_child_nodes(node):
        inner = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{owner.split('.')[0]}.{child.name}"
        elif isinstance(child, ast.Attribute) and child.attr in SOLVER_HOMES:
            out.append((owner, child.attr))
        elif isinstance(child, ast.ImportFrom):
            out += [(owner, a.name) for a in child.names if a.name in SOLVER_HOMES]
        _solver_uses(child, inner, out)


def test_dense_eigensolvers_called_only_inside_their_gate():
    uses = []
    for path in sorted(SRC.glob("*.py")):
        _solver_uses(ast.parse(path.read_text(encoding="utf-8")), path.stem, uses)
    stray = [(owner, name) for owner, name in uses if owner != SOLVER_HOMES[name]]
    assert not stray, stray
    assert {owner for owner, _ in uses} == set(SOLVER_HOMES.values())
