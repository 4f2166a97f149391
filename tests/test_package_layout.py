"""Each cap, tolerance and shared helper is defined in exactly one module,
every dense eigensolve goes through one function, and so does every
iterative eigensolve, every JSON write and every canonicalization of a sparse matrix.
Pauli strings are realized and decomposed from the packed form, never one
Kronecker product at a time, and local matrices are embedded from their
dense nonzeros, never through a scipy COO object per term."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stoqmap"
SINGLE = ("DENSE_CAP", "DEGENERACY_TOL", "FF_PSD_FLOOR", "HERMITIAN_TOL", "KERNEL_PSD_FLOOR", "MAX_QUBITS",
          "PAULI_DROP_TOL", "PAULI_IMAG_TOL", "_as_csr", "_eigh", "_eigsh", "_factor_masks", "_is_hermitian",
          "_scatter_sum", "_term_phases")
# Each LAPACK or ARPACK eigensolver may be named only inside its one gate (module.function).
SOLVER_HOMES = {
    "eigsh": "classify._eigsh",
    "eigh": "classify._eigh",
    "eigvalsh": "classify._eigh",
    "eig": "spectra.eig_dense",
    "eigvals": "spectra.eig_dense",
}
# json.dump and json.dumps may be named only inside the one writer.
WRITER_HOMES = {"dump": "io.report_to_json", "dumps": "io.report_to_json"}
# Duplicate sparse entries are summed only where every matrix is brought into canonical form.
CANONICAL_HOMES = {"sum_duplicates": "classify._as_csr"}
# Per-term or per-word loops the packed form replaced: (module, attribute) never named in these files.
PACKED_FILES = ("pauli.py", "mapping.py")
BANNED = {("np", "kron"), ("numpy", "kron"), ("itertools", "product")}


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


def _uses(node, owner, names, out):
    """(enclosing module.function, name) for every attribute or import naming one of names."""
    for child in ast.iter_child_nodes(node):
        inner = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{owner.split('.')[0]}.{child.name}"
        elif isinstance(child, ast.Attribute) and child.attr in names:
            out.append((owner, child.attr))
        elif isinstance(child, ast.ImportFrom):
            out += [(owner, a.name) for a in child.names if a.name in names]
        _uses(child, inner, names, out)


def _check_homes(homes):
    uses = []
    for path in sorted(SRC.glob("*.py")):
        _uses(ast.parse(path.read_text(encoding="utf-8")), path.stem, homes, uses)
    stray = [(owner, name) for owner, name in uses if owner != homes[name]]
    assert not stray, stray
    assert {owner for owner, _ in uses} == set(homes.values())


def test_dense_eigensolvers_called_only_inside_their_gate():
    _check_homes(SOLVER_HOMES)


def test_json_written_only_by_the_one_writer():
    _check_homes(WRITER_HOMES)


def test_sparse_matrices_canonicalized_only_by_as_csr():
    _check_homes(CANONICAL_HOMES)


def test_pauli_and_mapping_use_no_kron_or_product_loops():
    found = []
    for name in PACKED_FILES:
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if (node.value.id, node.attr) in BANNED:
                    found.append(f"{name}:{node.lineno} {node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "itertools"):
                found += [f"{name}:{node.lineno} from {node.module} import {a.name}"
                          for a in node.names if (node.module, a.name) in BANNED]
    assert not found, found


def test_cli_names_no_eigensolver_or_classifier():
    """Each command's spectrum is read in the library (spectra or clock), never in the CLI."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            named.update(alias.name for alias in node.names)
    assert not named & {"_eigh", "_eigsh", "_classify"}


def test_no_coo_matrix_named_in_src():
    found = [f"{path.name}:{number}" for path in sorted(SRC.glob("*.py"))
             for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
             if "coo_matrix" in line]
    assert not found, found
