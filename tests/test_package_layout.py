"""Each cap, tolerance and shared helper is defined in exactly one module,
no default restates DEFAULT_TOL, each CLI command runs the handler its parser declares,
every dense eigensolve goes through one function, and so does every
iterative eigensolve, every JSON write, every open of a file for writing,
every canonicalization of a sparse matrix and every sum of sparse terms.
Pauli strings are realized and decomposed from the packed form, never one
Kronecker product at a time, and local matrices are embedded from their
dense nonzeros, never through a scipy COO object per term."""

import argparse
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stoqmap"
SINGLE = ("DEFAULT_TOL", "DENSE_CAP", "DENSE_DIFF_DIM", "DEGENERACY_TOL", "FF_PSD_FLOOR", "HERMITIAN_TOL", "KERNEL_PSD_FLOOR",
          "MAX_QUBITS", "PAULI_DROP_TOL", "PAULI_IMAG_TOL", "_as_csr", "_eigh", "_eigsh", "_factor_masks",
          "_is_hermitian", "_max_abs", "_scatter_sum", "_skew", "_term_phases")
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
# scipy's compiled COO -> CSR kernels run only in the one term sum, and only pauli imports them.
KERNEL_HOMES = {name: "pauli._sum_terms" for name in (
    "coo_tocsr", "csr_has_canonical_format", "csr_has_sorted_indices", "csr_sort_indices", "csr_sum_duplicates",
    "csr_eliminate_zeros")} | {"_sparsetools": "pauli"}
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
            out += [(owner, part) for part in (child.module or "").split(".") if part in names]
        elif isinstance(child, ast.Import):
            out += [(owner, part) for a in child.names for part in a.name.split(".") if part in names]
        _uses(child, inner, names, out)


def _check_homes(homes):
    uses = []
    for path in sorted(SRC.glob("*.py")):
        _uses(ast.parse(path.read_text(encoding="utf-8")), path.stem, homes, uses)
    stray = [(owner, name) for owner, name in uses if owner != homes[name]]
    assert not stray, stray
    assert {owner for owner, _ in uses} == set(homes.values())


# os.open flags that open a file for writing.
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _is_os_open(node) -> bool:
    func = getattr(node, "func", None)
    return isinstance(func, ast.Attribute) and func.attr == "open" and getattr(func.value, "id", None) == "os"


def _write_open(call):
    """(how, truncates) when call opens a file for writing, else None. An os.open without flags, or an open
    whose mode is no string literal, counts as writing; a "w" open truncates unless it wraps an os.open."""
    if _is_os_open(call):
        flags = {node.attr for arg in call.args[1:2] for node in ast.walk(arg) if isinstance(node, ast.Attribute)}
        return (ast.unparse(call), "O_TRUNC" in flags) if flags & WRITE_FLAGS or not flags else None
    if getattr(call.func, "id", getattr(call.func, "attr", None)) != "open":
        return None
    mode = call.args[1] if call.args[1:] else next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None or (isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+")):
        return None
    return ast.unparse(call), "w" in str(getattr(mode, "value", "w")) and not _is_os_open(call.args[0])


def _write_opens(node, owner, out):
    """(enclosing module.function, how, truncates) for every call in node that opens a file for writing."""
    for child in ast.iter_child_nodes(node):
        inner = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{owner.split('.')[0]}.{child.name}"
        elif isinstance(child, ast.Call) and (found := _write_open(child)) is not None:
            out.append((owner, *found))
        _write_opens(child, inner, out)


def test_files_are_opened_for_writing_only_by_the_one_writer_and_never_truncated_on_open():
    """Any writer added later goes through io.write_text, which overwrites in place (see its docstring)."""
    opens = []
    for path in sorted(SRC.glob("*.py")):
        _write_opens(ast.parse(path.read_text(encoding="utf-8")), path.stem, opens)
    assert {owner for owner, _, _ in opens} == {"io.write_text"}, opens
    assert not [how for _, how, truncates in opens if truncates], opens


def test_dense_eigensolvers_called_only_inside_their_gate():
    _check_homes(SOLVER_HOMES)


def test_json_written_only_by_the_one_writer():
    _check_homes(WRITER_HOMES)


def test_sparse_matrices_canonicalized_only_by_as_csr():
    _check_homes(CANONICAL_HOMES)


def test_sparse_kernels_run_only_in_the_term_sum():
    _check_homes(KERNEL_HOMES)


def test_term_sum_kernels_are_the_ones_scipys_constructor_calls():
    """A scipy release that moves or replaces one of them fails here, not in a changed sum."""
    from scipy.sparse import _compressed, _coo, _sparsetools

    assert _sparsetools.coo_tocsr is _coo.coo_tocsr
    for name in KERNEL_HOMES.keys() - {"coo_tocsr", "_sparsetools"}:
        assert getattr(_sparsetools, name) is getattr(_compressed, name), name


def test_no_coo_triplets_handed_to_a_sparse_constructor_in_src():
    """No (vals, (rows, cols)) argument: every such sum goes through pauli._sum_terms."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Tuple)
             and len(node.args[0].elts) == 2 and isinstance(node.args[0].elts[1], ast.Tuple)]
    assert not found, found


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


def test_no_default_is_a_bare_tolerance_literal():
    """Every 1e-10 default (of a function, or an argparse default=) is DEFAULT_TOL, which pauli.py defines."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.arguments):
                defaults = [*node.defaults, *node.kw_defaults]
            elif isinstance(node, ast.keyword) and node.arg == "default":
                defaults = [node.value]
            else:
                continue
            found += [f"{path.name}:{d.lineno}" for d in defaults
                      if isinstance(d, ast.Constant) and type(d.value) is float and d.value == 1e-10]
    assert not found, found
    assert "DEFAULT_TOL" in set(_defined_names(ast.parse((SRC / "pauli.py").read_text(encoding="utf-8"))))


def _leaf_parsers(parser, path=()):
    """(subcommand path, parser) for every parser of the CLI that declares no further subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, (*path, name))


def test_commands_run_the_handler_their_parser_declares():
    """run_command names no subcommand or action; each leaf's parsed arguments carry their handler as run."""
    from stoqmap import cli

    parser = cli._build_parser()
    leaves = list(_leaf_parsers(parser))
    assert len(leaves) == 11
    run = next(node for node in ast.walk(ast.parse((SRC / "cli.py").read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef) and node.name == "run_command")
    strings = {node.value for node in ast.walk(run) if isinstance(node, ast.Constant)}
    attributes = {node.attr for node in ast.walk(run) if isinstance(node, ast.Attribute)}
    assert not strings & {name for path, _ in leaves for name in path}
    assert not attributes & {"command", "action"}
    for path, leaf in leaves:
        argv = list(path)
        for action in leaf._actions:  # a placeholder for each required argument: parsing is all this checks
            if not action.option_strings:
                argv.append("1")
            elif action.required:
                argv += [action.option_strings[0], "1"]
        handler = parser.parse_args(argv).run
        assert handler.__module__ == "stoqmap.cli" and handler.__name__.startswith("_cmd_"), path


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
