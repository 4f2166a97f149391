"""Versioned JSON file formats and report serialization.

All formats carry version "1". Complex numbers are stored as [re, im]
pairs. Reports never include timing, so identical inputs and seeds
reproduce byte-identical output.
"""

from __future__ import annotations

import csv
import gc
import io as _io
import json
import math
import os
import re
import stat
import sys
from contextlib import suppress
from dataclasses import asdict
from itertools import chain
from typing import Any

import numpy as np
import scipy.sparse as sp

from .classify import _check_dense_cap
from .clock import GATE_NAMES, Gate, QuantumCircuit
from .errors import ContractError, ResourceError
from .pauli import DENSE_CAP, LocalHamiltonian, _check_qubits, build_matrix
from .protocols import SatInstance
from .spectra import SpectralReport

FORMAT_VERSION = "1"


def _require(cond: bool, where: str, msg: str):
    if not cond:
        raise ContractError(f"{where}: {msg}")


def _read_json(path: str):
    """Parsed contents of a JSON file, which must be UTF-8 text, each dense matrix converted by _dense_matrices."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_hook=_dense_matrices)
    except UnicodeDecodeError as exc:
        raise ContractError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None
    except ValueError as exc:  # an integer longer than Python's int-to-str digit limit
        raise ContractError(f"{path}: {exc}") from None


def _load(path: str, from_data):
    """from_data of the file at path, with the cyclic collector paused: parsed JSON holds no cycles to find."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return from_data(_read_json(path), where=path)
    finally:
        if enabled:
            gc.enable()


def _qubit_count(data: dict, where: str) -> int:
    """The "n" of a file object of this format version, checked after the version."""
    _require(isinstance(data, dict), where, "expected a JSON object")
    version = data.get("version")
    _require(version == FORMAT_VERSION, where, f"unsupported version {version!r}")
    n = data.get("n")
    _require(type(n) is int and n >= 1, where, f"bad qubit count {n!r}")
    return n


class _DenseMatrix:
    """A dense matrix as pairs, the (rows, cols, 2) float array of its [re, im] pairs, which report_to_json writes
    and json_to_matrix reads back as from a file. matrix_to_json and _dense_matrices make them; none is edited."""

    def __init__(self, pairs: np.ndarray):
        self.pairs = pairs

    def __eq__(self, other):  # equal to another dense matrix of equal pairs, or to the rows it is written as
        return self.pairs.tolist() == (other.pairs.tolist() if isinstance(other, _DenseMatrix) else other)


def matrix_to_json(M) -> _DenseMatrix:
    _check_dense_cap(max(np.shape(M)), DENSE_CAP)  # before toarray: a file matrix is read back densely
    dense = np.asarray(M.toarray() if sp.issparse(M) else M, dtype=complex)
    return _DenseMatrix(np.stack((dense.real, dense.imag), axis=-1))


def _file_pairs(rows, where: str) -> np.ndarray:
    """The (rows, cols, 2) float array of a file matrix's [re, im] pairs; null entries read as nan."""
    _require(isinstance(rows, list) and rows and all(isinstance(row, list) and row for row in rows),
             where, "matrix must be a nonempty list of nonempty rows")
    _check_dense_cap(max(len(rows), len(rows[0])), DENSE_CAP)  # before flattening anything
    _require(len({len(row) for row in rows}) == 1, where, "matrix rows differ in length")
    try:  # flat, so each entry's type is checked: numpy alone would read "1.5" and true as numbers
        cells = [*chain.from_iterable(rows)]
        entries = [*chain.from_iterable(cells)]
        numbers = {*map(len, cells)} == {2} and {int, float, type(None)}.issuperset(map(type, entries))
        pairs = np.array(entries, dtype=float).reshape(len(rows), -1, 2) if numbers else None
    except (TypeError, OverflowError):  # an entry that is no list, an integer too large for a float
        pairs = None
    _require(pairs is not None, where, "complex values are [re, im] pairs of numbers")
    return pairs


def _dense_matrices(obj: dict) -> dict:
    """json.load's object_hook: a "matrix" list that _file_pairs accepts becomes a _DenseMatrix as its object
    closes, so its lists are freed during the parse; one it refuses stays, for from_data to refuse in order."""
    if isinstance(obj.get("matrix"), list):
        with suppress(ContractError, ResourceError):
            obj["matrix"] = _DenseMatrix(_file_pairs(obj["matrix"], "matrix"))
    return obj


def json_to_matrix(rows, where: str) -> np.ndarray:
    pairs = rows.pairs.copy() if isinstance(rows, _DenseMatrix) else _file_pairs(rows, where)
    _require(bool(np.all(np.isfinite(pairs))), where, "matrix has non-finite or null entries")
    return pairs.view(complex)[..., 0] if pairs[..., 1].any() else pairs[..., 0]


# ---------------------------------------------------------------- hamiltonian

def hamiltonian_to_data(H: LocalHamiltonian) -> dict:
    terms = [{"coeff": coeff, "paulis": [{"qubit": q, "op": op} for q, op in factors]}
             for coeff, factors in H.signed_items()]
    return {"version": FORMAT_VERSION, "n": H.n, "terms": terms}


def _finite(value) -> bool:
    """True when value, already an int or float, is a finite float; a huge int overflows to no float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def hamiltonian_from_data(data: dict, where: str = "hamiltonian") -> LocalHamiltonian:
    n = _qubit_count(data, where)
    terms = data.get("terms", [])
    _require(isinstance(terms, list), where, "terms must be a list")
    items = []
    for i, term in enumerate(terms):
        if not isinstance(term, dict):
            raise _term_error(where, i, "expected an object")
        coeff = term.get("coeff")
        if type(coeff) not in (int, float):
            raise _term_error(where, i, f"bad coeff {coeff!r}")
        if not _finite(coeff):
            raise _term_error(where, i, "coeff is too large for a float" if type(coeff) is int
                              else f"non-finite coeff {coeff!r}")
        paulis = term.get("paulis", [])
        if not isinstance(paulis, list):
            raise _term_error(where, i, "paulis must be a list")
        factors = {}
        for j, pa in enumerate(paulis):
            if not isinstance(pa, dict):
                raise _term_error(where, i, "expected an object", j)
            q, op = pa.get("qubit"), pa.get("op")
            if not (type(q) is int and 0 <= q < n):
                raise _term_error(where, i, f"bad qubit {q!r}", j)
            if op not in ("X", "Y", "Z"):
                raise _term_error(where, i, f"bad op {op!r}", j)
            if q in factors:
                raise _term_error(where, i, f"duplicate qubit {q}", j)
            factors[q] = op
        items.append((coeff, factors))
    return LocalHamiltonian.from_signed(n, items)


def _term_error(where: str, i: int, msg: str, j: int | None = None) -> ContractError:
    """The error for term i, or its Pauli factor j; a load that passes formats no context."""
    ctx = f"{where}.terms[{i}]" if j is None else f"{where}.terms[{i}].paulis[{j}]"
    return ContractError(f"{ctx}: {msg}")


def load_hamiltonian(path: str) -> LocalHamiltonian:
    return _load(path, hamiltonian_from_data)


def save_hamiltonian(H: LocalHamiltonian, path: str) -> None:
    write_report(hamiltonian_to_data(H), path)


# -------------------------------------------------------------------- circuit

def circuit_to_data(circuit: QuantumCircuit) -> dict:
    gates = []
    for g in circuit.gates:
        entry: dict[str, Any] = {"name": g.name, "qubits": list(g.qubits)}
        if g.angle is not None:
            entry["angle"] = float(g.angle)
        if g.matrix is not None:
            entry["matrix"] = matrix_to_json(g.matrix)
        gates.append(entry)
    return {"version": FORMAT_VERSION, "n": circuit.n, "gates": gates}


def circuit_from_data(data: dict, where: str = "circuit") -> QuantumCircuit:
    n = _qubit_count(data, where)
    gates_data = data.get("gates", [])
    _require(isinstance(gates_data, list), where, "gates must be a list")
    gates = []
    for i, gd in enumerate(gates_data):
        ctx = f"{where}.gates[{i}]"
        _require(isinstance(gd, dict), ctx, "expected an object")
        name = gd.get("name")
        _require(name in GATE_NAMES, ctx, f"bad gate name {name!r}")
        qubits = gd.get("qubits", [])
        _require(isinstance(qubits, list), ctx, f"qubits must be a list, got {qubits!r}")
        angle = gd.get("angle")
        matrix = gd.get("matrix")
        kwargs: dict[str, Any] = {}
        if name == "CUSTOM":
            _require(matrix is not None, ctx, "CUSTOM needs a matrix")
            kwargs["matrix"] = json_to_matrix(matrix, ctx)
        elif name == "ROT":
            _require(type(angle) in (int, float), ctx, f"bad angle {angle!r}")
            _require(type(angle) is float or _finite(angle), ctx, "angle is too large for a float")
            kwargs["angle"] = float(angle)
        try:
            gates.append(Gate(name, tuple(qubits), **kwargs))
        except ContractError as exc:
            raise ContractError(f"{ctx}: {exc}") from exc
    return QuantumCircuit(n, tuple(gates))


def load_circuit(path: str) -> QuantumCircuit:
    return _load(path, circuit_from_data)


def save_circuit(circuit: QuantumCircuit, path: str) -> None:
    write_report(circuit_to_data(circuit), path)


# --------------------------------------------------------------- sat instance

def sat_instance_to_data(instance: SatInstance) -> dict:
    ops = []
    for i, op in enumerate(instance.operators):
        if instance.pauli_operators is not None:
            ops.append({"terms": hamiltonian_to_data(instance.pauli_operators[i])["terms"]})
        else:
            ops.append({"matrix": matrix_to_json(op)})
    data = {
        "version": FORMAT_VERSION,
        "n": instance.n,
        "epsilon": instance.epsilon,
        "kind": instance.kind,
        "operators": ops,
    }
    if instance.N_max is not None:
        data["N_max"] = instance.N_max
    return data


def sat_instance_from_data(data: dict, where: str = "sat instance") -> SatInstance:
    n = _qubit_count(data, where)
    _check_qubits(n)  # before any 1 << n
    epsilon = data.get("epsilon")
    _require(type(epsilon) in (int, float) and epsilon > 0, where, f"bad epsilon {epsilon!r}")
    _require(type(epsilon) is float or _finite(epsilon), where, "epsilon is too large for a float")
    kind = data.get("kind", "quantum")
    N_max = data.get("N_max")
    _require(N_max is None or (type(N_max) in (int, float) and 0 < N_max < math.inf), where,
             f"N_max must be a finite positive number, got {N_max!r}")
    ops_data = data.get("operators", [])
    _require(isinstance(ops_data, list) and ops_data, where, "operators must be a nonempty list")
    matrices = []
    paulis = []
    for i, od in enumerate(ops_data):
        ctx = f"{where}.operators[{i}]"
        _require(isinstance(od, dict), ctx, "expected an object")
        if "terms" in od:
            H = hamiltonian_from_data(
                {"version": FORMAT_VERSION, "n": n, "terms": od["terms"]}, where=ctx
            )
            paulis.append(H)
            matrices.append(None)
        elif "matrix" in od:
            _check_dense_cap(1 << n, DENSE_CAP)  # before converting: a file matrix is read densely
            M = json_to_matrix(od["matrix"], ctx)
            _require(M.shape == (1 << n, 1 << n), ctx, f"matrix shape {M.shape} mismatches n={n}")
            matrices.append(sp.csr_matrix(M))
            paulis.append(None)
        else:
            raise ContractError(f"{ctx}: need either terms or matrix")
    realized = tuple(M if M is not None else build_matrix(H) for M, H in zip(matrices, paulis))
    return SatInstance(
        n=n,
        operators=realized,
        epsilon=float(epsilon),
        kind=kind,
        pauli_operators=tuple(paulis) if all(H is not None for H in paulis) else None,
        N_max=N_max,
    )


def load_sat_instance(path: str) -> SatInstance:
    return _load(path, sat_instance_from_data)


def save_sat_instance(instance: SatInstance, path: str) -> None:
    write_report(sat_instance_to_data(instance), path)


# -------------------------------------------------------------------- reports

def spectral_report_to_data(report: SpectralReport) -> dict:
    data = asdict(report)  # asdict copies an array in one piece but a list entry by entry, so convert after
    data["eigenvalues"] = None if report.eigenvalues is None else report.eigenvalues.tolist()
    return data


def make_report(command: list[str], seed: int, tol: float, results: dict, checks: list[dict]) -> dict:
    return {
        "version": FORMAT_VERSION,
        "command": list(command),
        "seed": seed,
        "tol": tol,
        "results": results,
        "checks": checks,
    }


def report_to_json(report, write=None):
    """The one JSON writer: json.dumps(report, indent=2, sort_keys=True) + "\\n" for reports and files.

    Each dense matrix is rendered from its array at the indentation json would give it and spliced into
    json.dumps of the rest, in place of a tag that no string in the report contains. Returns write(pieces)
    for an iterator of the text's pieces, each matrix rendered when reached, and by default the text itself.
    json.dumps runs before write is called, so a report that fails to serialize reaches no writer."""
    tag = "@matrix"
    while True:
        matrices: list[np.ndarray] = []
        text = json.dumps(_with_tags(report, tag, matrices), indent=2, sort_keys=True)
        if text.count(tag) == len(matrices):
            break
        tag = "@" + tag
    parts = re.split(f'"{tag}(\\d+)"', text + "\n")
    indents = [len(line) - len(line.lstrip(" ")) for line in (part[part.rfind("\n") + 1:] for part in parts[::2])]
    return (write or "".join)(part if j % 2 == 0 else _render_matrix(matrices[int(part)], indents[j // 2])
                              for j, part in enumerate(parts))


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _with_tags(obj, tag: str, matrices: list):
    """obj with each _DenseMatrix replaced by tag + the index of its pairs in matrices; scalar lists are not copied."""
    if isinstance(obj, _DenseMatrix):
        matrices.append(obj.pairs)
        return f"{tag}{len(matrices) - 1}"
    if isinstance(obj, dict):
        return {k: _with_tags(v, tag, matrices) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)) and not _SCALARS.issuperset(map(type, obj)):
        return [_with_tags(v, tag, matrices) for v in obj]
    return obj


def _render_matrix(pairs: np.ndarray, indent: int) -> str:
    """json.dumps(pairs.tolist(), indent=2) for a value whose line is indented by indent spaces.

    The text of the all-+0.0 matrix of this shape is built by repetition, and each other pair's text is
    spliced in at its offset. Those are rendered once per distinct bit pattern, so -0.0 and +0.0 stay apart."""
    i0, i1, i2, i3 = (" " * (indent + step) for step in (0, 2, 4, 6))
    zero, mid, end = f"[\n{i3}0.0,\n{i3}0.0\n{i2}]", f",\n{i2}", f"\n{i1}],\n{i1}[\n{i2}"
    rows, cols, _ = pairs.shape
    body = end.join([(zero + mid) * (cols - 1) + zero] * rows)
    bits = pairs.reshape(-1, 2).view(np.uint64)  # +0.0 is the one float whose bits are all zero
    k = np.flatnonzero(bits[:, 0] | bits[:, 1])
    distinct, which = np.unique(bits[k].view("V16").ravel(), return_inverse=True)
    # json writes nan, inf and -inf as NaN, Infinity, -Infinity; no finite repr has an n
    texts = [f"[\n{i3}{re!r},\n{i3}{im!r}\n{i2}]".replace("nan", "NaN").replace("inf", "Infinity")
             for re, im in distinct.view(float).reshape(-1, 2).tolist()]
    start = k * (len(zero) + len(mid)) + k // cols * (len(end) - len(mid))
    cuts = [0, *np.stack((start, start + len(zero)), axis=-1).ravel().tolist(), len(body)]
    pieces = [f"[\n{i1}[\n{i2}", *[None] * (2 * len(k) + 1), f"\n{i1}]\n{i0}]"]
    pieces[1:-1:2] = [body[a:b] for a, b in zip(cuts[::2], cuts[1::2])]
    pieces[2:-1:2] = [texts[i] for i in which.tolist()]
    return "".join(pieces)


def write_report(report: dict, path: str | None) -> None:
    """report_to_json(report) to the file at path, or to stdout when path is None, one piece at a time."""
    report_to_json(report, lambda pieces: write_text(pieces, path))


def write_text(pieces, path: str | None) -> None:
    """The strings of pieces, one after another, to the file at path, or to stdout when path is None.

    A file is overwritten in place and cut after the new text: ext4 flushes a file truncated to zero on open
    when it closes. A run killed before the cut leaves the old tail after the new text; a power cut may leave
    old bytes."""
    if path is None:
        sys.stdout.writelines(pieces)
    else:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
            try:
                fh.writelines(pieces)
            finally:  # also when pieces raise; /dev/null, a pipe or a tty cannot be truncated
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate()


GAP_SCAN_COLUMNS = [
    "L",
    "s",
    "block_gap_formula",
    "block_gap_measured",
    "full_gap_formula",
    "full_gap_measured",
]


def gap_scan_csv(rows: list[dict]) -> str:
    buf = _io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=GAP_SCAN_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in GAP_SCAN_COLUMNS})
    return buf.getvalue()
