import csv
import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import stoqmap
from stoqmap import (
    ContractError,
    ExcitedEnergyProblem,
    LocalHamiltonian,
    QuantumCircuit,
    ResourceError,
    SatInstance,
    add_ancilla_penalty,
    build_Hc,
    build_ff,
    build_matrix,
    circuit_from_data,
    circuit_to_data,
    cnot,
    custom,
    eig_dense,
    ff_term_hamiltonians,
    gap_scan_csv,
    hamiltonian_from_data,
    hamiltonian_to_data,
    identity_gate,
    load_circuit,
    load_hamiltonian,
    load_sat_instance,
    make_report,
    random_instance,
    reduce_qsat,
    report_to_json,
    rot,
    run_command,
    sat_instance_from_data,
    sat_instance_to_data,
    save_circuit,
    save_hamiltonian,
    save_sat_instance,
    spectral_report,
    stochastize,
    write_report,
)
from stoqmap.io import GAP_SCAN_COLUMNS, json_to_matrix, matrix_to_json, write_text

from oracles import load_from_lists


def ham(n, items):
    return LocalHamiltonian.from_signed(n, items)


def proj(sign):
    # (1 + sign*Z)/2 on one qubit
    return ham(1, [(0.5, {}), (0.5 * sign, {0: "Z"})])


# --------------------------------------------------------------- file formats

def test_hamiltonian_file_example():
    data = {
        "version": "1",
        "n": 1,
        "terms": [{"coeff": 1, "paulis": [{"qubit": 0, "op": "Z"}]}],
    }
    H = hamiltonian_from_data(data)
    assert np.allclose(build_matrix(H).toarray(), np.diag([1.0, -1.0]))


def test_hamiltonian_empty_terms_is_zero():
    H = hamiltonian_from_data({"version": "1", "n": 2, "terms": []})
    assert H.num_terms == 0
    assert np.allclose(build_matrix(H).toarray(), np.zeros((4, 4)))


def test_hamiltonian_serialize_is_canonical_fixed_point():
    H = random_instance(3, seed=2, include_y=True)
    data = hamiltonian_to_data(H)
    H2 = hamiltonian_from_data(data)
    assert np.allclose(build_matrix(H).toarray(), build_matrix(H2).toarray())
    assert hamiltonian_to_data(H2) == data


def test_hamiltonian_rejects_bad_fields_with_context():
    base = {"version": "1", "n": 1}
    with pytest.raises(ContractError, match="unsupported version"):
        hamiltonian_from_data({"version": "2", "n": 1, "terms": []})
    with pytest.raises(ContractError, match=r"terms\[0\].paulis\[1\].*duplicate"):
        hamiltonian_from_data(
            {
                **base,
                "terms": [
                    {
                        "coeff": 1.0,
                        "paulis": [
                            {"qubit": 0, "op": "Z"},
                            {"qubit": 0, "op": "X"},
                        ],
                    }
                ],
            }
        )
    with pytest.raises(ContractError, match="non-finite"):
        hamiltonian_from_data({**base, "terms": [{"coeff": float("nan"), "paulis": []}]})
    with pytest.raises(ContractError, match="bad op"):
        hamiltonian_from_data(
            {**base, "terms": [{"coeff": 1.0, "paulis": [{"qubit": 0, "op": "Q"}]}]}
        )
    with pytest.raises(ContractError, match="bad qubit"):
        hamiltonian_from_data(
            {**base, "terms": [{"coeff": 1.0, "paulis": [{"qubit": 3, "op": "X"}]}]}
        )


# Python ints have no size limit, so a JSON integer can be too large for a float.
HUGE = int("9" * 401)


def test_circuit_round_trip_all_gate_kinds():
    swap = custom([0, 1], [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    phase = custom([0], [[1.0, 0.0], [0.0, 1.0j]])
    circuit = QuantumCircuit(2, (rot(0, 0.3), cnot(0, 1), identity_gate(), swap, phase))
    data = circuit_to_data(circuit)
    back = circuit_from_data(data)
    assert back.n == circuit.n and back.L == circuit.L
    for a, b in zip(circuit.gates, back.gates):
        assert a.name == b.name and a.qubits == b.qubits
        assert np.allclose(a.unitary(), b.unitary())
    assert circuit_to_data(back) == data


# Gate qubits that are not a list of nonnegative integers; each was once read
# as some qubit ("01" as (0, 1), 1.7 as 1) or failed far from the file.
BAD_GATE_QUBITS = [("ROT", ["a"]), ("ROT", [1.7]), ("ROT", [-1]), ("ROT", [True]), ("CNOT", "01")]
# Matrix entries that are not [re, im] pairs of finite numbers; the first two
# once ended in a ValueError or TypeError traceback, the last three once
# loaded as 1.5, 1.0 and 0.0.
BAD_MATRIX_ENTRIES = [["a", 0], [None, 0], [1, 0, 0], "1+0j", {"re": 1, "im": 0}, [10**400, 0],
                      ["1.5", 0], [True, 0], [0, "0"]]


def bad_matrix(entry):
    return [[entry, [0, 0]], [[0, 0], [1, 0]]]


# N_max must be absent or a finite positive number.
BAD_N_MAX = ["abc", True, float("nan"), -1, 0, float("inf")]


def sat_with_n_max(n_max):
    return {"version": "1", "n": 1, "epsilon": 0.1, "N_max": n_max,
            "operators": [{"terms": [{"coeff": 0.5, "paulis": []}]}]}


def boolean_numbers():
    """(kind, data, context): JSON true/false in a field read as a number; each once loaded as 0 or 1."""
    for b in (True, False):
        term = {"coeff": 1.0, "paulis": [{"qubit": 0, "op": "Z"}]}
        yield "hamiltonian", {"version": "1", "n": b, "terms": []}, ""
        yield "hamiltonian", {"version": "1", "n": 1, "terms": [{**term, "coeff": b}]}, ".terms[0]"
        yield ("hamiltonian", {"version": "1", "n": 1, "terms": [{**term, "paulis": [{"qubit": b, "op": "Z"}]}]},
               ".terms[0].paulis[0]")
        sat = {"version": "1", "n": 1, "epsilon": 0.1, "operators": [{"terms": [term]}]}
        yield "sat instance", {**sat, "n": b}, ""
        yield "sat instance", {**sat, "epsilon": b}, ""
        yield "sat instance", {**sat, "operators": [{"terms": [{**term, "coeff": b}]}]}, ".operators[0].terms[0]"
        yield ("sat instance", {**sat, "operators": [{"terms": [{**term, "paulis": [{"qubit": b, "op": "Z"}]}]}]},
               ".operators[0].terms[0].paulis[0]")
        gate = {"name": "ROT", "qubits": [0], "angle": 0.3}
        yield "circuit", {"version": "1", "n": b, "gates": [gate]}, ""
        yield "circuit", {"version": "1", "n": 1, "gates": [{**gate, "angle": b}]}, ".gates[0]"


LOADERS = {"hamiltonian": hamiltonian_from_data, "sat instance": sat_instance_from_data, "circuit": circuit_from_data}
LOADING_COMMANDS = {"hamiltonian": ["ham", "check"], "sat instance": ["sat", "decide"], "circuit": ["clock", "build"]}


def test_circuit_file_rejects_bad_gates_with_context():
    with pytest.raises(ContractError, match=r"gates\[0\].*unitary"):
        circuit_from_data(
            {
                "version": "1",
                "n": 1,
                "gates": [
                    {"name": "CUSTOM", "qubits": [0], "matrix": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]}
                ],
            }
        )
    with pytest.raises(ContractError, match="bad gate name"):
        circuit_from_data({"version": "1", "n": 1, "gates": [{"name": "HADAMARD", "qubits": [0]}]})
    with pytest.raises(ContractError, match="bad angle"):
        circuit_from_data({"version": "1", "n": 1, "gates": [{"name": "ROT", "qubits": [0]}]})
    with pytest.raises(ContractError, match=r"gates\[0\].*finite"):
        circuit_from_data(
            {"version": "1", "n": 1, "gates": [{"name": "ROT", "qubits": [0], "angle": float("nan")}]}
        )
    with pytest.raises(ContractError, match=r"gates\[0\].*differ in length"):
        circuit_from_data(
            {"version": "1", "n": 1,
             "gates": [{"name": "CUSTOM", "qubits": [0], "matrix": [[[1, 0], [0, 0]], [[1, 0]]]}]}
        )
    with pytest.raises(ContractError, match=r"gates\[0\].*non-finite"):
        circuit_from_data(
            {"version": "1", "n": 1,
             "gates": [{"name": "CUSTOM", "qubits": [0],
                        "matrix": [[[float("inf"), 0], [0, 0]], [[0, 0], [1, 0]]]}]}
        )
    for name, qubits in BAD_GATE_QUBITS:
        with pytest.raises(ContractError, match=r"gates\[0\]: .*qubits"):
            circuit_from_data({"version": "1", "n": 2, "gates": [{"name": name, "qubits": qubits, "angle": 0.1}]})
    with pytest.raises(ContractError, match=r"gate 0 touches qubit 2, but n=2"):
        circuit_from_data({"version": "1", "n": 2, "gates": [{"name": "ROT", "qubits": [2], "angle": 0.1}]})
    with pytest.raises(ContractError, match=r"gates\[0\]: complex values are") as info:
        circuit_from_data(
            {"version": "1", "n": 1, "gates": [{"name": "CUSTOM", "qubits": [0], "matrix": [[1, 0], [0, 1]]}]}
        )
    assert str(info.value).count("gates[0]") == 1
    with pytest.raises(ContractError, match=r"operators\[0\].*differ in length"):
        sat_instance_from_data(
            {"version": "1", "n": 1, "epsilon": 0.1,
             "operators": [{"matrix": [[[1, 0], [0, 0]], [[0, 0]]]}]}
        )
    for entry in BAD_MATRIX_ENTRIES:
        with pytest.raises(ContractError, match=r"^circuit.gates\[0\]: (complex values|matrix has non-finite)"):
            circuit_from_data(
                {"version": "1", "n": 1, "gates": [{"name": "CUSTOM", "qubits": [0], "matrix": bad_matrix(entry)}]}
            )
        with pytest.raises(ContractError, match=r"^sat instance.operators\[0\]: (complex values|matrix has non-finite)"):
            sat_instance_from_data(
                {"version": "1", "n": 1, "epsilon": 0.1, "operators": [{"matrix": bad_matrix(entry)}]}
            )
    for n_max in BAD_N_MAX:
        with pytest.raises(ContractError, match=r"^sat instance: N_max must be a finite positive number"):
            sat_instance_from_data(sat_with_n_max(n_max))
    assert sat_instance_from_data(sat_with_n_max(2.5)).N_max == 2.5
    for kind, data, ctx in boolean_numbers():
        with pytest.raises(ContractError, match="^" + re.escape(f"{kind}{ctx}: bad ")):
            LOADERS[kind](data)


NOT_NUMBERS, NON_FINITE = r"complex values are \[re, im\] pairs of numbers", "matrix has non-finite or null entries"


@pytest.mark.parametrize("rows, message", [
    ([[["1.5", 0]]], NOT_NUMBERS), ([[[True, False]]], NOT_NUMBERS), ([[[1.0, "0"]]], NOT_NUMBERS),
    ([[[0, 0], [False, 0]]], NOT_NUMBERS), ([[[1.0, 0.0], [0.5, 0.25, 0.0]], [[0.0, 0.0], [1.0]]], NOT_NUMBERS),
    ([[[None, 0]]], NON_FINITE), ([[[1, 0], [0, None]]], NON_FINITE),
])
def test_matrix_entries_must_be_json_numbers(rows, message):
    """Strings, booleans and an uneven split of pairs are refused as non-numbers; null stays non-finite."""
    with pytest.raises(ContractError, match=f"^m: {message}$"):
        json_to_matrix(rows, "m")


def test_sat_round_trip_pauli_form():
    inst = SatInstance.from_paulis([proj(-1), proj(1)], epsilon=1.0)
    data = sat_instance_to_data(inst)
    assert all("terms" in od for od in data["operators"])
    back = sat_instance_from_data(data)
    assert back.pauli_operators is not None
    assert back.kind == "quantum" and back.m == 2
    for a, b in zip(inst.operators, back.operators):
        assert np.allclose(a.toarray(), b.toarray())


def test_sat_round_trip_matrix_form():
    M = sp.csr_matrix(np.array([[0.0, 0.0], [0.0, 1.0]]))
    inst = SatInstance(n=1, operators=(M,), epsilon=0.5, kind="quantum")
    data = sat_instance_to_data(inst)
    assert "matrix" in data["operators"][0]
    back = sat_instance_from_data(data)
    assert back.pauli_operators is None
    assert np.allclose(back.operators[0].toarray(), M.toarray())
    with pytest.raises(ContractError, match="matrix shape"):
        sat_instance_from_data(
            {
                "version": "1",
                "n": 2,
                "epsilon": 0.5,
                "kind": "quantum",
                "operators": [{"matrix": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}],
            }
        )


def list_form(M) -> list:
    """A matrix as [re, im] lists built entry by entry: the writer's reference."""
    dense = np.asarray(M.toarray() if sp.issparse(M) else M, dtype=complex)
    return [[[float(np.real(z)), float(np.imag(z))] for z in row] for row in dense]


def oracle_json(data) -> str:
    """json.dumps of data, each dense matrix the writer holds as an array listed as its [re, im] rows."""
    return json.dumps(data, indent=2, sort_keys=True, default=lambda m: m.pairs.tolist()) + "\n"


def sat_oracle(inst) -> str:
    """oracle_json of the instance's data, every matrix in the entry-by-entry list form."""
    data = sat_instance_to_data(inst)
    for od, op in zip(data["operators"], inst.operators):
        if "matrix" in od:
            od["matrix"] = list_form(op)
    return oracle_json(data)


# Values whose text is easy to get wrong, mixed into every generated float.
EDGE_FLOATS = [-0.0, 0.0, 1e-300, 5e-324, -5e-324, 1e16, 2.0, 1.0, -3.0, 0.1, 1.7976931348623157e308,
               float("nan"), float("inf"), float("-inf")]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
finite_floats = st.one_of(st.sampled_from([x for x in EDGE_FLOATS if np.isfinite(x)]),
                          st.floats(allow_nan=False, allow_infinity=False))
complex_matrices = arrays(complex, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
                          elements=st.builds(complex, floats, floats))
# Strings that look like the tags the writer splices matrices into.
texts = st.one_of(st.text(max_size=6), st.sampled_from(["@matrix", "@matrix0", '"@matrix1"', "@@matrix0", ""]))
scalars = st.one_of(st.none(), st.booleans(), st.integers(-(10**20), 10**20), floats, texts)
json_values = st.recursive(
    st.one_of(scalars, complex_matrices.map(matrix_to_json)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(texts, inner, max_size=4)),
    max_leaves=12,
)


@seed(20090528)
@settings(max_examples=150, deadline=None, database=None)
@given(st.dictionaries(texts, json_values, max_size=6))
def test_writer_matches_json_dumps_on_generated_reports(report):
    assert report_to_json(report) == oracle_json(report)


@seed(20090528)
@settings(max_examples=50, deadline=None, database=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    arrays(complex, (1 << n, 1 << n), elements=st.builds(complex, floats, floats)), min_size=1, max_size=3)),
    st.sampled_from(["quantum", "stoquastic", "stochastic"]), floats, st.one_of(st.none(), floats))
def test_writer_matches_list_form_on_generated_sat_instances(ops, kind, epsilon, n_max):
    epsilon = abs(epsilon) if np.isfinite(epsilon) and epsilon != 0 else 0.5
    n = ops[0].shape[0].bit_length() - 1
    inst = SatInstance(n=n, operators=tuple(ops), epsilon=epsilon, kind=kind, N_max=n_max)
    text = report_to_json(sat_instance_to_data(inst))
    assert text == sat_oracle(inst)
    if n_max is not None and not 0 < n_max < math.inf:
        with pytest.raises(ContractError, match="N_max must be a finite positive number"):
            sat_instance_from_data(json.loads(text))
    elif all(np.all(np.isfinite(op.data)) for op in inst.operators):
        back = sat_instance_from_data(json.loads(text))
        assert all(np.array_equal(a.toarray(), b.toarray()) for a, b in zip(inst.operators, back.operators))


@seed(20090528)
@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(0, 3), floats, st.lists(st.sampled_from([1.0, -1.0]), min_size=4, max_size=4),
                          st.sampled_from([0.0, -0.0, 1e-300, 5e-324])), min_size=1, max_size=4))
def test_writer_matches_list_form_on_generated_circuits(specs):
    gates = []
    for kind, angle, signs, tiny in specs:
        if kind == 0:
            gates.append(rot(0, angle if np.isfinite(angle) else 0.5))
        elif kind == 1:
            gates.append(cnot(0, 1))
        else:  # a signed permutation or phase, with signed or tiny off-diagonal entries
            phase = np.exp(1j * ((angle if np.isfinite(angle) else 0.0) % (2 * np.pi)))
            M = np.array([[signs[0], tiny * signs[1]], [tiny * signs[2], signs[3] * phase]])
            gates.append(custom([kind - 2], M if kind == 2 else M[::-1]))
    circuit = QuantumCircuit(2, tuple(gates))
    data = circuit_to_data(circuit)
    text = report_to_json(data)
    for gd, g in zip(data["gates"], circuit.gates):
        if g.matrix is not None:
            gd["matrix"] = list_form(g.matrix)
    assert text == oracle_json(data)
    assert circuit_to_data(circuit_from_data(json.loads(text))) == data


@seed(20090528)
@settings(max_examples=200, deadline=None, database=None)
@given(arrays(float, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
              elements=finite_floats),
       arrays(float, (5, 5), elements=st.sampled_from([0.0, -0.0, 1e-300, 2.0])), st.booleans(), st.booleans(),
       complex_matrices)
def test_matrix_loader_matches_entrywise_reference(re, im, real_only, ints, M):
    im = np.zeros_like(re) if real_only else im[: re.shape[0], : re.shape[1]]
    rows = np.stack((re, im), axis=-1).tolist()
    if ints:  # JSON integers, as a hand-written file has them
        rows = [[[int(x) if x.is_integer() and abs(x) < 2**53 else x for x in pair] for pair in row] for row in rows]
    want = np.array([[complex(float(a), float(b)) for a, b in row] for row in rows])
    if np.max(np.abs(want.imag)) == 0.0:
        want = want.real
    got = json_to_matrix(json.loads(json.dumps(rows)), "m")
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    # A matrix the writer holds in memory reads back as its file does, bit for bit or refused alike.
    if real_only:  # imaginary parts of +0.0 and -0.0 only
        M.imag = np.copysign(0.0, M.imag)
    held = matrix_to_json(M)
    assert not isinstance(held, list)
    if np.all(np.isfinite(M)):
        got, want = json_to_matrix(held, "m"), json_to_matrix(json.loads(report_to_json({"m": held}))["m"], "m")
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    else:
        for data in (held, json.loads(report_to_json({"m": held}))["m"]):
            with pytest.raises(ContractError, match=f"^m: {NON_FINITE}$"):
                json_to_matrix(data, "m")


# Pairs of a mostly zero matrix: +0.0 pairs dominate, -0.0 sits in one half of
# an otherwise zero pair, and the rest are the values whose text json spells
# differently from repr or that round to zero.
SPARSE_PAIRS = [(0.0, 0.0)] * 8 + [(-0.0, 0.0), (0.0, -0.0), (5e-324, 0.0), (0.0, -5e-324), (float("nan"), 0.0),
                                   (0.0, float("inf")), (float("-inf"), 0.0), (1.5, -2.0)]
sides = st.integers(2, 6)
matrix_shapes = st.one_of(st.just((1, 1)), sides.map(lambda k: (1, k)), sides.map(lambda k: (k, 1)),
                          st.tuples(sides, sides))


@st.composite
def mostly_zero_matrices(draw):
    """A complex matrix drawn pair by pair; each row's last pair and the matrix's last pair are drawn zero or not."""
    rows, cols = draw(matrix_shapes)
    pairs = np.array(draw(st.lists(st.sampled_from(SPARSE_PAIRS), min_size=rows * cols, max_size=rows * cols)))
    pairs = pairs.reshape(rows, cols, 2)
    for r in range(rows):
        if draw(st.booleans()):
            pairs[r, -1] = draw(st.sampled_from([(0.0, 0.0), (1.0, 0.0), (0.0, -0.0)]))
    return pairs.view(complex)[..., 0]


@seed(20090528)
@settings(max_examples=200, deadline=None, database=None)
@given(mostly_zero_matrices(), mostly_zero_matrices(), st.sampled_from([(0.0, 0.0), (0.0, -0.0), (2.0, float("nan"))]))
def test_writer_renders_mostly_zero_matrices_as_json_dumps(outer, inner, last):
    inner[-1, -1] = complex(*last)  # the matrix's last pair, zero or not
    for order in ((outer, inner), (inner, outer)):  # each matrix at each of the two indentation depths
        report = {"matrix": matrix_to_json(order[0]), "nested": {"list": [1, matrix_to_json(order[1])]}}
        listed = {"matrix": list_form(order[0]), "nested": {"list": [1, list_form(order[1])]}}
        assert report_to_json(report) == oracle_json(report) == oracle_json(listed)


def reduce_clock_instance(tmp_path) -> tuple:
    """The clock-sat workload's input, ROT·ROT (L = 2) at s = 1/2, saved and reduced to 6 qubits by the CLI."""
    circuit = QuantumCircuit(1, (rot(0, 0.7), rot(0, -1.9)))
    path, out = tmp_path / "sat.json", tmp_path / "reduced.json"
    save_sat_instance(SatInstance.from_paulis(ff_term_hamiltonians(build_ff(circuit, 0.5)), 0.1), str(path))
    assert run_command(["sat", "reduce", str(path), "--out", str(out)]) == 0
    return path, out


def test_sat_reduce_writes_the_oracle_bytes_of_the_clock_instance(tmp_path):
    path, out = reduce_clock_instance(tmp_path)
    reduced = reduce_qsat(load_sat_instance(str(path)))
    assert reduced.n == 6 and all(op.shape == (64, 64) for op in reduced.operators)
    assert out.read_bytes() == sat_oracle(reduced).encode("utf-8")


def test_sat_reduce_writes_the_oracle_bytes(tmp_path):
    path = tmp_path / "sat.json"
    psi = np.array([1.0, np.exp(0.3j)]) / np.sqrt(2)
    inst = SatInstance(n=1, operators=(np.outer(psi, psi.conj()), np.diag([-0.0, 1.0])), epsilon=0.5, kind="quantum")
    save_sat_instance(inst, str(path))
    assert path.read_text(encoding="utf-8") == sat_oracle(inst)
    out = tmp_path / "reduced.json"
    assert run_command(["sat", "reduce", str(path), "--out", str(out)]) == 0
    reduced = reduce_qsat(load_sat_instance(str(path)))
    assert "matrix" in sat_instance_to_data(reduced)["operators"][0]
    assert out.read_bytes() == sat_oracle(reduced).encode("utf-8")


def test_sat_reduce_refuses_a_register_above_the_dense_cap_before_allocating(tmp_path, capsys):
    """11 work qubits reduce to 13: each dense 8192 x 8192 complex operator would take 1 GiB."""
    path, out = tmp_path / "sat.json", tmp_path / "reduced.json"
    save_sat_instance(SatInstance.from_paulis([ham(11, [(0.5, {}), (-0.5, {0: "Z"})])], epsilon=1.0), str(path))
    tracemalloc.start()
    try:
        code = run_command(["sat", "reduce", str(path), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "exceeds the dense cap 4096" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 16 * 2**20, peak
    with pytest.raises(ResourceError, match="dense cap"):
        matrix_to_json(sp.identity(8192, format="csr"))


@pytest.mark.parametrize("command", ["decide", "reduce"])
def test_sat_files_with_a_matrix_above_the_dense_cap_are_refused_before_conversion(tmp_path, capsys, command):
    """n = 13 asks for 8192 x 8192 matrices: a 1 x 1 one is refused for the register's size, not for its shape."""
    path = tmp_path / "sat.json"
    path.write_text(json.dumps({"version": "1", "n": 13, "epsilon": 1.0, "operators": [{"matrix": [[[1.0, 0.0]]]}]}))
    assert run_command(["sat", command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "dimension 8192 exceeds the dense cap 4096" in err and "shape" not in err


@pytest.mark.parametrize("rows", [[[["x"]]] * 4097, [[["x"]] * 4097]], ids=["rows", "columns"])
def test_json_to_matrix_refuses_a_matrix_above_the_dense_cap_before_flattening(rows):
    """Flattened, these cells would be refused as non-numbers; the cap refuses them first."""
    with pytest.raises(ResourceError, match="^dimension 4097 exceeds the dense cap 4096$"):
        json_to_matrix(rows, "m")


def test_loading_the_reduced_clock_instance_runs_no_collection(tmp_path):
    """Its 24576 parsed [re, im] lists hold no cycles, so a load pauses the cyclic collector over them."""
    _, out = reduce_clock_instance(tmp_path)
    collections = []
    callback = lambda phase, info: collections.append(info["generation"]) if phase == "start" else None
    gc.callbacks.append(callback)
    try:
        reduced = load_sat_instance(str(out))
    finally:
        gc.callbacks.remove(callback)
    assert reduced.n == 6 and collections == []


def test_loading_the_reduced_clock_instance_peaks_near_twice_its_size(tmp_path):
    """Each matrix becomes an array as its object closes, so only the file's bytes and text are held at once."""
    _, out = reduce_clock_instance(tmp_path)
    tracemalloc.start()
    try:
        reduced = load_sat_instance(str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reduced.n == 6 and peak < 2.25 * out.stat().st_size, (peak, out.stat().st_size)


# Entries of generated file matrices: numbers the loaders read (signed zeros and subnormals among them) and the
# entries they refuse: a string, booleans, null, an integer too large for a float and non-finite floats.
LOADABLE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 0, 1, -1, 0.5]), finite_floats,
                     st.integers(-(2**60), 2**60))
REFUSED = st.sampled_from(["1.5", True, False, None, 10**400, float("nan"), float("-inf")])


@st.composite
def file_matrices(draw, rows, cols):
    """A matrix as a file holds it, drawn rows x cols of LOADABLE entries and then maybe broken in one way."""
    matrix = draw(st.lists(st.lists(st.lists(LOADABLE, min_size=2, max_size=2), min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
    how = draw(st.sampled_from(["valid"] * 4 + ["entry", "ragged", "three", "empty row", "tall", "shape"]))
    if how == "entry":
        matrix[r][c][draw(st.integers(0, 1))] = draw(REFUSED)
    elif how == "ragged":
        matrix[r].append([0.0, 0.0])
    elif how == "three":
        matrix[r][c].append(0.0)
    elif how == "empty row":
        matrix[r] = []
    elif how == "tall":  # above the dense cap, refused before it is flattened
        matrix = [[[0.0, 0.0]]] * 4097
    elif how == "shape":
        matrix = matrix[:-1] or [[[1.0, 0.0]] * (cols + 1)]
    return matrix


@st.composite
def sat_files(draw):
    n = draw(st.sampled_from([1, 1, 2, 13]))  # 13 is above the cap, with 1 x 1 matrices
    side = 1 if n == 13 else 1 << n
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        op = {"matrix": draw(file_matrices(side, side))}
        how = draw(st.sampled_from(["matrix", "matrix", "terms", "both"]))
        if how != "matrix":
            op["terms"] = [{"coeff": 0.5, "paulis": [{"qubit": 0, "op": "Z"}]}]
        if how == "terms":
            del op["matrix"]
        ops.append(op)
    return {"version": "1", "n": n, "epsilon": 0.1, "kind": "stochastic", "operators": ops}


@st.composite
def circuit_files(draw):
    gates = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 2))
        # a phased permutation, a unitary whose zeros may be -0.0 or subnormal; or any matrix, refused as not unitary
        U = np.diag(np.exp(1j * np.array(draw(st.lists(st.sampled_from([0.0, np.pi / 2, np.pi, 1.0]),
                                                       min_size=1 << k, max_size=1 << k)))))
        U = U[draw(st.permutations(range(1 << k)))]
        tiny = draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), min_size=2 << 2 * k, max_size=2 << 2 * k))
        pairs = np.stack((U.real, U.imag), axis=-1)
        pairs[pairs == 0] = tiny[:int((pairs == 0).sum())]
        matrix = draw(st.one_of(st.just(pairs.tolist()), file_matrices(1 << k, 1 << k)))
        gates.append({"name": draw(st.sampled_from(["CUSTOM", "CUSTOM", "ROT"])), "qubits": list(range(k)),
                      "angle": 0.3, "matrix": matrix})  # a ROT gate holding a matrix ignores it
    return {"version": "1", "n": 2, "gates": gates}


def outcome(load, path):
    """What a load gives: its operators' or gates' bits, or its error's type and message."""
    try:
        got = load(path)
    except (ContractError, ResourceError) as exc:
        return type(exc), str(exc)
    if isinstance(got, QuantumCircuit):
        return [(g.name, g.qubits, g.angle, None if g.matrix is None else (g.matrix.dtype, g.matrix.tobytes()))
                for g in got.gates]
    return got.n, got.epsilon, got.kind, got.N_max, [
        (op.indptr.dtype, op.indptr.tobytes(), op.indices.dtype, op.indices.tobytes(), op.data.dtype,
         op.data.tobytes()) for op in got.operators]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")  # huge entries' unitarity check
@seed(20090528)
@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(sat_files(), circuit_files()))
def test_loaders_match_from_data_of_the_parsed_lists(tmp_path_factory, data):
    """Converting each matrix as its object closes returns the same bits, or refuses with the same error."""
    path = tmp_path_factory.getbasetemp() / "generated.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    load, from_data = ((load_sat_instance, sat_instance_from_data) if "operators" in data
                       else (load_circuit, circuit_from_data))
    assert outcome(load, str(path)) == outcome(lambda p: load_from_lists(p, from_data), str(path))


@pytest.mark.parametrize("matrix", [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], [["a"], []]],
                         ids=["valid", "malformed"])
def test_hamiltonian_terms_with_a_matrix_key_load_as_without_it(tmp_path, matrix):
    """Every loader converts "matrix" lists as their objects close; a Hamiltonian file ignores the key either way."""
    data = hamiltonian_to_data(random_instance(2, seed=3, include_y=True))
    plain, keyed = tmp_path / "plain.json", tmp_path / "keyed.json"
    plain.write_text(json.dumps(data), encoding="utf-8")
    for term in data["terms"]:
        term["matrix"] = matrix
    keyed.write_text(json.dumps(data), encoding="utf-8")
    want, got = load_hamiltonian(str(plain)), load_hamiltonian(str(keyed))
    assert got.n == want.n and got.num_terms == want.num_terms > 0
    for field in ("x", "z", "coeff"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def test_loads_leave_the_collector_as_they_found_it(tmp_path):
    files = {load_hamiltonian: tmp_path / "h.json", load_circuit: tmp_path / "c.json",
             load_sat_instance: tmp_path / "s.json"}
    save_hamiltonian(proj(1), str(files[load_hamiltonian]))
    save_circuit(QuantumCircuit(1, (rot(0, 0.3),)), str(files[load_circuit]))
    save_sat_instance(SatInstance.from_paulis([proj(1)], epsilon=0.5), str(files[load_sat_instance]))
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": "2"}', encoding="utf-8")
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for load, good in files.items():
                load(str(good))
                assert gc.isenabled() is enabled
                with pytest.raises(ContractError, match="unsupported version"):
                    load(str(bad))
                assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_write_report_streams_the_text_of_report_to_json(tmp_path, capsys):
    odd = np.array([[complex(-0.0, 1.0), complex(0.0, -0.0)], [complex(float("nan"), 2.0), 0.0]])
    report = {"matrix": matrix_to_json(odd), "nested": {"list": [1, matrix_to_json(np.arange(3.0)[None, :])]},
              "column": matrix_to_json(np.array([[0.0], [0.5j], [0.0]])), "zeros": matrix_to_json(np.zeros((2, 2)))}
    text = report_to_json(report)
    assert text == oracle_json(report) and "-0.0" in text and "NaN" in text
    out = tmp_path / "r.json"
    write_report(report, str(out))
    assert out.read_bytes() == text.encode("utf-8")
    capsys.readouterr()
    write_report(report, None)
    assert capsys.readouterr().out == text


def test_sat_reduce_prints_the_bytes_it_writes(tmp_path, capsysbinary):
    path, out = reduce_clock_instance(tmp_path)
    capsysbinary.readouterr()
    assert run_command(["sat", "reduce", str(path)]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_a_report_that_fails_to_serialize_leaves_the_file_untouched(tmp_path, capsys):
    out = tmp_path / "r.json"
    write_report({"kept": True}, str(out))
    before = out.read_bytes()
    report = {"matrix": matrix_to_json(np.eye(2)), "z": object()}
    for path in (str(out), None):
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_report(report, path)
    assert out.read_bytes() == before and capsys.readouterr().out == ""


WRITER_REPORT = {"version": "1", "matrix": matrix_to_json(np.diag([1.0, -0.0, 2.5j])), "values": [0.5, -1.0]}


@pytest.mark.parametrize("old_size", ["longer", "shorter", "same"])
def test_a_report_written_over_a_file_leaves_exactly_its_bytes(tmp_path, old_size):
    text = report_to_json(WRITER_REPORT).encode()
    old = {"longer": b"x" * (3 * len(text)), "shorter": b"{}\n", "same": b"y" * len(text)}[old_size]
    out = tmp_path / "r.json"
    out.write_bytes(old)
    write_report(WRITER_REPORT, str(out))
    assert out.read_bytes() == text


def test_pieces_that_raise_halfway_leave_exactly_the_pieces_written(tmp_path):
    def pieces():
        yield "first,"
        yield "second,"
        raise RuntimeError("halfway")

    out = tmp_path / "r.txt"
    out.write_text("an older and much longer text " * 100, encoding="utf-8")
    with pytest.raises(RuntimeError, match="halfway"):
        write_text(pieces(), str(out))
    assert out.read_text(encoding="utf-8") == "first,second,"


def test_the_writer_opens_without_truncating(tmp_path, monkeypatch):
    flags = []
    real_open = os.open

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    out = tmp_path / "r.json"
    out.write_text("old", encoding="utf-8")
    monkeypatch.setattr(os, "open", recording_open)
    write_report(WRITER_REPORT, str(out))
    monkeypatch.undo()
    assert flags and not any(flag & os.O_TRUNC for flag in flags), flags
    assert out.read_text(encoding="utf-8") == report_to_json(WRITER_REPORT)


def test_out_to_dev_null_and_to_a_directory(tmp_path, capsys):
    circuit = tmp_path / "c.json"
    save_circuit(QuantumCircuit(1, (rot(0, 0.3),)), str(circuit))
    assert run_command(["clock", "build", str(circuit), "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")
    assert run_command(["clock", "build", str(circuit), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


def test_writing_the_reduced_clock_instance_allocates_less_than_twice_its_size(tmp_path):
    path, out = reduce_clock_instance(tmp_path)
    data = sat_instance_to_data(reduce_qsat(load_sat_instance(str(path))))
    again = tmp_path / "again.json"
    tracemalloc.start()
    try:
        write_report(data, str(again))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again.read_bytes() == out.read_bytes()
    assert peak < 2 * out.stat().st_size, (peak, out.stat().st_size)


def test_report_serialization_is_deterministic():
    rep = make_report(["ham", "check", "h.json"], 0, 1e-10, {"n": 1}, [])
    assert report_to_json(rep) == report_to_json(
        make_report(["ham", "check", "h.json"], 0, 1e-10, {"n": 1}, [])
    )


def test_gap_scan_csv_column_order():
    row = {k: "0" for k in GAP_SCAN_COLUMNS}
    text = gap_scan_csv([row])
    header = text.splitlines()[0]
    assert header == ",".join(GAP_SCAN_COLUMNS)


# ------------------------------------------------------------------------ CLI

def run_report(argv, out):
    code = run_command(argv + ["--out", str(out)])
    with open(out, encoding="utf-8") as fh:
        return code, json.load(fh)


def test_cli_gap_scan_block_column_matches(tmp_path):
    out = tmp_path / "scan.csv"
    assert run_command(["clock", "gap-scan", "--Lmin", "1", "--Lmax", "4", "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and list(rows[0]) == GAP_SCAN_COLUMNS
    for row in rows:
        assert abs(float(row["block_gap_measured"]) - float(row["block_gap_formula"])) <= 1e-10
        if float(row["s"]) == 0.5:
            assert abs(float(row["full_gap_measured"]) - float(row["full_gap_formula"])) <= 1e-10
        else:
            assert float(row["full_gap_measured"]) > float(row["full_gap_formula"])


def test_cli_sat_decide_yes_exit_zero(tmp_path):
    path = tmp_path / "sat.json"
    save_sat_instance(SatInstance.from_paulis([proj(-1)], epsilon=1.0), str(path))
    code, rep = run_report(["sat", "decide", str(path)], tmp_path / "r.json")
    assert code == 0
    assert rep["results"]["verdict"] == "YES"


def test_cli_sat_decide_no_exit_one(tmp_path):
    path = tmp_path / "sat.json"
    save_sat_instance(SatInstance.from_paulis([proj(1), proj(-1)], epsilon=1.0), str(path))
    code, rep = run_report(["sat", "decide", str(path)], tmp_path / "r.json")
    assert code == 1
    assert rep["results"]["verdict"] == "NO"


def test_cli_sat_reduce_emits_loadable_instance(tmp_path):
    path = tmp_path / "sat.json"
    save_sat_instance(SatInstance.from_paulis([proj(-1)], epsilon=1.0), str(path))
    out = tmp_path / "reduced.json"
    assert run_command(["sat", "reduce", str(path), "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        reduced = sat_instance_from_data(json.load(fh))
    assert reduced.kind == "stochastic"
    assert reduced.n == 3
    code, rep = run_report(["sat", "decide", str(out)], tmp_path / "r.json")
    assert code == 0 and rep["results"]["verdict"] == "YES"


def test_cli_map_stochastic_z_is_doubly_stochastic(tmp_path):
    path = tmp_path / "h.json"
    save_hamiltonian(ham(1, [(1.0, {0: "Z"})]), str(path))
    code, rep = run_report(["map", "stochastic", str(path)], tmp_path / "r.json")
    assert code == 0
    assert rep["results"]["flags"]["doubly_stochastic"] is True
    checks = {c["name"]: c["passed"] for c in rep["checks"]}
    assert checks["doubly_stochastic"] and checks["nonnegative_entries"]


def test_cli_map_stoquastic_preserves_sector(tmp_path):
    path = tmp_path / "h.json"
    save_hamiltonian(random_instance(2, seed=4), str(path))
    code, rep = run_report(["map", "stoquastic", str(path)], tmp_path / "r.json")
    assert code == 0
    checks = {c["name"]: c["passed"] for c in rep["checks"]}
    assert checks["stoquastic"] and checks["sector_preserves_input"]


def test_cli_map_complex_without_penalty(tmp_path):
    path = tmp_path / "h.json"
    save_hamiltonian(ham(1, [(1.0, {0: "Y"})]), str(path))
    code, rep = run_report(["map", "complex", str(path), "--p", "0"], tmp_path / "r.json")
    assert code == 0
    checks = {c["name"]: c["passed"] for c in rep["checks"]}
    assert checks["sector_preserves_input"]
    assert rep["results"]["kind"] == "stochastic-z4"


@pytest.mark.parametrize("argv", [["stoquastic"], ["stochastic", "--p", "0"], ["complex", "--p", "0"]])
def test_cli_map_above_the_dense_cap_keeps_flags_and_sector_check(tmp_path, argv):
    """Above the cap no spectrum is written, psd comes from the iterative solve and the sector check reads the
    sector operator of the realized map instead of a sector block."""
    path = tmp_path / "h.json"
    save_hamiltonian(random_instance(3, seed=1), str(path))
    code, rep = run_report(["map", argv[0], str(path), *argv[1:]], tmp_path / "r.json")
    capped_code, capped = run_report(["map", argv[0], str(path), *argv[1:], "--dense-cap", "4"], tmp_path / "c.json")
    assert code == capped_code == 0
    assert "eigenvalues" in rep["results"] and "eigenvalues" not in capped["results"]
    assert capped["results"]["flags"] == rep["results"]["flags"]
    checks = {c["name"]: c["passed"] for c in capped["checks"]}
    assert checks["sector_preserves_input"]


def test_cli_python_dash_m_runs_the_cli(tmp_path):
    """`python -m stoqmap` runs the command line and writes nothing to stderr."""
    save_hamiltonian(random_instance(2, seed=3), str(tmp_path / "h.json"))
    src = str(Path(stoqmap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-m", "stoqmap", "ham", "check", "h.json", "--out", "r.json"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and run.stderr == ""
    with open(tmp_path / "r.json", encoding="utf-8") as fh:
        assert json.load(fh)["results"]["flags"]["hermitian"] is True


def test_cli_python_dash_m_on_the_cli_module_fails_and_names_the_entry_point(tmp_path):
    """`python -m stoqmap.cli` would run a second copy of the module beside the package's: it exits 2."""
    save_hamiltonian(random_instance(2, seed=3), str(tmp_path / "h.json"))
    src = str(Path(stoqmap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-m", "stoqmap.cli", "ham", "check", "h.json", "--out", "r.json"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2 and "python -m stoqmap`" in run.stderr
    assert not (tmp_path / "r.json").exists()


def test_cli_ham_check_and_spectrum(tmp_path):
    path = tmp_path / "h.json"
    H = random_instance(2, seed=6)
    save_hamiltonian(H, str(path))
    code, rep = run_report(["ham", "check", str(path)], tmp_path / "r1.json")
    assert code == 0
    assert rep["results"]["n"] == 2
    assert rep["results"]["flags"]["hermitian"] is True

    code, rep = run_report(["ham", "spectrum", str(path)], tmp_path / "r2.json")
    assert code == 0
    got = rep["results"]["spectral_report"]["eigenvalues"]
    want = eig_dense(build_matrix(H), compute_vectors=False).eigenvalues
    assert np.max(np.abs(np.array(got) - want)) <= 1e-12


def test_cli_clock_build(tmp_path):
    path = tmp_path / "c.json"
    save_circuit(QuantumCircuit(1, (rot(0, 0.4), rot(0, 0.2))), str(path))
    code, rep = run_report(["clock", "build", str(path), "--s", "0.5"], tmp_path / "r.json")
    assert code == 0
    assert all(c["passed"] for c in rep["checks"])
    assert abs(rep["results"]["clock_success_probability"] - 1.0 / 3.0) <= 1e-12


def test_cli_adiabatic_run(tmp_path):
    path = tmp_path / "c.json"
    save_circuit(QuantumCircuit(1, (rot(0, np.pi / 8),)), str(path))
    code, rep = run_report(
        ["adiabatic", "run", str(path), "--T", "32", "--steps", "64", "--shots", "256"],
        tmp_path / "r.json",
    )
    assert code == 0
    checks = {c["name"]: c["passed"] for c in rep["checks"]}
    assert checks["sector_leakage_small"]
    assert rep["results"]["legal_sector_leakage"] <= 1e-8
    assert 0.0 <= rep["results"]["max_norm_drift"] <= 1e-12


def test_cli_adiabatic_padded_raises_the_success_probability(tmp_path):
    # padded, success is any clock time >= L: (L+1)/(2L+1) = 3/5 at the history state, against 1/(L+1)
    path = tmp_path / "c.json"
    save_circuit(QuantumCircuit(1, (rot(0, 0.4), rot(0, 0.2))), str(path))
    argv = ["adiabatic", "run", str(path), "--T", "40", "--steps", "200", "--shots", "256"]
    code, plain = run_report(argv, tmp_path / "plain.json")
    assert code == 0 and plain["results"]["L"] == 2
    code, padded = run_report(argv + ["--padded"], tmp_path / "padded.json")
    assert code == 0 and padded["results"]["L"] == 4
    assert padded["results"]["clock_success_probability"] > plain["results"]["clock_success_probability"]
    assert padded["results"]["clock_success_probability"] > 0.5


def test_cli_commands_refuse_the_flags_they_would_ignore(tmp_path):
    sat = tmp_path / "sat.json"
    save_sat_instance(SatInstance.from_paulis([proj(-1)], epsilon=1.0), str(sat))
    out = ["--out", str(tmp_path / "r.out")]
    for argv in (["clock", "gap-scan", "--Lmin", "1", "--Lmax", "2"], ["sat", "reduce", str(sat)]):
        assert run_command(argv + out) == 0
        for flag in (["--seed", "1"], ["--tol", "1e-6"], ["--dense-cap", "8"]):
            assert run_command(argv + flag + out) == 2


def test_cli_protocol_excited_exit_codes(tmp_path):
    path = tmp_path / "h.json"
    save_hamiltonian(build_Hc(2, 3), str(path))
    code, rep = run_report(
        ["protocol", "excited", str(path), "--c", "2", "--a", "-0.4", "--b", "0.1"],
        tmp_path / "r.json",
    )
    assert code == 0 and rep["results"]["verdict"] == "YES"
    code, rep = run_report(
        ["protocol", "excited", str(path), "--c", "3", "--a", "-0.4", "--b", "0.1"],
        tmp_path / "r2.json",
    )
    assert code == 1 and rep["results"]["verdict"] == "NO"


def test_cli_usage_and_io_errors(tmp_path, capsys):
    assert run_command(["clock", "gap-scan", "--Lmin", "1", "--Lmax", "2", "--bogus"]) == 2
    assert run_command(["ham", "check", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err
    for text in ("", "{not json"):  # a syntax error names its file, and stays a JSONDecodeError for library callers
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        assert run_command(["ham", "check", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        with pytest.raises(json.JSONDecodeError, match=f"^{re.escape(str(bad))}: .*char "):
            load_hamiltonian(str(bad))
    deep = tmp_path / "deep.json"
    save_circuit(QuantumCircuit(1, tuple(rot(0, 0.1) for _ in range(40))), str(deep))
    assert run_command(["clock", "build", str(deep)]) == 2
    assert "error:" in capsys.readouterr().err
    bad_gate = tmp_path / "gate.json"
    for name, qubits in BAD_GATE_QUBITS:
        gate = {"name": name, "qubits": qubits, "angle": 0.1}
        bad_gate.write_text(json.dumps({"version": "1", "n": 2, "gates": [gate]}), encoding="utf-8")
        assert run_command(["clock", "build", str(bad_gate)]) == 2
        assert "gates[0]: " in capsys.readouterr().err
    for entry in BAD_MATRIX_ENTRIES:
        gate = {"name": "CUSTOM", "qubits": [0], "matrix": bad_matrix(entry)}
        bad_gate.write_text(json.dumps({"version": "1", "n": 1, "gates": [gate]}), encoding="utf-8")
        assert run_command(["clock", "build", str(bad_gate)]) == 2
        assert "gates[0]: " in capsys.readouterr().err
        sat = {"version": "1", "n": 1, "epsilon": 0.1, "operators": [{"matrix": bad_matrix(entry)}]}
        bad_gate.write_text(json.dumps(sat), encoding="utf-8")
        assert run_command(["sat", "decide", str(bad_gate)]) == 2
        assert "operators[0]: " in capsys.readouterr().err
    for n_max in BAD_N_MAX:
        bad_gate.write_text(json.dumps(sat_with_n_max(n_max)), encoding="utf-8")
        for action in ("decide", "reduce"):
            assert run_command(["sat", action, str(bad_gate), "--out", str(tmp_path / "r.json")]) == 2
            assert f"error: {bad_gate}: N_max must be" in capsys.readouterr().err
    for kind, data, ctx in boolean_numbers():
        bad_gate.write_text(json.dumps(data), encoding="utf-8")
        assert run_command(LOADING_COMMANDS[kind] + [str(bad_gate), "--out", str(tmp_path / "r.json")]) == 2
        assert f"error: {bad_gate}{ctx}: bad " in capsys.readouterr().err
    circuit = tmp_path / "c.json"
    save_circuit(QuantumCircuit(1, (rot(0, 0.5),)), str(circuit))
    for flag, value in [("--T", "nan"), ("--T", "inf"), ("--T", "-3"), ("--T", "0"), ("--shots", "-1")]:
        argv = ["adiabatic", "run", str(circuit), "--steps", "4", flag, value, "--out", str(tmp_path / "r.json")]
        assert run_command(argv) == 2
        assert "error: " in capsys.readouterr().err
    hamiltonian = tmp_path / "h.json"
    save_hamiltonian(random_instance(2, seed=1), str(hamiltonian))
    for cap in ("-5", "0", str((1 << 14) + 1), "abc"):
        assert run_command(["ham", "spectrum", str(hamiltonian), "--dense-cap", cap]) == 2
        assert "--dense-cap" in capsys.readouterr().err
    assert run_command(["ham", "spectrum", str(hamiltonian), "--dense-cap", str(1 << 14),
                        "--out", str(tmp_path / "r.json")]) == 0
    # a file that is not UTF-8 (here a UTF-16 byte-order mark) reaches each loader
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    for argv in (["ham", "check"], ["clock", "build"], ["sat", "decide"]):
        assert run_command(argv + [str(utf16)]) == 2
        assert f"error: {utf16}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf", "abc"])
def test_cli_refuses_a_negative_or_non_finite_tol(tmp_path, capsys, tol):
    """float() reads all five, and -1 or nan would fail every check while inf would pass every one."""
    hamiltonian, instance = tmp_path / "h.json", tmp_path / "sat.json"
    save_hamiltonian(random_instance(2, seed=1), str(hamiltonian))
    projector = LocalHamiltonian.from_signed(1, [(0.5, {}), (0.5, {0: "Z"})])
    save_sat_instance(SatInstance.from_paulis([projector], epsilon=0.1), str(instance))
    for argv in (["ham", "check", str(hamiltonian)], ["ham", "spectrum", str(hamiltonian)],
                 ["sat", "decide", str(instance)]):
        assert run_command(argv + [f"--tol={tol}", "--out", str(tmp_path / "r.json")]) == 2  # = keeps -inf a value
        err = capsys.readouterr().err
        assert "argument --tol: " in err and repr(tol) in err
    assert not (tmp_path / "r.json").exists()
    assert run_command(["ham", "check", str(hamiltonian), "--tol", "0", "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("a, b", [("-inf", "inf"), ("nan", "1"), ("inf", "1"), ("0", "inf"), ("0", "nan"),
                                  ("0", "-inf")])
def test_cli_refuses_non_finite_excited_thresholds(tmp_path, capsys, a, b):
    """float() reads all three, and -inf < inf passed the b > a check and wrote Infinity, which JSON does not allow."""
    hamiltonian, out = tmp_path / "h.json", tmp_path / "r.json"
    save_hamiltonian(random_instance(2, seed=1), str(hamiltonian))
    argv = ["protocol", "excited", str(hamiltonian), "--c", "1", f"--a={a}", f"--b={b}", "--out", str(out)]
    assert run_command(argv) == 2  # = keeps -inf a value
    refused = "--a" if not math.isfinite(float(a)) else "--b"
    err = capsys.readouterr().err
    assert f"argument {refused}: must be a finite number, got {(a if refused == '--a' else b)!r}" in err
    assert not out.exists()


def test_cli_dense_cap_reaches_every_solver(tmp_path, capsys, monkeypatch):
    h = tmp_path / "h.json"
    save_hamiltonian(random_instance(4, seed=1), str(h))
    c = tmp_path / "c.json"
    save_circuit(QuantumCircuit(1, (rot(0, 0.4), rot(0, 0.2))), str(c))
    out = ["--dense-cap", "8", "--out", str(tmp_path / "r.json")]
    assert run_command(["protocol", "excited", str(h), "--c", "2", "--a", "0", "--b", "1"] + out) == 2
    assert "dense cap 8" in capsys.readouterr().err
    # adiabatic run's cap bounds blocks, not its 16-dimensional register: the largest block has 6 states
    adiabatic = sys.modules["stoqmap.adiabatic"]
    solves = []

    def counted(*args, **kwargs):
        solves.append(1)
        return eigh(*args, **kwargs)

    eigh = adiabatic._eigh
    monkeypatch.setattr(adiabatic, "_eigh", counted)
    argv = ["adiabatic", "run", str(c), "--steps", "4", "--out", str(tmp_path / "r.json"), "--dense-cap"]
    assert run_command(argv + ["2"]) == 2
    assert "dense cap 2" in capsys.readouterr().err
    assert solves == []  # refused before any block is solved
    assert run_command(argv + ["8"]) == 0
    assert solves


def test_each_command_diagonalizes_once(tmp_path, monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    H = random_instance(3, seed=5)
    spectral_report(build_matrix(H))
    assert len(calls) == 1, calls
    calls.clear()
    path = tmp_path / "h.json"
    save_hamiltonian(H, str(path))
    argv = ["map", "stochastic", str(path), "--p", "0.25", "--out", str(tmp_path / "r.json")]
    assert run_command(argv) == 0
    assert len(calls) == 1, calls


def test_cli_reports_are_reproducible(tmp_path):
    path = tmp_path / "h.json"
    save_hamiltonian(random_instance(2, seed=9), str(path))
    out = tmp_path / "r.json"
    argv = ["ham", "spectrum", str(path), "--seed", "7", "--out", str(out)]
    assert run_command(argv) == 0
    first = out.read_bytes()
    assert run_command(argv) == 0
    assert out.read_bytes() == first

    cpath = tmp_path / "c.json"
    save_circuit(QuantumCircuit(1, (rot(0, 0.5),)), str(cpath))
    argv = [
        "adiabatic", "run", str(cpath),
        "--T", "16", "--steps", "32", "--shots", "128", "--seed", "3",
        "--out", str(out),
    ]
    assert run_command(argv) == 0
    first = out.read_bytes()
    assert run_command(argv) == 0
    assert out.read_bytes() == first


def test_adiabatic_report_is_identical_across_hash_seeds(tmp_path):
    # Hash seeds 0 and 1 order the four decoded outcomes differently, which once
    # moved the last digit of decoded_total_variation (a sum over a set of strings).
    save_circuit(QuantumCircuit(2, (rot(0, 0.9), cnot(0, 1), rot(1, 0.4))), str(tmp_path / "c.json"))
    script = "import sys; from stoqmap.cli import run_command; sys.exit(run_command(sys.argv[1:]))"
    argv = ["adiabatic", "run", "c.json", "--T", "8", "--steps", "16", "--shots", "100", "--seed", "5",
            "--out", "r.json"]
    src = str(Path(stoqmap.__file__).resolve().parents[1])
    reports = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path, env=env, check=True, timeout=120)
        reports.append((tmp_path / "r.json").read_bytes())
    assert reports[0] == reports[1]


def test_cli_is_thin_wrapper_over_library(tmp_path):
    H = random_instance(2, seed=13)
    path = tmp_path / "h.json"
    save_hamiltonian(H, str(path))
    code, rep = run_report(["map", "stochastic", str(path), "--p", "0.25"], tmp_path / "r.json")
    assert code == 0
    direct = add_ancilla_penalty(stochastize(H), 0.25).realize()
    want = eig_dense(direct, compute_vectors=False).eigenvalues
    assert np.max(np.abs(np.array(rep["results"]["eigenvalues"]) - want)) <= 1e-12

    code, rep = run_report(
        ["protocol", "excited", str(path), "--c", "2", "--a", "0.0", "--b", "0.5"],
        tmp_path / "r2.json",
    )
    problem = ExcitedEnergyProblem(H=H, c=2, a=0.0, b=0.5)
    assert abs(rep["results"]["lambda_c"] - problem.lambda_c()) <= 1e-12
    assert rep["results"]["verdict"] == problem.decide()


def test_cli_oversized_register_names_its_qubit_count(tmp_path, capsys):
    # 2^(n+a) for n = 10^6 has more decimal digits than Python will format; 1 << 10^20 cannot be built
    h = tmp_path / "huge.json"
    for n, qubit in ((1000000, 0), (10**20, 0), (10**20, 10**17)):
        terms = [{"coeff": 1.0, "paulis": [{"qubit": qubit, "op": "X"}]}, {"coeff": 0.5, "paulis": []}]
        h.write_text(json.dumps({"version": "1", "n": n, "terms": terms}), encoding="utf-8")
        commands = [(["ham", "check"], n), (["ham", "spectrum"], n), (["map", "stoquastic"], n + 1),
                    (["map", "stochastic"], n + 1), (["map", "complex"], n + 2),
                    (["protocol", "excited", "--c", "1", "--a", "0", "--b", "1"], n)]
        for argv, total in commands:
            assert run_command(argv[:2] + [str(h)] + argv[2:] + ["--out", str(tmp_path / "r.json")]) == 2
            err = capsys.readouterr().err
            if qubit:
                assert f"error: qubit {qubit} lies beyond the 14-qubit realization cap" in err
            else:
                assert f"error: {total} qubits exceed the 14-qubit realization cap" in err
            assert "Traceback" not in err


@pytest.mark.parametrize("kind, data, message", [
    ("hamiltonian", {"version": "1", "n": 1, "terms": [{"coeff": HUGE, "paulis": []}]},
     ".terms[0]: coeff is too large for a float"),
    ("circuit", {"version": "1", "n": 1, "gates": [{"name": "ROT", "qubits": [0], "angle": HUGE}]},
     ".gates[0]: angle is too large for a float"),
    ("sat instance", {"version": "1", "n": 1, "epsilon": HUGE,
                      "operators": [{"terms": [{"coeff": 0.5, "paulis": []}]}]},
     ": epsilon is too large for a float"),
])
def test_cli_integer_too_large_for_a_float_exits_two(tmp_path, capsys, kind, data, message):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run_command(LOADING_COMMANDS[kind] + [str(path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}{message}\n"


def test_cli_integer_beyond_the_digit_limit_exits_two(tmp_path, capsys):
    # json cannot even parse an integer longer than Python's int-to-str digit limit (4300 by default)
    path = tmp_path / "long.json"
    path.write_text('{"version": "1", "n": 1, "terms": [{"coeff": ' + "9" * 5000 + ', "paulis": []}]}',
                    encoding="utf-8")
    assert run_command(["ham", "check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: Exceeds the limit") and err.count("\n") == 1


@pytest.mark.parametrize("action", ["decide", "reduce"])
def test_cli_sat_matrix_operator_on_a_huge_register_names_the_cap(tmp_path, capsys, action):
    # a matrix operator's shape was compared with (1 << n, 1 << n) before any cap check
    path = tmp_path / "sat.json"
    for n in (15, 10**20):
        sat = {"version": "1", "n": n, "epsilon": 0.1, "operators": [{"matrix": bad_matrix([0, 0])}]}
        path.write_text(json.dumps(sat), encoding="utf-8")
        assert run_command(["sat", action, str(path), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert f"error: {n} qubits exceed the 14-qubit realization cap" in err
        assert "Traceback" not in err
    with pytest.raises(ResourceError, match="15 qubits exceed"):
        SatInstance(n=15, operators=(sp.identity(2, format="csr"),), epsilon=0.1, kind="quantum")


def test_cli_error_line_reports_the_best_residual(tmp_path, capsys, monkeypatch):
    h = tmp_path / "h.json"
    save_hamiltonian(random_instance(3, seed=2), str(h))
    A = build_matrix(random_instance(3, seed=2))
    vals, vecs = np.linalg.eigh(A.toarray())
    part_vals, part_vecs = vals[:1] + 1e-3, vecs[:, :1]  # one eigenpair, slightly off
    best = float(np.linalg.norm(A @ part_vecs[:, 0] - part_vals[0] * part_vecs[:, 0]))

    def stalled(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", part_vals, part_vecs)

    monkeypatch.setattr(spla, "eigsh", stalled)
    argv = ["ham", "spectrum", str(h), "--dense-cap", "4", "--out", str(tmp_path / "r.json")]
    assert run_command(argv) == 2
    assert f"eigsh failed to converge for k=2, which='lowest' (best residual {best:.3e})" in capsys.readouterr().err
