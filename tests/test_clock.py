import numpy as np
import pytest

from stoqmap import (
    ContractError,
    QuantumCircuit,
    ResourceError,
    block_matrix,
    build_ff,
    build_stochastic_ff,
    clock_state_index,
    cnot,
    custom,
    ff_term_hamiltonians,
    gap_formulas,
    history_state,
    identity_gate,
    output_distribution,
    rot,
)
from oracles import legal_basis

MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)


def identity_circuit(n, L):
    return QuantumCircuit(n, tuple(identity_gate() for _ in range(L)))


def rot_cnot_circuit():
    return QuantumCircuit(2, (rot(0, 0.3), cnot(0, 1), rot(1, -0.7)))


def realize_term(ff, i):
    """Clock term i embedded in the full register."""
    return ff.terms[i].realize(ff.total_qubits)


def realize_parts(ff):
    """Sum of terms grouped by family: pin, clock, init, prop."""
    families = {}
    for i, term in enumerate(ff.terms):
        family = term.label.split("_")[0]
        families[family] = families.get(family, 0) + realize_term(ff, i)
    return families


def restricted_operator(ff):
    """init + prop in the legal clock basis; block diagonal with blocks M_|x|."""
    B = legal_basis(ff)
    parts = realize_parts(ff)
    H = parts.get("init", 0) + parts.get("prop", 0)
    return np.asarray(B.conj().T @ (H @ B))


# ------------------------------------------------------------------ gates

def test_rot_gate_matrix():
    theta = 0.3
    U = rot(0, theta).unitary()
    expected = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    assert np.allclose(U, expected)


def test_cnot_gate_matrix():
    U = cnot(0, 1).unitary()
    assert np.allclose(U, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def test_custom_gate_rejects_non_unitary():
    with pytest.raises(ContractError, match="unitary"):
        custom([0], [[1.0, 1.0], [0.0, 1.0]])


def test_custom_gate_rejects_a_nan_matrix():
    """nan fails every comparison, so a unitarity test written as "deviation > tol" would pass it."""
    with pytest.raises(ContractError, match="CUSTOM matrix is not unitary"):
        custom([0], [[np.nan, 0.0], [0.0, 1.0]])


def test_custom_gate_arity_limit():
    with pytest.raises(ContractError):
        custom([0, 1, 2], np.eye(8))


def test_circuit_rejects_out_of_range_qubit():
    with pytest.raises(ContractError, match="qubit"):
        QuantumCircuit(1, (cnot(0, 1),))


def test_statevector_simulation_matches_dense_product():
    circuit = rot_cnot_circuit()
    psi = np.zeros(4)
    psi[0] = 1.0
    U1 = np.kron(rot(0, 0.3).unitary(), np.eye(2))
    U2 = cnot(0, 1).unitary()
    U3 = np.kron(np.eye(2), rot(1, -0.7).unitary())
    assert np.allclose(circuit.final_state(), U3 @ U2 @ U1 @ psi)
    probs = output_distribution(circuit)
    assert abs(sum(probs.values()) - 1.0) < 1e-12


# ------------------------------------------------------- clock state layout

def test_clock_state_indices_are_unary_strings():
    # 1^(t+1) 0^(L-t) on L+1 qubits, big-endian
    assert clock_state_index(0, 3) == 0b1000
    assert clock_state_index(1, 3) == 0b1100
    assert clock_state_index(3, 3) == 0b1111
    with pytest.raises(ContractError):
        clock_state_index(4, 3)


# ---------------------------------------------------------------- build_ff

def test_ff_rejects_s_out_of_range():
    with pytest.raises(ContractError):
        build_ff(identity_circuit(1, 1), 0.7)
    with pytest.raises(ContractError):
        build_ff(identity_circuit(1, 1), -0.1)
    # n + L + 1 = 42 clock-register qubits: refused before anything is allocated
    with pytest.raises(ResourceError, match="clock register"):
        build_ff(QuantumCircuit(1, tuple(rot(0, 0.1) for _ in range(40))), 0.5)


S_MESSAGE, L_MESSAGE = r"^s must lie in \[0, 1/2\], got ", r"^need L >= 1$"


@pytest.mark.parametrize("call, message", [
    (lambda: build_ff(identity_circuit(1, 1), float("nan")), S_MESSAGE),
    (lambda: history_state(identity_circuit(1, 1), 0.6), S_MESSAGE),
    (lambda: block_matrix(0, -0.1, 2), S_MESSAGE),
    (lambda: block_matrix(0, 0.3, 0), L_MESSAGE),
    (lambda: gap_formulas(0.7, 2), S_MESSAGE),
    (lambda: gap_formulas(0.3, 0), L_MESSAGE),
])
def test_schedule_and_clock_length_refusals_keep_their_messages(call, message):
    with pytest.raises(ContractError, match=message):
        call()


def test_every_term_is_a_projector():
    for s in (0.1, 0.5):
        ff = build_ff(rot_cnot_circuit(), s)
        for i in range(len(ff.terms)):
            T = realize_term(ff, i).toarray()
            assert np.linalg.norm(T @ T - T) <= 1e-10
            assert np.linalg.norm(T - T.conj().T) <= 1e-12


def test_ground_at_s_zero_is_initial_basis_state():
    circuit = rot_cnot_circuit()
    ff = build_ff(circuit, 0.0)
    vals, vecs = np.linalg.eigh(ff.realize().toarray())
    assert abs(vals[0]) <= 1e-12
    assert vals[1] > 1e-6
    # |0^n> (x) |1 0^L>: work index 0, clock index c_0
    expect = clock_state_index(0, circuit.L)
    assert abs(abs(vecs[expect, 0]) - 1.0) <= 1e-10


def test_identity_circuit_ground_matches_history():
    circuit = identity_circuit(1, 2)
    ff = build_ff(circuit, 0.25)
    vals, vecs = np.linalg.eigh(ff.realize().toarray())
    assert abs(vals[0]) <= 1e-12
    h = history_state(circuit, 0.25)
    assert abs(abs(np.vdot(vecs[:, 0], h)) - 1.0) <= 1e-10


def test_ground_state_unique_for_positive_s():
    for circuit in (rot_cnot_circuit(), identity_circuit(2, 4)):
        for s in (0.1, 0.5):
            ff = build_ff(circuit, s)
            vals = np.linalg.eigvalsh(ff.realize().toarray())
            assert abs(vals[0]) <= 1e-10
            assert vals[1] > 1e-6


def test_history_state_annihilated_term_by_term():
    circuit = rot_cnot_circuit()
    ff = build_ff(circuit, 0.25)
    h = history_state(circuit, 0.25)
    for i in range(len(ff.terms)):
        assert np.linalg.norm(realize_term(ff, i) @ h) <= 1e-10


def test_non_unary_clock_patterns_cost_at_least_one():
    circuit = identity_circuit(1, 3)
    ff = build_ff(circuit, 0.5)
    parts = realize_parts(ff)
    pen = (parts["pin"] + parts["clock"]).toarray()
    L = circuit.L
    cdim = 1 << (L + 1)
    unary = {clock_state_index(t, L) for t in range(L + 1)}
    for cidx in range(cdim):
        energy = pen[cidx, cidx]  # work register |0>, any work state works
        if cidx in unary:
            assert abs(energy) <= 1e-12
        else:
            assert energy >= 1.0 - 1e-12


# ------------------------------------------------------------ history state

def test_history_weights_at_s_zero_and_half():
    circuit = identity_circuit(1, 2)
    h0 = history_state(circuit, 0.0)
    idx = clock_state_index(0, 2)
    assert abs(abs(h0[idx]) - 1.0) <= 1e-12

    h_half = history_state(circuit, 0.5)
    cdim = 8
    for t in range(3):
        amp = h_half[clock_state_index(t, 2)]
        assert abs(amp - 1.0 / np.sqrt(3.0)) <= 1e-12


def test_history_weight_ratios_at_quarter():
    circuit = identity_circuit(1, 2)
    h = history_state(circuit, 0.25)
    a = [h[clock_state_index(t, 2)] for t in range(3)]
    assert abs(a[1] / a[0] - np.sqrt(1.0 / 3.0)) <= 1e-12
    assert abs(a[2] / a[0] - 1.0 / 3.0) <= 1e-12


def test_clock_complete_overlap_is_inverse_depth():
    for L in range(1, 5):
        circuit = QuantumCircuit(1, tuple(rot(0, 0.2 * (j + 1)) for j in range(L)))
        h = history_state(circuit, 0.5)
        cdim = 1 << (L + 1)
        amps = h[clock_state_index(L, L)::cdim]
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0 / (L + 1)) <= 1e-12


# ------------------------------------------------------------ block matrices

def test_block_matrix_shape_and_small_case():
    M = block_matrix(0, 0.5, 1)
    assert np.allclose(M.entries, [[0.5, -0.5], [-0.5, 0.5]])
    assert np.allclose(M.spectrum(), [0.0, 1.0])
    with pytest.raises(ContractError):
        block_matrix(-1, 0.5, 1)


def test_weight_zero_block_annihilates_geometric_vector():
    for L in (1, 3, 5):
        for s in (0.1, 0.25, 0.5):
            M = block_matrix(0, s, L)
            r = np.sqrt(s / (1.0 - s))
            v = r ** np.arange(L + 1)
            assert np.max(np.abs(M.entries @ v)) <= 1e-12


def test_weight_one_block_ground_at_half():
    vals = block_matrix(1, 0.5, 3).spectrum()
    assert abs(vals[0] - (1.0 - np.cos(np.pi / 8.0))) <= 1e-10


def test_restricted_operator_is_union_of_hamming_blocks():
    circuit = rot_cnot_circuit()
    s = 0.25
    ff = build_ff(circuit, s)
    B = legal_basis(ff)
    overlaps = B.conj().T @ B
    assert np.max(np.abs(overlaps - np.eye(overlaps.shape[0]))) <= 1e-12
    got = np.sort(np.linalg.eigvalsh(restricted_operator(ff)))
    want = np.sort(
        np.concatenate(
            [
                block_matrix(bin(x).count("1"), s, circuit.L).spectrum()
                for x in range(1 << circuit.n)
            ]
        )
    )
    assert np.max(np.abs(got - want)) <= 1e-9


# ------------------------------------------------------------- gap formulas

def test_block_gap_formula_matches_brute_force_everywhere():
    for L in range(1, 7):
        for s in (0.1, 0.25, 0.5):
            block_gap, _ = gap_formulas(s, L)
            vals = block_matrix(0, s, L).spectrum()
            assert abs(vals[0]) <= 1e-10
            assert abs(vals[1] - block_gap) <= 1e-10


def test_full_gap_formula_exact_at_half():
    for L in range(1, 7):
        _, full_gap = gap_formulas(0.5, L)
        vals = block_matrix(1, 0.5, L).spectrum()
        assert abs(vals[0] - full_gap) <= 1e-10


def test_full_gap_formula_lower_bounds_weight_one_ground():
    # away from s = 1/2 the halved-angle formula sits strictly below the
    # actual weight-1 ground energy; it is the bound, not the value
    for L in range(1, 7):
        for s in (0.1, 0.25):
            _, full_gap = gap_formulas(s, L)
            vals = block_matrix(1, s, L).spectrum()
            assert vals[0] > full_gap + 1e-6


def test_gap_formula_values_at_depth_three():
    block_gap, full_gap = gap_formulas(0.5, 3)
    assert abs(block_gap - 0.2928932) <= 1e-7
    assert abs(full_gap - 0.0761205) <= 1e-7
    b0, f0 = gap_formulas(0.0, 4)
    assert b0 == 1.0 and f0 == 1.0


def test_full_hamiltonian_gap_matches_block_prediction_at_half():
    circuit = identity_circuit(1, 3)
    ff = build_ff(circuit, 0.5)
    vals = np.linalg.eigvalsh(ff.realize().toarray())
    _, full_gap = gap_formulas(0.5, 3)
    assert abs(vals[0]) <= 1e-10
    assert abs(vals[1] - full_gap) <= 1e-9


# ----------------------------------------------------- stochastic ff image

def test_stochastic_ff_rejects_complex_gate_by_name():
    phase = custom([0], [[1.0, 0.0], [0.0, 1.0j]])
    circuit = QuantumCircuit(1, (rot(0, 0.2), phase))
    with pytest.raises(ContractError, match="gate 1"):
        build_stochastic_ff(circuit, 0.5, 0.25)


def test_stochastic_ff_sum_annihilates_doubled_history():
    circuit = identity_circuit(1, 1)
    terms = build_stochastic_ff(circuit, 0.5, 0.25)
    total = sum(t.toarray() for t in terms)
    v = np.kron(history_state(circuit, 0.5), MINUS)
    assert np.linalg.norm(total @ v) <= 1e-10


def test_stochastic_ff_gap_ratio():
    rng = np.random.default_rng(7)
    circuit = QuantumCircuit(1, (rot(0, rng.uniform(0, np.pi)), rot(0, rng.uniform(0, np.pi))))
    s, p = 0.5, 0.25
    ff = build_ff(circuit, s)
    N = sum(H.N for H in ff_term_hamiltonians(ff))
    in_vals = np.linalg.eigvalsh(ff.realize().toarray())
    out = sum(t.toarray() for t in build_stochastic_ff(circuit, s, p))
    out_vals = np.linalg.eigvalsh(out)
    assert abs(out_vals[0]) <= 1e-10
    assert abs(out_vals[1] / in_vals[1] - p / N) <= 1e-9
