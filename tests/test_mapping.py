import numpy as np
import pytest
import scipy.sparse.linalg as spla

from stoqmap import (
    ContractError,
    LocalHamiltonian,
    ResourceError,
    MappedHamiltonian,
    add_ancilla_penalty,
    add_penalty_complex,
    build_ff,
    build_matrix,
    classify,
    clock_state_index,
    ff_term_hamiltonians,
    history_state,
    random_instance,
    rot,
    sector_spectrum,
    sector_vector_z4,
    stochastize,
    stochastize_complex,
    stochastize_ff,
    stoquastize,
    QuantumCircuit,
)

from oracles import sector_isometry

X = np.array([[0.0, 1.0], [1.0, 0.0]])
MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)


def ham(n, items):
    return LocalHamiltonian.from_signed(n, items)


# ------------------------------------------------------------- sign map (Z2)

def test_stoquastize_minus_z_spectrum():
    mapped = stoquastize(ham(1, [(-1.0, {0: "Z"})]))
    vals = np.linalg.eigvalsh(mapped.realize().toarray())
    assert np.allclose(vals, [-1.0, -1.0, -1.0, 1.0])
    assert np.allclose(np.sort(np.real(sector_spectrum(mapped, "-"))), [-1.0, 1.0])


def test_stoquastize_x_is_minus_xx():
    mapped = stoquastize(ham(1, [(1.0, {0: "X"})]))
    assert np.allclose(mapped.realize().toarray(), -np.kron(X, X))
    got = mapped.sector_operator("-").toarray()
    assert np.allclose(got, X)


def test_stoquastize_all_negative_keeps_identity_ancilla():
    # -X has T entries all +1, so every ancilla factor is the identity
    mapped = stoquastize(ham(1, [(-1.0, {0: "X"})]))
    assert np.allclose(mapped.realize().toarray(), np.kron(-X, np.eye(2)))


def test_stoquastize_output_is_stoquastic():
    for seed in range(6):
        H = random_instance(3, seed=seed)
        M = stoquastize(H).realize().toarray()
        off = M - np.diag(np.diag(M))
        assert np.max(off) <= 1e-12


def test_stoquastize_rejects_complex_entries():
    with pytest.raises(ContractError, match="complex"):
        stoquastize(ham(1, [(1.0, {0: "Y"})]))


def test_negation_duality():
    H = random_instance(3, seed=4)
    M = stochastize(H).realize()
    assert classify(-M).stoquastic


# ------------------------------------------------------- stochastic map (Z2)

def test_stochastize_z_explicit_matrix():
    mapped = stochastize(ham(1, [(1.0, {0: "Z"})]))
    want = np.zeros((4, 4))
    want[0, 0] = want[1, 1] = 1.0  # |0><0| (x) I
    want[2, 3] = want[3, 2] = 1.0  # |1><1| (x) X
    assert np.allclose(mapped.realize().toarray(), want)
    assert np.allclose(mapped.sector_operator("-").toarray(), np.diag([1.0, -1.0]))


def test_stochastize_x_plus_z():
    H = ham(1, [(1.0, {0: "X"}), (1.0, {0: "Z"})])
    mapped = stochastize(H)
    assert mapped.normalization == 2.0
    vals = np.sort(np.real(sector_spectrum(mapped, "-")))
    assert np.allclose(vals, [-np.sqrt(2) / 2, np.sqrt(2) / 2])


def test_stochastize_column_sums_one():
    for seed in range(6):
        H = random_instance(3, seed=seed)
        if not H.num_terms:
            continue
        M = stochastize(H).realize().toarray()
        assert np.max(np.abs(M.sum(axis=0) - 1.0)) < 1e-12
        assert M.min() >= -1e-12


def test_stochastize_empty_rejected():
    with pytest.raises(ContractError):
        stochastize(LocalHamiltonian.from_signed(1, []))


def test_sectors_are_invariant_subspaces():
    H = random_instance(2, seed=8)
    mapped = stochastize(H)
    M = mapped.realize().toarray()
    for label in mapped.sector_labels:
        V = sector_isometry(mapped, label).toarray()
        P = V @ V.conj().T
        assert np.max(np.abs(M @ P - P @ M)) < 1e-10


# ------------------------------------------------------------------- penalty

def test_penalty_z_quarter_spectrum():
    mapped = add_ancilla_penalty(stochastize(ham(1, [(1.0, {0: "Z"})])), 0.25)
    vals = np.linalg.eigvalsh(mapped.realize().toarray())
    assert np.allclose(vals, [-0.25, 0.25, 1.0, 1.0])
    # ground of H recovered after rescaling by N/p
    assert abs(vals[0] * mapped.normalization / 0.25 + 1.0) < 1e-12


def test_penalty_preserves_stochasticity():
    H = random_instance(2, seed=3)
    mapped = add_ancilla_penalty(stochastize(H), 0.25)
    M = mapped.realize().toarray()
    assert np.max(np.abs(M.sum(axis=0) - 1.0)) < 1e-12
    assert np.max(np.abs(M.sum(axis=1) - 1.0)) < 1e-12


def test_penalty_split_strict():
    for seed in range(5):
        H = random_instance(3, seed=seed)
        if not H.num_terms:
            continue
        N = H.N
        for p in (0.1, 0.25):
            mapped = add_ancilla_penalty(stochastize(H), p)
            vals = np.linalg.eigvalsh(mapped.realize().toarray())
            low, high = vals[: 1 << 3], vals[1 << 3:]
            want = np.sort(np.linalg.eigvalsh(build_matrix(H).toarray())) * p / N
            assert np.max(np.abs(low - want)) < 1e-9
            assert low.max() < high.min()


def test_penalty_p_range():
    mapped = stochastize(ham(1, [(1.0, {0: "Z"})]))
    with pytest.raises(ContractError):
        add_ancilla_penalty(mapped, 0.0)
    with pytest.raises(ContractError):
        add_ancilla_penalty(mapped, 1.0)
    warned = add_ancilla_penalty(mapped, 0.5)
    assert warned.warnings  # p >= 1/3 loses the split guarantee


def test_penalty_requires_stochastic_input():
    with pytest.raises(ContractError):
        add_ancilla_penalty(stoquastize(ham(1, [(1.0, {0: "Z"})])), 0.25)


# -------------------------------------------------------------- Z4 phase map

def test_z4_cycle_eigenvectors():
    F = np.eye(4)[:, (np.arange(4) - 1) % 4]  # F|l> = |l-1 mod 4>
    assert np.allclose(np.linalg.matrix_power(F, 4), np.eye(4))
    for j in range(4):
        v = sector_vector_z4(j)
        assert np.allclose(F @ v, (1j**j) * v)


def test_z4_y_is_permutation():
    mapped = stochastize_complex(ham(1, [(1.0, {0: "Y"})]))
    M = mapped.realize().toarray()
    flags = classify(M)
    assert flags.permutation
    assert np.allclose(np.sort(np.real(sector_spectrum(mapped, "v1"))), [-1.0, 1.0])


def test_z4_sector_decomposition_identities():
    H = random_instance(2, seed=6, include_y=True)
    mapped = stochastize_complex(H)
    want = build_matrix(H).toarray() / mapped.normalization
    assert np.max(np.abs(mapped.sector_operator("v1").toarray() - want)) < 1e-12
    assert np.max(np.abs(mapped.sector_operator("v3").toarray() - want.conj())) < 1e-12


def test_z4_real_input_self_conjugate():
    H = random_instance(2, seed=2)
    mapped = stochastize_complex(H)
    assert np.max(np.abs((mapped.sector_operator("v1") - mapped.sector_operator("v3")).toarray())) < 1e-12


def test_z4_column_sums():
    for seed in range(5):
        H = random_instance(2, seed=seed, include_y=True)
        M = stochastize_complex(H).realize().toarray()
        assert np.max(np.abs(M.sum(axis=0) - 1.0)) < 1e-12
        assert M.min() >= -1e-12


# ------------------------------------------------------------------ doubling

def test_doubling_y_quarter():
    mapped = stochastize_complex(ham(1, [(1.0, {0: "Y"})]))
    pen = add_penalty_complex(mapped, 0.25)
    vals = np.linalg.eigvalsh(pen.realize().toarray())
    assert abs(vals[0] - vals[1]) < 1e-12
    assert vals[2] - vals[1] > 1e-6


def test_doubling_zero_hamiltonian():
    # a zero Hamiltonian is an empty term list: the penalty alone remains
    # and its kernel (work register (x) |->_first-ancilla) is 4-dimensional
    zero = MappedHamiltonian(
        n=1, ancilla_count=2, weights=np.zeros(0), rows=np.zeros((0, 8), dtype=np.int64),
        normalization=0.0, kind="stochastic-z4",
    )
    pen = add_penalty_complex(zero, 0.25)
    vals = np.linalg.eigvalsh(pen.realize().toarray())
    assert abs(vals[0]) < 1e-12
    assert abs(vals[1]) < 1e-12


def test_doubling_conjugate_pair():
    H = random_instance(2, seed=1, include_y=True)
    pen = add_penalty_complex(stochastize_complex(H), 0.25)
    vals, vecs = np.linalg.eigh(pen.realize().toarray())
    assert abs(vals[0] - vals[1]) < 1e-10
    P = vecs[:, :2] @ vecs[:, :2].conj().T
    # ground space is closed under entrywise conjugation
    w = vecs[:, 0]
    assert np.linalg.norm(P @ w.conj() - w.conj()) < 1e-8


def test_penalty_complex_p_range():
    mapped = stochastize_complex(ham(1, [(1.0, {0: "Y"})]))
    with pytest.raises(ContractError):
        add_penalty_complex(mapped, 1.0 / 3.0)
    with pytest.raises(ContractError):
        add_penalty_complex(mapped, 0.0)


# -------------------------------------------------- frustration-free mapping

def test_stochastize_ff_single_projector():
    H1 = ham(1, [(0.5, {}), (-0.5, {0: "Z"})])  # |1><1|
    outs = stochastize_ff([H1], 0.25)
    total = sum(o.toarray() for o in outs)
    state = np.kron(np.array([1.0, 0.0]), MINUS)
    assert np.linalg.norm(total @ state) < 1e-12


def test_stochastize_ff_frustrated_input():
    p0 = ham(1, [(0.5, {}), (0.5, {0: "Z"})])
    p1 = ham(1, [(0.5, {}), (-0.5, {0: "Z"})])
    total = sum(o.toarray() for o in stochastize_ff([p0, p1], 0.25))
    assert np.linalg.eigvalsh(total)[0] > 1e-6


def test_stochastize_ff_gap_scaling():
    circuit = QuantumCircuit(1, (rot(0, 0.4), rot(0, 0.9)))
    ff = build_ff(circuit, 0.5)
    terms = ff_term_hamiltonians(ff)
    p = 0.25
    outs = stochastize_ff(terms, p)
    total = sum(o.toarray() for o in outs)
    in_vals = np.linalg.eigvalsh(ff.realize().toarray())
    out_vals = np.linalg.eigvalsh(total)
    N = sum(t.N for t in terms)
    assert abs(out_vals[0]) < 1e-10
    assert abs((out_vals[1] - out_vals[0]) - p / N * (in_vals[1] - in_vals[0])) < 1e-10


def test_stochastize_ff_annihilates_history_tensor_minus():
    circuit = QuantumCircuit(1, (rot(0, 0.7),))
    ff = build_ff(circuit, 0.5)
    outs = stochastize_ff(ff_term_hamiltonians(ff), 0.25)
    hist = history_state(circuit, 0.5)
    state = np.kron(hist, MINUS)
    for o in outs:
        assert np.linalg.norm(o @ state) < 1e-10


def test_stochastize_ff_terms_psd_and_stochastic():
    circuit = QuantumCircuit(1, (rot(0, 0.3),))
    ff = build_ff(circuit, 0.5)
    for o in stochastize_ff(ff_term_hamiltonians(ff), 0.25):
        flags = classify(o)
        assert flags.psd
        assert flags.nonnegative_entries
        assert flags.column_stochastic
        assert flags.doubly_stochastic


def test_stochastize_ff_rejects_non_psd():
    with pytest.raises(ContractError, match="positive semidefinite"):
        stochastize_ff([ham(1, [(1.0, {0: "Z"})])], 0.25)


def test_stochastize_ff_checks_psd_on_each_terms_support(monkeypatch):
    # lowest eigenvalue 0 and -0.1 on the 3-qubit support {2, 9, 13}; no ARPACK run over the register
    def no_arpack(*args, **kwargs):
        raise AssertionError("psd was checked on the whole register")

    monkeypatch.setattr(spla, "eigsh", no_arpack)
    for shift, n in ((1.5, 13), (1.5, 14), (1.4, 14)):
        H = ham(n, [(shift, {}), (1.0, {2: "Z", 9: "X"}), (0.5, {13 - (n == 13): "X"})])
        if shift < 1.5:
            with pytest.raises(ContractError, match="positive semidefinite"):
                stochastize_ff([H], 0.25)
        elif n == 14:  # accepted; the one-ancilla map then needs 15 qubits
            with pytest.raises(ResourceError, match="15 qubits exceed"):
                stochastize_ff([H], 0.25)
        else:
            (out,) = stochastize_ff([H], 0.25)
            assert out.shape == (1 << 14, 1 << 14)
            assert np.allclose(out.sum(axis=0), 1.0) and out.data.min() >= 0.0


def test_stochastize_ff_refuses_a_register_above_the_cap():
    # a legal LocalHamiltonian on 10^9 qubits is refused at the cap before any per-qubit work
    for n in (10**9, 10**20):
        with pytest.raises(ResourceError, match=f"{n} qubits exceed the 14-qubit realization cap"):
            stochastize_ff([ham(n, [(1.0, {}), (1.0, {0: "Z"})])], 0.25)


def test_stochastize_ff_rejects_bad_p():
    H1 = ham(1, [(0.5, {}), (-0.5, {0: "Z"})])
    with pytest.raises(ContractError):
        stochastize_ff([H1], 1.0 / 3.0)
