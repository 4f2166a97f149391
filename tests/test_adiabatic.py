import importlib
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph

from stoqmap import (
    DENSE_CAP,
    ContractError,
    HamiltonianPath,
    LocalHamiltonian,
    QuantumCircuit,
    ResourceError,
    block_matrix,
    build_ff,
    build_matrix,
    clock_state_index,
    cnot,
    custom,
    evolve,
    ff_schedule_path,
    history_state,
    identity_gate,
    legal_basis,
    linear_interpolation_path,
    measure_and_decode,
    output_distribution,
    rot,
    run_command,
    save_circuit,
    sector_leakage,
    stoquastic_interpolation_path,
)

from stoqmap.spectra import DEGENERACY_TOL

adiabatic = importlib.import_module("stoqmap.adiabatic")
classify_module = importlib.import_module("stoqmap.classify")

MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def identity_circuit(n, L):
    return QuantumCircuit(n, tuple(identity_gate() for _ in range(L)))


def ff_initial(circuit):
    dim = 1 << (circuit.n + circuit.L + 1)
    v = np.zeros(dim)
    v[clock_state_index(0, circuit.L)] = 1.0
    return v


def interp_endpoints():
    Ha = LocalHamiltonian.from_signed(2, [(1.0, {0: "X"}), (0.5, {1: "Z"})])
    Hb = LocalHamiltonian.from_signed(2, [(0.8, {0: "Z", 1: "X"}), (0.3, {1: "X"})])
    return Ha, Hb


# ------------------------------------------------------------------- evolve

def test_constant_path_keeps_eigenstate():
    H = sp.csr_matrix(np.diag([0.0, 1.0, 2.0, 3.0]))
    path = HamiltonianPath(lambda u: H)
    init = np.array([1.0, 0.0, 0.0, 0.0])
    trace = evolve(path, T=5.0, steps=50, initial=init, target="ground")
    assert np.max(np.abs(trace.overlaps - 1.0)) <= 1e-12
    trace2 = evolve(path, T=5.0, steps=50, initial=init, target=init)
    assert np.max(np.abs(trace2.overlaps - 1.0)) <= 1e-12


def test_evolve_rejects_bad_inputs():
    H = sp.identity(4, format="csr")
    path = HamiltonianPath(lambda u: H)
    with pytest.raises(ContractError, match="normalized"):
        evolve(path, 1.0, 10, np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ContractError, match="step"):
        evolve(path, 1.0, 0, np.array([1.0, 0.0, 0.0, 0.0]))
    for T in (float("nan"), float("inf"), -3.0, 0.0):
        with pytest.raises(ContractError, match="T must be finite and positive"):
            evolve(path, T, 10, np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ContractError, match="dimension 3"):
        evolve(path, 1.0, 10, np.array([1.0, 0.0, 0.0]), target=None)
    # the u = 0 target and sector population read the state before the first step
    guarded = HamiltonianPath(lambda u: H, sector_projector=sp.identity(4, format="csr"))
    for target in ("ground", np.array([1.0, 0.0, 0.0, 0.0]), None):
        with pytest.raises(ContractError, match="dimension 3"):
            evolve(guarded, 1.0, 10, np.array([1.0, 0.0, 0.0]), target=target)


def test_evolve_checks_every_sample_before_diagonalizing():
    circuit = QuantumCircuit(1, (rot(0, 0.4), rot(0, 0.2)))  # 16-dimensional samples
    with pytest.raises(ResourceError, match="dense cap 8"):
        evolve(ff_schedule_path(circuit), 1.0, 4, ff_initial(circuit), target=None, dense_cap=8)
    skew = HamiltonianPath(lambda u: sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])))
    with pytest.raises(ContractError, match="Hermitian"):
        evolve(skew, 1.0, 1, np.array([1.0, 0.0]), target=None)


def full_register_evolve(path, T, steps, initial, target):
    """The propagator before blocking, kept as the oracle: one eigh of the whole sample per step.

    Returns the final state and the norms, overlaps and sector populations at every sample.
    """
    psi = np.asarray(initial, dtype=complex).copy()
    rows = []

    def record(u):
        if isinstance(target, str):
            vals, vecs = np.linalg.eigh(path.generator(u).toarray())
            ground = vecs[:, vals <= vals[0] + DEGENERACY_TOL]
            overlap = np.linalg.norm(ground.conj().T @ psi) ** 2
        else:
            overlap = abs(np.vdot(target, psi)) ** 2
        pop = 0.0 if path.sector_projector is None else np.real(np.vdot(psi, path.sector_projector @ psi))
        rows.append((np.linalg.norm(psi), overlap, pop))

    record(0.0)
    for k in range(steps):
        vals, vecs = np.linalg.eigh(path.generator((k + 0.5) / steps).toarray())
        psi = vecs @ (np.exp(-1j * vals * (T / steps)) * (vecs.conj().T @ psi))
        record((k + 1.0) / steps)
    return psi, np.array(rows)


def counting_component_searches(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    search = scipy.sparse.csgraph.connected_components
    monkeypatch.setattr(scipy.sparse.csgraph, "connected_components", counted)
    return calls


def legal_coupling(circuit, eps):
    """eps (|legal><illegal| + h.c.) between the FF path's start state and an illegal clock pattern."""
    path = ff_schedule_path(circuit)
    legal = clock_state_index(0, circuit.L)
    illegal = next(i for i in range(path.sector_projector.shape[0]) if path.sector_projector[i, i] == 0)
    coupling = sp.csr_matrix(([eps, eps], ([legal, illegal], [illegal, legal])), shape=path.sector_projector.shape)
    return HamiltonianPath(lambda u: path.generator(u) + coupling, path.sector_projector)


def switched_path(circuit):
    """The FF path with an extra coupling while 1/4 <= u < 3/4: the pattern changes twice."""
    path = ff_schedule_path(circuit)
    a, b = clock_state_index(0, circuit.L), path.sector_projector.shape[0] - 1
    extra = sp.csr_matrix(([0.3, 0.3], ([a, b], [b, a])), shape=path.sector_projector.shape)
    return HamiltonianPath(lambda u: path.generator(u) + extra if 0.25 <= u < 0.75 else path.generator(u),
                           path.sector_projector)


def imaginary_path():
    """Purely imaginary couplings (0-2 and 1-3) over a diagonal that moves with u."""
    skew = 0.7j * (np.eye(4, k=2) - np.eye(4, k=-2))
    return HamiltonianPath(lambda u: sp.csr_matrix(np.diag([0.0, 1.0, 2.0, 3.0]) * (1.0 + u) + skew))


PHASE = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0)
ROT_CNOT_ROT = QuantumCircuit(2, (rot(0, 0.4), cnot(0, 1), rot(1, 0.9)))
FF_CIRCUITS = [
    ROT_CNOT_ROT,
    QuantumCircuit(2, (custom((1,), PHASE), identity_gate(), cnot(1, 0), rot(0, 0.2))),
    ROT_CNOT_ROT.padded(),
    QuantumCircuit(3, (rot(0, 0.5), cnot(0, 1), rot(1, 0.9), cnot(1, 2), rot(2, 0.3))),
]


def oracle_case(name):
    """(path, initial state, target, component searches per run) for one oracle comparison."""
    if name.startswith("ff"):
        circuit = FF_CIRCUITS[int(name[2:])]
        return ff_schedule_path(circuit), ff_initial(circuit), history_state(circuit, 0.5), 1
    if name == "stoquastic":
        Ha, Hb = interp_endpoints()
        return stoquastic_interpolation_path(Ha, Hb), np.kron([1.0, 0.0, 0.0, 0.0], MINUS), "ground", 1
    if name == "duplicates":  # the 0-1 coupling is stored as two entries that add up
        return HamiltonianPath(lambda u: sp.csr_matrix(
            (np.array([0.2, 0.3, 0.5, u, 1.0]), np.array([1, 1, 0, 1, 2]), np.array([0, 2, 4, 5])), shape=(3, 3)
        )), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), 1
    if name == "switched":
        return switched_path(ROT_CNOT_ROT), ff_initial(ROT_CNOT_ROT), history_state(ROT_CNOT_ROT, 0.5), 3
    return imaginary_path(), np.array([1.0, 0.0, 0.0, 0.0]), np.full(4, 0.5), 1


@pytest.mark.parametrize("name", ["ff0", "ff1", "ff2", "ff3", "stoquastic", "switched", "imaginary", "duplicates"])
def test_blocked_evolve_matches_full_register_oracle(name, monkeypatch):
    path, initial, target, searches = oracle_case(name)
    T, steps = 12.0, 64
    want, rows = full_register_evolve(path, T, steps, initial, target)
    calls = counting_component_searches(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. csgraph casting complex values to real
        trace = evolve(path, T, steps, initial, target=target)
    assert len(calls) == searches
    assert np.max(np.abs(trace.final_state - want)) <= 1e-12
    assert np.max(np.abs(trace.norms - rows[:, 0])) <= 1e-12
    assert np.max(np.abs(trace.overlaps - rows[:, 1])) <= 1e-12
    if path.sector_projector is not None:
        assert np.max(np.abs(trace.sector_populations - rows[:, 2])) <= 1e-12


def test_blocks_are_the_pattern_components():
    def shapes(path):
        return sorted(idx.shape for idx, _, _ in adiabatic._pattern_blocks(path.generator(0.3)))

    # ROT.CNOT.ROT on 2 + 4 qubits: 21 components of sizes 1, 4, 6 and 16
    assert shapes(ff_schedule_path(ROT_CNOT_ROT)) == [(1, 16), (2, 6), (6, 4), (12, 1)]
    Ha, Hb = interp_endpoints()
    assert shapes(stoquastic_interpolation_path(Ha, Hb)) == [(1, 8)]
    assert shapes(imaginary_path()) == [(2, 2)]
    # the ff path's u = 0 sample stores its zero hop entries, so it has the same blocks
    path = ff_schedule_path(ROT_CNOT_ROT)
    assert shapes(HamiltonianPath(lambda u: path.generator(0.0))) == shapes(path)


def test_adiabatic_run_searches_components_once(monkeypatch, tmp_path):
    save_circuit(ROT_CNOT_ROT, str(tmp_path / "c.json"))
    calls = counting_component_searches(monkeypatch)
    argv = ["adiabatic", "run", str(tmp_path / "c.json"), "--T", "32", "--steps", "64", "--shots", "256"]
    assert run_command(argv + ["--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1


def counting_stacked_solves(monkeypatch):
    """Shapes of the stacks evolve hands to classify._eigh."""
    shapes = []

    def counted(M, dense_cap, vectors=True, tol=classify_module.HERMITIAN_TOL):
        shapes.append(M.shape)
        return real(M, dense_cap, vectors, tol)

    real = classify_module._eigh
    monkeypatch.setattr(adiabatic, "_eigh", counted)
    return shapes


def test_batches_under_a_small_dense_cap_still_match_the_oracle(monkeypatch):
    """dense_cap 64 lets a batch hold 64**2 // 436 = 9 of the 64-dimensional samples' blocks."""
    path, initial, target = ff_schedule_path(ROT_CNOT_ROT), ff_initial(ROT_CNOT_ROT), history_state(ROT_CNOT_ROT, 0.5)
    want, rows = full_register_evolve(path, 12.0, 64, initial, target)
    searches = counting_component_searches(monkeypatch)
    shapes = counting_stacked_solves(monkeypatch)
    trace = evolve(path, 12.0, 64, initial, target=target, dense_cap=64)
    assert len(searches) == 1
    # 8 batches (7 of 9 steps, then 1), one stacked solve per block size in each
    assert [shape[0] for shape in shapes] == [9] * 28 + [1] * 4
    assert np.max(np.abs(trace.final_state - want)) <= 1e-12
    assert np.max(np.abs(trace.overlaps - rows[:, 1])) <= 1e-12


def test_sample_skewed_only_at_the_last_midpoint_is_refused():
    """The skewed sample shares its batch and pattern with Hermitian ones; its block is still refused."""
    steps = 16
    path = ff_schedule_path(ROT_CNOT_ROT)

    def generator(u):
        H = path.generator(u)
        if u == (steps - 0.5) / steps:
            rows = np.repeat(np.arange(H.shape[0]), np.diff(H.indptr))
            H.data[np.flatnonzero(rows != H.indices)[0]] += 0.5  # one side of one coupling
        return H

    skewed = HamiltonianPath(generator, path.sector_projector)
    with pytest.raises(ContractError, match="not Hermitian"):
        evolve(skewed, 4.0, steps, ff_initial(ROT_CNOT_ROT), target=None)
    evolve(path, 4.0, steps, ff_initial(ROT_CNOT_ROT), target=None)


def test_stack_blocks_are_held_to_their_own_scale():
    big = 100.0 * np.eye(2)
    skewed = np.array([[1.0, 1e-9], [0.0, 1.0]])  # skew 1e-9 at scale 1: above HERMITIAN_TOL
    stack = np.stack([big, skewed])
    # against the stack's largest entry the skew would pass
    assert 1e-9 <= classify_module.HERMITIAN_TOL * np.abs(stack).max()
    assert classify_module._is_hermitian(big)
    assert not classify_module._is_hermitian(skewed)
    assert not classify_module._is_hermitian(stack)
    assert not classify_module._is_hermitian(stack[:, None])  # (2, 1, 2, 2), as evolve stacks steps
    assert classify_module._is_hermitian(np.stack([big, np.eye(2)]))
    with pytest.raises(ContractError, match="not Hermitian"):
        classify_module._eigh(stack, 2)


def per_step_evolve(path, T, steps, initial, target):
    """evolve's propagation one step at a time: each sample's blocks solved alone, through _eigh."""
    psi = np.asarray(initial, dtype=complex).copy()
    overlaps = [abs(np.vdot(target, psi)) ** 2]
    for k in range(steps):
        H = classify_module._as_csr(path.generator((k + 0.5) / steps))
        for idx, entries, slots in adiabatic._pattern_blocks(H):
            b, m = idx.shape
            stack = np.zeros(b * m * m, dtype=H.dtype)
            stack[slots] = H.data[entries]
            vals, vecs = classify_module._eigh(stack.reshape(b, m, m), DENSE_CAP)
            amplitudes = np.einsum("bji,bj->bi", vecs.conj(), psi[idx]) * np.exp(-1j * vals * (T / steps))
            psi[idx] = np.einsum("bij,bj->bi", vecs, amplitudes)
        overlaps.append(abs(np.vdot(target, psi)) ** 2)
    return psi, np.array(overlaps)


@pytest.mark.parametrize("name", ["ff0", "ff1", "switched"])
def test_batched_evolve_is_bitwise_the_per_step_loop(name):
    path, initial, target, _ = oracle_case(name)
    want, overlaps = per_step_evolve(path, 12.0, 64, initial, target)
    trace = evolve(path, 12.0, 64, initial, target=target)
    assert np.array_equal(trace.final_state, want)
    assert np.array_equal(trace.overlaps, overlaps)


def test_injected_legal_illegal_coupling_leaks_from_ff_path():
    """Blocks come from the sample's stored entries, so a legal-illegal entry merges blocks and leaks."""
    clean = evolve(ff_schedule_path(ROT_CNOT_ROT), 12.0, 64, ff_initial(ROT_CNOT_ROT), target=None)
    assert sector_leakage(clean) <= 1e-12
    noisy = evolve(legal_coupling(ROT_CNOT_ROT, 1e-3), 12.0, 64, ff_initial(ROT_CNOT_ROT), target=None)
    assert sector_leakage(noisy) > 1e-12


def test_norm_drift_stays_tiny():
    circuit = identity_circuit(1, 2)
    trace = evolve(
        ff_schedule_path(circuit), T=50.0, steps=500,
        initial=ff_initial(circuit), target=None,
    )
    assert np.max(np.abs(trace.norms - 1.0)) <= 1e-8


def test_legal_projector_matches_legal_basis_span():
    phase = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0)
    circuits = [
        QuantumCircuit(1, (rot(0, 0.7),)),
        QuantumCircuit(2, (rot(0, 0.4), cnot(0, 1), rot(1, 0.9))),
        QuantumCircuit(1, (custom((0,), phase), rot(0, 0.3), identity_gate())),
        QuantumCircuit(2, (custom((1,), phase), identity_gate(), cnot(1, 0), rot(0, 0.2))),
    ]
    for circuit in circuits:
        B = legal_basis(build_ff(circuit, 0.25))
        P = ff_schedule_path(circuit).sector_projector.toarray()
        assert np.max(np.abs(P - B @ B.conj().T)) <= 1e-12


def test_ff_path_matches_build_ff_at_every_sample():
    phase = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0)
    base = QuantumCircuit(2, (rot(0, 0.4), cnot(0, 1), rot(1, 0.9)))
    circuits = [
        base,
        QuantumCircuit(2, (custom((1,), phase), identity_gate(), cnot(1, 0), rot(0, 0.2))),
        base.padded(),
    ]
    for circuit in circuits:
        path = ff_schedule_path(circuit)
        for u in (0.0, 0.25, 0.5, 0.75, 1.0):
            got = path.generator(u).toarray()
            want = build_ff(circuit, u / 2.0).realize().toarray()
            assert got.dtype == want.dtype
            assert np.max(np.abs(got - want)) <= 1e-14
            path.generator(u).eliminate_zeros()  # in place; must not reach later samples
    with pytest.raises(ContractError, match="u must lie"):
        ff_schedule_path(base).generator(1.5)


def test_ff_path_evolution_matches_weight_zero_block():
    """Full-space evolve equals propagating the x = 0 block M_0(s) with the same midpoint steps.

    From |0...0> (x) |c_0> the state stays in span{psi_j (x) |c_j>}, where
    H^FF(s) acts as block_matrix(0, s, L); mapping the block state back
    through the circuit's statevectors gives an oracle built without build_ff.
    """
    phase = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0)
    circuits = [
        QuantumCircuit(1, (rot(0, 0.7),)),
        QuantumCircuit(2, (rot(0, 0.4), cnot(0, 1))),
        QuantumCircuit(2, (custom((1,), phase), identity_gate(), cnot(1, 0))),
        QuantumCircuit(2, (rot(0, 0.4), cnot(0, 1), rot(1, 0.9), custom((0,), phase))),
    ]
    T, steps = 6.0, 24
    for circuit in circuits:
        L = circuit.L
        final = evolve(ff_schedule_path(circuit), T, steps, ff_initial(circuit), target=None).final_state
        phi = np.zeros(L + 1, dtype=complex)
        phi[0] = 1.0
        for k in range(steps):
            M = block_matrix(0, (k + 0.5) / steps / 2.0, L).entries
            phi = scipy.linalg.expm(-1j * (T / steps) * M) @ phi
        assert np.max(np.abs(phi)) < 0.99  # the state has spread along the clock
        want = np.zeros(final.size, dtype=complex)
        cdim = 1 << (L + 1)
        for j, psi in enumerate(circuit.statevectors()):
            want[clock_state_index(j, L)::cdim] += phi[j] * psi
        assert np.max(np.abs(final - want)) <= 1e-10


def test_ff_path_reaches_history_state():
    circuit = identity_circuit(1, 2)
    trace = evolve(
        ff_schedule_path(circuit), T=200.0, steps=400,
        initial=ff_initial(circuit), target=history_state(circuit, 0.5),
    )
    assert trace.overlaps[-1] >= 0.99


def test_final_overlap_monotone_in_total_time():
    for L in range(1, 5):
        circuit = identity_circuit(1, L)
        path = ff_schedule_path(circuit)
        init = ff_initial(circuit)
        target = history_state(circuit, 0.5)
        finals = []
        for T in (60.0, 120.0, 240.0):
            trace = evolve(path, T, max(64, int(1.5 * T)), init, target=target)
            finals.append(trace.overlaps[-1])
        assert finals[0] <= finals[1] + 1e-3
        assert finals[1] <= finals[2] + 1e-3
        assert finals[-1] >= 0.99


# -------------------------------------------------------- protected sectors

def test_sign_free_path_never_leaks():
    Ha, Hb = interp_endpoints()
    path = stoquastic_interpolation_path(Ha, Hb)
    psi0 = np.zeros(4)
    psi0[0] = 1.0
    init = np.kron(psi0, MINUS)
    trace = evolve(path, T=10.0, steps=100, initial=init, target=None)
    assert np.min(trace.sector_populations) >= 1.0 - 1e-10
    assert sector_leakage(trace) <= 1e-10


def test_sign_free_path_matches_direct_evolution():
    Ha, Hb = interp_endpoints()
    direct = linear_interpolation_path(build_matrix(Ha), build_matrix(Hb))
    psi0 = np.zeros(4)
    psi0[0] = 1.0
    T, steps = 7.0, 140
    ref = evolve(direct, T, steps, psi0, target=None).final_state
    mapped = stoquastic_interpolation_path(Ha, Hb)
    got = evolve(mapped, T, steps, np.kron(psi0, MINUS), target=None).final_state
    work = got.reshape(-1, 2) @ MINUS
    assert np.linalg.norm(work - ref) <= 1e-8


def test_injected_sector_coupling_leaks():
    Ha, Hb = interp_endpoints()
    clean = stoquastic_interpolation_path(Ha, Hb)
    coupler = sp.kron(sp.identity(4, format="csr"),
                      sp.csr_matrix(np.diag([1.0, -1.0])), format="csr")
    noisy = HamiltonianPath(
        generator=lambda u: clean.generator(u) + 1e-3 * coupler,
        sector_projector=clean.sector_projector,
    )
    init = np.kron(np.array([1.0, 0.0, 0.0, 0.0]), MINUS)
    trace = evolve(noisy, T=5.0, steps=50, initial=init, target=None)
    assert sector_leakage(trace) > 1e-12


def test_initial_state_outside_sector_leaks_fully():
    Ha, Hb = interp_endpoints()
    path = stoquastic_interpolation_path(Ha, Hb)
    init = np.kron(np.array([1.0, 0.0, 0.0, 0.0]), PLUS)
    trace = evolve(path, T=1.0, steps=10, initial=init, target=None)
    assert abs(sector_leakage(trace) - 1.0) <= 1e-12


def test_leakage_needs_protected_sector():
    path = linear_interpolation_path(sp.identity(4), sp.identity(4))
    trace = evolve(path, 1.0, 5, np.array([1.0, 0.0, 0.0, 0.0]), target=None)
    with pytest.raises(ContractError, match="sector"):
        sector_leakage(trace)


# -------------------------------------------------------- measure and decode

def test_clock_success_probability_quarter():
    circuit = QuantumCircuit(1, tuple(rot(0, 0.1 * (j + 1)) for j in range(3)))
    h = history_state(circuit, 0.5)
    report = measure_and_decode(h, circuit, shots=10, seed=3)
    assert abs(report.clock_success_probability - 0.25) <= 1e-15


def test_padded_success_probability():
    # padding with L identities raises success from 1/(L+1) to (L+1)/(2L+1)
    for L in (1, 2, 3):
        circuit = QuantumCircuit(1, tuple(rot(0, 0.2) for _ in range(L)))
        h = history_state(circuit.padded(), 0.5)
        report = measure_and_decode(h, circuit, shots=10, seed=0, padded=True)
        assert abs(report.clock_success_probability - (L + 1) / (2 * L + 1)) <= 1e-12


def test_padded_decode_is_exact_circuit_output():
    circuit = QuantumCircuit(2, (rot(0, 0.4), cnot(0, 1)))
    h = history_state(circuit.padded(), 0.5)
    report = measure_and_decode(h, circuit, shots=10, seed=0, padded=True)
    want = output_distribution(circuit)
    for key, prob in want.items():
        assert abs(report.decoded_distribution_exact[key] - prob) <= 1e-12


def test_single_x_always_decodes_one():
    x_gate = custom([0], [[0.0, 1.0], [1.0, 0.0]])
    circuit = QuantumCircuit(1, (x_gate,))
    h = history_state(circuit, 0.5)
    report = measure_and_decode(h, circuit, shots=500, seed=11)
    assert report.clock_success_count > 0
    assert set(report.decoded_counts) == {"1"}
    assert abs(report.decoded_distribution_exact["1"] - 1.0) <= 1e-12


def test_decoded_counts_match_circuit_distribution():
    circuits = [
        QuantumCircuit(1, tuple(rot(0, 0.3 * (j + 1)) for j in range(3))),
        QuantumCircuit(2, (rot(0, 0.5), cnot(0, 1), rot(1, 0.9), cnot(1, 0))),
    ]
    for circuit in circuits:
        h = history_state(circuit, 0.5)
        report = measure_and_decode(h, circuit, shots=10_000, seed=5)
        want = output_distribution(circuit)
        total = sum(report.decoded_counts.values())
        assert total > 0
        tv = 0.5 * sum(
            abs(report.decoded_counts.get(k, 0) / total - want[k]) for k in want
        )
        assert tv <= 0.05


def test_measure_rejects_layout_mismatch():
    circuit = identity_circuit(1, 2)
    with pytest.raises(ContractError, match="dimension"):
        measure_and_decode(np.zeros(8), circuit, shots=1)
    with pytest.raises(ContractError, match="shots must be nonnegative"):
        measure_and_decode(history_state(circuit, 0.5), circuit, shots=-1)


def test_measure_deterministic_for_seed():
    circuit = QuantumCircuit(1, (rot(0, 0.7), rot(0, -0.2)))
    h = history_state(circuit, 0.5)
    a = measure_and_decode(h, circuit, shots=2000, seed=42)
    b = measure_and_decode(h, circuit, shots=2000, seed=42)
    assert a.decoded_counts == b.decoded_counts
    assert a.clock_success_count == b.clock_success_count
