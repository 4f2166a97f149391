import importlib
import json
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph
import scipy.sparse.linalg
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from stoqmap import (
    DENSE_CAP,
    ContractError,
    HamiltonianPath,
    LocalHamiltonian,
    PathPiece,
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
    measure_and_decode,
    output_distribution,
    rot,
    run_command,
    save_circuit,
    sector_leakage,
    stoquastic_interpolation_path,
    stoquastize,
)

from stoqmap.pauli import _csr_entries
from stoqmap.spectra import DEGENERACY_TOL
from oracles import legal_basis, sample
from test_clock_path import four_part_path

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


def ones(u):
    return np.ones((u.size, 1))


def affine_path(parts, coefficients, sector=None):
    """One piece: the (dense or sparse) parts on the union of their stored entries, duplicates summed."""
    entries = [_csr_entries(sp.csr_matrix(M)) for M in parts]
    piece = PathPiece(1.0, *adiabatic._on_one_pattern(parts[0].shape[0], entries), coefficients)
    return HamiltonianPath((piece,), sector)


def linear_interpolation_path(A, B):
    """(1 - u) A + u B."""
    return affine_path([A, B], lambda u: np.column_stack([1.0 - u, u]))


def plus(piece, M, end=None):
    """piece with M added as one more part, of coefficient 1, over [previous end, end)."""
    rows, cols, _ = _csr_entries(piece.pattern)
    pattern, parts = adiabatic._on_one_pattern(
        piece.pattern.shape[0], [(rows, cols, part) for part in piece.parts] + [_csr_entries(M)])
    return PathPiece(piece.end if end is None else end, pattern, parts,
                     lambda u: np.column_stack([piece.coefficients(u), ones(u)]))


def pattern_blocks(H):
    """Every block of H's pattern, grouped by size: with every basis index reachable, no block is left out."""
    return adiabatic._pattern_blocks(H, np.ones(H.shape[0], dtype=bool))


def projector(path):
    """The sector's projector sum_r v_r v_r^dagger as a sparse matrix, built from path.sector."""
    index, vector = path.sector
    V = sp.csr_matrix((np.tile(vector, len(index)), (index.ravel(), np.repeat(np.arange(len(index)), index.shape[1]))),
                      shape=(path.dim, len(index)))
    return V @ V.conj().T


# ------------------------------------------------------------------- evolve

def test_constant_path_keeps_eigenstate():
    path = affine_path([np.diag([0.0, 1.0, 2.0, 3.0])], ones)
    init = np.array([1.0, 0.0, 0.0, 0.0])
    trace = evolve(path, T=5.0, steps=50, initial=init, target="ground")
    assert np.max(np.abs(trace.overlaps - 1.0)) <= 1e-12
    trace2 = evolve(path, T=5.0, steps=50, initial=init, target=init)
    assert np.max(np.abs(trace2.overlaps - 1.0)) <= 1e-12


def test_evolve_rejects_bad_inputs():
    H = sp.identity(4, format="csr")
    path = affine_path([H], ones)
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
    guarded = affine_path([H], ones, sector=(np.arange(4)[:, None], np.ones(1)))
    for target in ("ground", np.array([1.0, 0.0, 0.0, 0.0]), None):
        with pytest.raises(ContractError, match="dimension 3"):
            evolve(guarded, 1.0, 10, np.array([1.0, 0.0, 0.0]), target=target)


def test_evolve_refuses_a_non_finite_initial_state():
    """A NaN norm fails no comparison, so the normalization check alone would let it through."""
    path = affine_path([np.diag([0.0, 1.0])], ones)
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [np.nan, np.inf], [1.0, np.nan]):
        with pytest.raises(ContractError, match="finite and normalized"):
            evolve(path, 1.0, 4, np.array(bad), target=None)


def test_evolve_checks_every_sample_before_diagonalizing(monkeypatch):
    """dense_cap bounds blocks, not the register: the 16-dimensional samples split into a reachable
    6-state legal block, an idle 4-state block and six 1-state blocks."""
    circuit = QuantumCircuit(1, (rot(0, 0.4), rot(0, 0.2)))
    path, initial = ff_schedule_path(circuit), ff_initial(circuit)
    shapes = counting_stacked_solves(monkeypatch)
    for cap in (2, 5):  # below the idle 4-state and the reachable 6-state block, then below only the latter
        for target in (None, "ground"):
            with pytest.raises(ResourceError, match=f"exceeds the dense cap {cap}"):
                evolve(path, 1.0, 4, initial, target=target, dense_cap=cap)
    assert shapes == []  # refused before any block is solved
    trace = evolve(path, 1.0, 4, initial, target=None, dense_cap=8)
    assert shapes == [(1, 1, 6, 6)] * 4  # a batch holds 8**2 // 36 = 1 sample
    assert np.array_equal(trace.final_state, evolve(path, 1.0, 4, initial, target=None).final_state)
    # every block of one ground sample holds 36 + 16 + 6 = 58 entries, more than 6**2: one sample per batch
    ground = evolve(path, 1.0, 4, initial, target="ground", dense_cap=6)
    assert np.array_equal(ground.overlaps, evolve(path, 1.0, 4, initial, target="ground").overlaps)
    solved = len(shapes)
    with pytest.raises(ContractError, match="Hermitian"):  # a skew part is refused as its piece is built
        skew = affine_path([np.array([[0.0, 1.0], [0.0, 0.0]])], ones)
        evolve(skew, 1.0, 1, np.array([1.0, 0.0]), target=None)
    assert len(shapes) == solved


def full_register_evolve(path, T, steps, initial, target):
    """The propagator before blocking, kept as the oracle: one eigh of the whole sample per step.

    Returns the final state and the norms, overlaps and sector populations at every sample.
    """
    psi = np.asarray(initial, dtype=complex).copy()
    P = None if path.sector is None else projector(path)
    rows = []

    def record(u):
        if isinstance(target, str):
            vals, vecs = np.linalg.eigh(sample(path, u).toarray())
            ground = vecs[:, vals <= vals[0] + DEGENERACY_TOL]
            overlap = np.linalg.norm(ground.conj().T @ psi) ** 2
        else:
            overlap = abs(np.vdot(target, psi)) ** 2
        pop = 0.0 if path.sector is None else np.real(np.vdot(psi, P @ psi))
        rows.append((np.linalg.norm(psi), overlap, pop))

    record(0.0)
    for k in range(steps):
        vals, vecs = np.linalg.eigh(sample(path, (k + 0.5) / steps).toarray())
        psi = vecs @ (np.exp(-1j * vals * (T / steps)) * (vecs.conj().T @ psi))
        record((k + 1.0) / steps)
    return psi, np.array(rows)


def test_ground_space_across_two_blocks_matches_the_oracle():
    """A ground space split over blocks of two sizes: [[u, -1], [-1, 1 - u]] on {0, 1}, and its mirror
    [[1 - u, -1], [-1, u]] on {2, 3} joined to a level 5 on {4} by a stored coupling of coefficient 0,
    share their lowest eigenvalue at every u; a level 3 on {5} lies above it."""
    constant, joining = np.diag([0.0, 1.0, 1.0, 0.0, 5.0, 3.0]), np.zeros((6, 6))
    constant[[0, 1, 2, 3], [1, 0, 3, 2]] = -1.0
    joining[[3, 4], [4, 3]] = 1.0
    moving = np.diag([1.0, -1.0, -1.0, 1.0, 0.0, 0.0])
    path = affine_path([constant, moving, joining], lambda u: np.column_stack([np.ones(u.size), u, np.zeros(u.size)]))
    initial = np.array([0.6, 0.0, 0.48, 0.0, 0.0, 0.64])
    assert sorted(idx.shape for idx, _, _ in pattern_blocks(path.pieces[0].pattern)) == [(1, 1), (1, 2), (1, 3)]
    for u in (0.0, 0.3, 1.0):
        H = sample(path, u).toarray()
        lowest = [np.linalg.eigvalsh(H[a:b, a:b])[0] for a, b in ((0, 2), (2, 5), (5, 6))]
        assert abs(lowest[0] - lowest[1]) <= 1e-14 and lowest[2] > lowest[0] + 1.0
    T, steps = 12.0, 64
    want, rows = full_register_evolve(path, T, steps, initial, "ground")
    trace = evolve(path, T, steps, initial, target="ground")
    assert np.max(np.abs(trace.final_state - want)) <= 1e-12
    assert np.max(np.abs(trace.norms - rows[:, 0])) <= 1e-12
    assert np.max(np.abs(trace.overlaps - rows[:, 1])) <= 1e-12
    shares = []  # each degenerate block's part of the ground population at u = 0
    for a, b in ((0, 2), (2, 5)):
        vals, vecs = np.linalg.eigh(sample(path, 0.0).toarray()[a:b, a:b])
        shares.append(abs(vecs[:, 0] @ initial[a:b]) ** 2)
    assert min(shares) > 0.05 and abs(trace.overlaps[0] - sum(shares)) <= 1e-12


def counting_component_searches(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    search = adiabatic._components
    monkeypatch.setattr(adiabatic, "_components", counted)
    return calls


def legal_coupling(circuit, eps):
    """The FF path plus eps (|legal><illegal| + h.c.) between its start state and an illegal clock pattern."""
    path = ff_schedule_path(circuit)
    legal = clock_state_index(0, circuit.L)
    illegal = min(set(range(path.dim)) - set(path.sector[0][:, 0].tolist()))
    coupling = sp.csr_matrix(([eps, eps], ([legal, illegal], [illegal, legal])), shape=(path.dim, path.dim))
    return HamiltonianPath((plus(path.pieces[0], coupling),), path.sector)


def switched_extra(circuit):
    dim = 1 << (circuit.n + circuit.L + 1)
    a, b = clock_state_index(0, circuit.L), dim - 1
    return sp.csr_matrix(([0.3, 0.3], ([a, b], [b, a])), shape=(dim, dim))


def switched_path(circuit):
    """The FF path with an extra coupling while 1/4 <= u < 3/4, three pieces: the pattern changes twice."""
    path = ff_schedule_path(circuit)
    (ff,) = path.pieces
    head = PathPiece(0.25, ff.pattern, ff.parts, ff.coefficients)
    return HamiltonianPath((head, plus(ff, switched_extra(circuit), end=0.75), ff), path.sector)


def imaginary_path():
    """Purely imaginary couplings (0-2 and 1-3) over a diagonal that moves with u: coefficients 1 + u and 1."""
    skew = 0.7j * (np.eye(4, k=2) - np.eye(4, k=-2))
    return affine_path([np.diag([0.0, 1.0, 2.0, 3.0]), skew], lambda u: np.column_stack([1.0 + u, np.ones(u.size)]))


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
    if name.startswith("stoquastic"):
        Ha, Hb = interp_endpoints()
        if name == "stoquastic_flips":  # three pieces
            Hb = LocalHamiltonian.from_signed(2, [(-0.6, {0: "X"}), (-0.5, {1: "Z"}), (0.3, {1: "X"})])
        path = stoquastic_interpolation_path(Ha, Hb)
        # a ground run searches each piece twice: every block, then the reachable ones
        return path, np.kron([1.0, 0.0, 0.0, 0.0], MINUS), "ground", 2 * len(path.pieces)
    if name == "duplicates":  # the 0-1 coupling is stored as two entries that add up when the path is built
        constant = sp.csr_matrix((np.array([0.2, 0.3, 0.5, 1.0]), np.array([1, 1, 0, 2]), np.array([0, 2, 3, 4])),
                                 shape=(3, 3))
        moving = sp.csr_matrix(([1.0], ([1], [1])), shape=(3, 3))
        path = affine_path([constant, moving], lambda u: np.column_stack([np.ones(u.size), u]))
        return path, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), 1
    if name == "switched":
        return switched_path(ROT_CNOT_ROT), ff_initial(ROT_CNOT_ROT), history_state(ROT_CNOT_ROT, 0.5), 3
    return imaginary_path(), np.array([1.0, 0.0, 0.0, 0.0]), np.full(4, 0.5), 1


@pytest.mark.parametrize("name", ["ff0", "ff1", "ff2", "ff3", "stoquastic", "stoquastic_flips", "switched", "imaginary",
                                  "duplicates"])
def test_blocked_evolve_matches_full_register_oracle(name, monkeypatch):
    path, initial, target, searches = oracle_case(name)
    T, steps = 12.0, 64
    want, rows = full_register_evolve(path, T, steps, initial, target)
    calls = counting_component_searches(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. complex values cast to real
        trace = evolve(path, T, steps, initial, target=target)
    assert len(calls) == searches
    assert np.max(np.abs(trace.final_state - want)) <= 1e-12
    assert np.max(np.abs(trace.norms - rows[:, 0])) <= 1e-12
    assert np.max(np.abs(trace.overlaps - rows[:, 1])) <= 1e-12
    if path.sector is not None:
        assert np.max(np.abs(trace.sector_populations - rows[:, 2])) <= 1e-12


def test_piece_narrower_than_a_step_holds_no_sample(monkeypatch):
    """Three pieces whose middle one, [0.3, 0.31), holds no midpoint or record point of an 8-step run: it is
    never searched or solved, and the run matches the oracle, which samples the same points."""
    ff_path = ff_schedule_path(ROT_CNOT_ROT)
    (ff,) = ff_path.pieces
    head = PathPiece(0.3, ff.pattern, ff.parts, ff.coefficients)
    path = HamiltonianPath((head, plus(ff, switched_extra(ROT_CNOT_ROT), end=0.31), ff), ff_path.sector)
    initial, T, steps = ff_initial(ROT_CNOT_ROT), 12.0, 8
    for target, searches in ((history_state(ROT_CNOT_ROT, 0.5), 2), ("ground", 4)):
        want, rows = full_register_evolve(path, T, steps, initial, target)
        calls = counting_component_searches(monkeypatch)
        trace = evolve(path, T, steps, initial, target=target)
        assert len(calls) == searches  # the head and the tail, once more for a ground run
        assert np.max(np.abs(trace.final_state - want)) <= 1e-12
        assert np.max(np.abs(trace.overlaps - rows[:, 1])) <= 1e-12
        assert np.max(np.abs(trace.sector_populations - rows[:, 2])) <= 1e-12


def test_blocks_are_the_pattern_components():
    def shapes(path):
        return sorted(idx.shape for idx, _, _ in pattern_blocks(path.pieces[0].pattern))

    # ROT.CNOT.ROT on 2 + 4 qubits: 21 components of sizes 1, 4, 6 and 16
    assert shapes(ff_schedule_path(ROT_CNOT_ROT)) == [(1, 16), (2, 6), (6, 4), (12, 1)]
    Ha, Hb = interp_endpoints()
    assert shapes(stoquastic_interpolation_path(Ha, Hb)) == [(1, 8)]
    assert shapes(imaginary_path()) == [(2, 2)]
    # the ff path's u = 0 sample stores its zero hop entries, so it has the same blocks
    path = ff_schedule_path(ROT_CNOT_ROT)
    assert sorted(idx.shape for idx, _, _ in pattern_blocks(sample(path, 0.0))) == shapes(path)


def test_adiabatic_run_searches_components_once(monkeypatch, tmp_path):
    save_circuit(ROT_CNOT_ROT, str(tmp_path / "c.json"))
    calls = counting_component_searches(monkeypatch)
    argv = ["adiabatic", "run", str(tmp_path / "c.json"), "--T", "32", "--steps", "64", "--shots", "256"]
    assert run_command(argv + ["--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1


def csgraph_components(rows, cols, dim):
    """The oracle for adiabatic._components: scipy's connected_components on the same edges."""
    graph = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(dim, dim))
    return scipy.sparse.csgraph.connected_components(graph, directed=False)


def assert_components_match_csgraph(H, reach):
    """_components labels H's pattern as csgraph does, so _pattern_blocks returns the very same groups."""
    graph = sp.csr_matrix((np.ones(H.indices.size), H.indices, H.indptr), shape=H.shape)
    want_count, want_labels = scipy.sparse.csgraph.connected_components(graph, directed=False)
    rows, cols, _ = _csr_entries(H)
    count, labels = adiabatic._components(rows, cols, H.shape[0])
    assert count == want_count and np.array_equal(labels, want_labels)
    groups = adiabatic._pattern_blocks(H, reach)
    with mock.patch.object(adiabatic, "_components", csgraph_components):
        want = adiabatic._pattern_blocks(H, reach)
    assert len(groups) == len(want)
    for group, want_group in zip(groups, want):
        for got, expected in zip(group, want_group):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)


@st.composite
def csr_patterns(draw):
    """A stored pattern on 1 to 40 indices: entries one-sided or not, self-loops, explicit zeros, isolated
    indices and no entries at all, along with a one-sided chain through the indices in a random order (long
    chains take several hooking rounds); with a reach drawn over the basis."""
    dim = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)), max_size=3 * dim))
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(dim).tolist()
    pairs += list(zip(order, order[1:draw(st.integers(0, dim))]))
    rows, cols = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    values = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, -2.5]), min_size=len(pairs), max_size=len(pairs))))
    H = sp.csr_matrix((values, (rows, cols)), shape=(dim, dim))
    reach = np.array(draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
    return H, reach


@seed(20090601)
@settings(max_examples=300, deadline=None, database=None)
@given(csr_patterns())
def test_components_match_csgraph_on_drawn_patterns(case):
    assert_components_match_csgraph(*case)


@pytest.mark.parametrize("name", ["one index", "no entries", "self-loops", "one-sided chain", "ff0", "ff3",
                                  "stoquastic_flips", "switched", "duplicates", "13 qubits", "14 qubits"])
def test_components_match_csgraph_on_fixed_patterns(name):
    if name in ("one index", "no entries", "self-loops", "one-sided chain"):
        dim = 1 if name == "one index" else 9
        entries = {"one index": [], "no entries": [], "self-loops": [(i, i) for i in range(0, 9, 2)],
                   "one-sided chain": [(8, 5), (5, 7), (0, 7), (3, 3)]}[name]
        rows, cols = np.array(entries, dtype=np.int64).reshape(-1, 2).T
        patterns = [sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(dim, dim))]
        starts = [np.eye(1, dim, dim // 2).ravel()]
    elif name.endswith("qubits"):
        circuit = weight_zero_circuit(int(name[:2]) - 5)
        patterns, starts = [ff_schedule_path(circuit).pieces[0].pattern], [ff_initial(circuit)]
    else:
        path, initial, _, _ = oracle_case(name)
        patterns, starts = [piece.pattern for piece in path.pieces], [initial] * len(path.pieces)
    for pattern, start in zip(patterns, starts):
        for reach in (start != 0, np.ones(pattern.shape[0], dtype=bool), np.zeros(pattern.shape[0], dtype=bool)):
            assert_components_match_csgraph(pattern, reach)


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
    """dense_cap 64 lets a batch hold 64**2 // 256 = 16 samples of the one reachable 16 x 16 block."""
    path, initial, target = ff_schedule_path(ROT_CNOT_ROT), ff_initial(ROT_CNOT_ROT), history_state(ROT_CNOT_ROT, 0.5)
    want, rows = full_register_evolve(path, 12.0, 64, initial, target)
    searches = counting_component_searches(monkeypatch)
    shapes = counting_stacked_solves(monkeypatch)
    trace = evolve(path, 12.0, 64, initial, target=target, dense_cap=64)
    assert len(searches) == 1
    # 4 batches of 16 steps, one stacked solve of the reachable block in each
    assert shapes == [(16, 1, 16, 16)] * 4
    assert np.max(np.abs(trace.final_state - want)) <= 1e-12
    assert np.max(np.abs(trace.overlaps - rows[:, 1])) <= 1e-12


def test_sample_skewed_only_at_the_last_midpoint_is_refused(monkeypatch):
    """Only the last midpoint's sample is skewed, but its skew part is refused as the piece is built."""
    steps = 16
    path = ff_schedule_path(ROT_CNOT_ROT)
    (ff,) = path.pieces
    rows, cols, _ = _csr_entries(ff.pattern)
    skew = np.zeros(ff.pattern.nnz)
    skew[np.flatnonzero(rows != cols)[0]] = 0.5  # one side of one coupling

    def coefficients(u):  # the skew part's coefficient is nonzero only at the last midpoint
        return np.column_stack([ff.coefficients(u), u == (steps - 0.5) / steps])

    shapes = counting_stacked_solves(monkeypatch)
    with pytest.raises(ContractError, match="not Hermitian"):
        skewed = HamiltonianPath((PathPiece(1.0, ff.pattern, np.vstack([ff.parts, skew]), coefficients),),
                                 path.sector)
        evolve(skewed, 4.0, steps, ff_initial(ROT_CNOT_ROT), target=None)
    assert shapes == []
    evolve(path, 4.0, steps, ff_initial(ROT_CNOT_ROT), target=None)


def ff_block_of_size(circuit, m):
    """The basis indices of one component of size m of the FF path's pattern."""
    (ff,) = ff_schedule_path(circuit).pieces
    return next(idx[0] for idx, _, _ in pattern_blocks(ff.pattern) if idx.shape[1] == m)


def test_skew_inside_an_idle_block_is_refused(monkeypatch):
    """A block the state never reaches is never formed, but a skew part inside it is refused with its piece."""
    path = ff_schedule_path(ROT_CNOT_ROT)
    (ff,) = path.pieces
    block = ff_block_of_size(ROT_CNOT_ROT, 6)
    assert not set(block.tolist()) & set(path.sector[0][:, 0].tolist())  # illegal clock states only
    rows, cols, _ = _csr_entries(ff.pattern)
    skew = np.zeros(ff.pattern.nnz)
    skew[np.flatnonzero(np.isin(rows, block) & (rows != cols))[0]] = 0.5  # one side of one coupling in the block
    shapes = counting_stacked_solves(monkeypatch)
    with pytest.raises(ContractError, match="not Hermitian"):
        skewed = HamiltonianPath((PathPiece(1.0, ff.pattern, np.vstack([ff.parts, skew]),
                                            lambda u: np.column_stack([ff.coefficients(u), ones(u)])),), path.sector)
        evolve(skewed, 4.0, 16, ff_initial(ROT_CNOT_ROT), target=None)
    assert shapes == []  # refused before the reachable block is solved
    evolve(path, 4.0, 16, ff_initial(ROT_CNOT_ROT), target=None)
    assert shapes == [(16, 1, 16, 16)]


def test_block_idle_in_one_piece_is_solved_once_a_later_piece_joins_it(monkeypatch):
    """The FF path with a legal-illegal coupling while 1/4 <= u < 3/4: a 6-state block of illegal clock
    states is idle in the first piece, joins the legal block in the second and stays reachable in the third."""
    block = ff_block_of_size(ROT_CNOT_ROT, 6)
    path = ff_schedule_path(ROT_CNOT_ROT)
    (ff,) = path.pieces
    legal = clock_state_index(0, ROT_CNOT_ROT.L)
    coupling = sp.csr_matrix(([0.2, 0.2], ([legal, block[0]], [block[0], legal])), shape=(path.dim, path.dim))
    head = PathPiece(0.25, ff.pattern, ff.parts, ff.coefficients)
    joined = HamiltonianPath((head, plus(ff, coupling, end=0.75), ff), path.sector)
    initial, target = ff_initial(ROT_CNOT_ROT), history_state(ROT_CNOT_ROT, 0.5)
    want, rows = full_register_evolve(joined, 12.0, 64, initial, target)
    shapes = counting_stacked_solves(monkeypatch)
    trace = evolve(joined, 12.0, 64, initial, target=target)
    assert shapes == [(16, 1, 16, 16), (32, 1, 22, 22), (16, 1, 6, 6), (16, 1, 16, 16)]
    assert np.max(np.abs(trace.final_state[block])) > 1e-3  # the joined block holds part of the state
    assert np.max(np.abs(trace.final_state - want)) <= 1e-12
    assert np.max(np.abs(trace.norms - rows[:, 0])) <= 1e-12
    assert np.max(np.abs(trace.overlaps - rows[:, 1])) <= 1e-12
    assert np.max(np.abs(trace.sector_populations - rows[:, 2])) <= 1e-12
    assert sector_leakage(trace) > 1e-6


def test_stoquastic_flips_from_a_state_across_blocks(monkeypatch):
    """Three pieces (Z1 and X0 change sign) on 3 qubits + ancilla, whose pattern splits into four
    4-state blocks by qubits 1 and 2; the state starts in two of them and never enters the others."""
    Ha = LocalHamiltonian.from_signed(3, [(1.0, {0: "X"}), (0.5, {1: "Z"}), (0.7, {2: "Z"})])
    Hb = LocalHamiltonian.from_signed(3, [(-0.6, {0: "X"}), (-0.5, {1: "Z"}), (0.4, {0: "Z", 1: "Z"}), (0.3, {2: "Z"})])
    path = stoquastic_interpolation_path(Ha, Hb)
    assert len(path.pieces) == 3
    assert [idx.shape for idx, _, _ in pattern_blocks(path.pieces[0].pattern)] == [(4, 4)]
    work = np.zeros(8)
    work[[0, 2]] = [0.6, 0.8]  # qubit 1 reads 0 and 1, qubit 2 reads 0: two of the four blocks
    initial = np.kron(work, MINUS)
    want, rows = full_register_evolve(path, 12.0, 64, initial, "ground")
    shapes = counting_stacked_solves(monkeypatch)
    trace = evolve(path, 12.0, 64, initial, target="ground")
    # per piece: every block at its 32, 8 and 25 record points for the ground overlap, then the two
    # reachable blocks at its 32, 8 and 24 midpoints for the steps
    assert shapes == [(32, 4, 4, 4), (32, 2, 4, 4), (8, 4, 4, 4), (8, 2, 4, 4), (25, 4, 4, 4), (24, 2, 4, 4)]
    assert np.max(np.abs(trace.final_state - want)) <= 1e-12
    assert np.max(np.abs(trace.norms - rows[:, 0])) <= 1e-12
    assert np.max(np.abs(trace.overlaps - rows[:, 1])) <= 1e-12
    assert np.max(np.abs(trace.sector_populations - rows[:, 2])) <= 1e-12


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


def test_path_parts_are_held_to_their_own_scale():
    """A skew of 1e-9 in a part of scale 1 is refused, although the sum with a part of scale 100 passes."""
    big = 100.0 * np.eye(2)
    skewed = np.array([[1.0, 1e-9], [0.0, 1.0]])
    assert classify_module._is_hermitian(big + skewed)  # against the sample's scale the skew would pass
    with pytest.raises(ContractError, match="not Hermitian"):
        affine_path([big, skewed], lambda u: np.column_stack([np.ones(u.size), u]))
    affine_path([big, skewed + skewed.T], lambda u: np.column_stack([np.ones(u.size), u]))


def test_complex_coefficients_are_refused_before_any_solve(monkeypatch):
    """Hermitian parts with complex coefficients make a non-Hermitian sample: exp(iu) (X + Z)."""
    path = affine_path([np.array([[1.0, 1.0], [1.0, -1.0]])], lambda u: np.exp(1j * u)[:, None])
    shapes = counting_stacked_solves(monkeypatch)
    for target in (None, "ground", np.array([1.0, 0.0])):
        with pytest.raises(ContractError, match="coefficients must be real"):
            evolve(path, 1.0, 4, np.array([1.0, 0.0]), target=target)
    assert shapes == []


def test_idle_block_above_the_cap_is_never_formed(monkeypatch):
    """A reachable 2-state block next to an idle 4-state chain: dense_cap 3 bounds only the block that is
    solved, so a vector run goes through unchanged, while a ground run must solve the chain too."""
    constant, moving = np.zeros((6, 6)), np.diag([1.0, -1.0, 0.5, 0.0, -0.5, 1.0])
    constant[[0, 1], [1, 0]] = 0.7
    constant[[2, 3, 3, 4, 4, 5], [3, 2, 4, 3, 5, 4]] = -0.4
    path = affine_path([constant, moving], lambda u: np.column_stack([np.ones(u.size), u]))
    initial = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert sorted(idx.shape for idx, _, _ in pattern_blocks(path.pieces[0].pattern)) == [(1, 2), (1, 4)]
    shapes = counting_stacked_solves(monkeypatch)
    capped = evolve(path, 4.0, 16, initial, target=initial, dense_cap=3)
    assert shapes == [(2, 1, 2, 2)] * 8  # a batch holds 3**2 // 2**2 = 2 samples of the one solved block
    default = evolve(path, 4.0, 16, initial, target=initial)
    assert np.array_equal(capped.final_state, default.final_state)
    assert np.array_equal(capped.overlaps, default.overlaps)
    with pytest.raises(ResourceError, match="dimension 4 exceeds the dense cap 3"):
        evolve(path, 4.0, 16, initial, target="ground", dense_cap=3)


def test_vector_evolve_at_13_qubits_matches_expm_multiply():
    """n = 4, L = 8: the blocked propagator against scipy's expm_multiply (Al-Mohy and Higham, SIAM J. Sci.
    Comput. 33, 2011) applied to each midpoint sample over the whole 8192-state register."""
    circuit = weight_zero_circuit(8)
    path, initial = ff_schedule_path(circuit), ff_initial(circuit)
    assert path.dim == 8192
    T, steps = 16.0, 16
    trace = evolve(path, T, steps, initial, target=initial)
    psi = initial.astype(complex)
    for k in range(steps):
        psi = scipy.sparse.linalg.expm_multiply(-1j * (T / steps) * sample(path, (k + 0.5) / steps), psi)
    assert np.max(np.abs(psi[initial == 0])) > 1e-3  # the state has left its start
    assert np.max(np.abs(trace.final_state - psi)) <= 1e-12


def per_step_evolve(generator, P, T, steps, initial, target):
    """evolve's propagation one step at a time, from a per-sample generator: each sample canonicalized,
    its blocks solved alone through _eigh and applied with two einsums, the sector read through P @ psi.

    Returns the final state and the norms, overlaps and sector populations at every sample.
    """
    psi = np.asarray(initial, dtype=complex).copy()
    rows = []

    def record():
        rows.append((np.linalg.norm(psi), abs(np.vdot(target, psi)) ** 2, np.real(np.vdot(psi, P @ psi))))

    record()
    for k in range(steps):
        H = classify_module._as_csr(generator((k + 0.5) / steps))
        for idx, entries, slots in pattern_blocks(H):
            b, m = idx.shape
            stack = np.zeros(b * m * m, dtype=H.dtype)
            stack[slots] = H.data[entries]
            vals, vecs = classify_module._eigh(stack.reshape(b, m, m), DENSE_CAP)
            amplitudes = np.einsum("bji,bj->bi", vecs.conj(), psi[idx]) * np.exp(-1j * vals * (T / steps))
            psi[idx] = np.einsum("bij,bj->bi", vecs, amplitudes)
        record()
    return psi, np.array(rows)


@pytest.mark.parametrize("name", ["ff0", "ff1", "switched"])
def test_batched_evolve_is_bitwise_the_per_step_loop(name):
    """The oracle builds each sample with the earlier per-sample construction and reads the legal
    sector through its sparse projector B B^dagger (see test_legal_projector_matches_legal_basis_span)."""
    path, initial, target, _ = oracle_case(name)
    circuit = ROT_CNOT_ROT if name == "switched" else FF_CIRCUITS[int(name[2:])]
    four = four_part_path(circuit)

    def generator(u):
        return four(u) + switched_extra(circuit) if name == "switched" and 0.25 <= u < 0.75 else four(u)

    want, rows = per_step_evolve(generator, projector(path), 12.0, 64, initial, target)
    trace = evolve(path, 12.0, 64, initial, target=target)
    assert np.array_equal(trace.final_state, want)
    assert np.array_equal(trace.norms, rows[:, 0])
    assert np.array_equal(trace.overlaps, rows[:, 1])
    assert np.array_equal(trace.sector_populations, rows[:, 2])


def test_vector_target_evolve_builds_no_sample(monkeypatch):
    """evolve reads every sample, midpoint or record point, from its piece's coefficient product: no
    target builds a CSR per sample. The CSR matrices it does build (the graph of each component search)
    do not grow with the step count."""
    def refuse(*args, **kwargs):
        raise AssertionError("evolve built a per-sample CSR")

    path, initial, target, _ = oracle_case("ff0")
    targets = (target, "ground", None)
    want = [evolve(path, 12.0, 64, initial, target=t) for t in targets]
    for module in (adiabatic, classify_module):
        monkeypatch.setattr(module, "_as_csr", refuse, raising=False)
    built = []

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    init = sp.csr_matrix.__init__
    monkeypatch.setattr(sp.csr_matrix, "__init__", counted)
    for t, w in zip(targets, want):
        counts = []
        for steps in (8, 64):
            built.clear()
            trace = evolve(path, 12.0, steps, initial, target=t)
            counts.append(len(built))
        assert counts[0] == counts[1]
        assert np.array_equal(trace.final_state, w.final_state)
        if t is not None:
            assert np.array_equal(trace.overlaps, w.overlaps)


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
        P = projector(ff_schedule_path(circuit)).toarray()
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
            got = sample(path, u).toarray()
            want = build_ff(circuit, u / 2.0).realize().toarray()
            assert got.dtype == want.dtype
            assert np.max(np.abs(got - want)) <= 1e-14
            sample(path, u).eliminate_zeros()  # in place; must not reach later samples
    with pytest.raises(ContractError, match="u must lie"):
        sample(ff_schedule_path(base), 1.5)


def weight_zero_block(s, L):
    """M_0(s), H^FF(s) on span{psi_j (x) |c_j>}: s, 1, ..., 1, 1 - s on the diagonal, -sqrt(s(1-s)) beside it."""
    hop = np.sqrt(s * (1.0 - s))
    return np.diag([s] + [1.0] * (L - 1) + [1.0 - s]) - hop * (np.eye(L + 1, k=1) + np.eye(L + 1, k=-1))


def weight_zero_circuit(L):
    """n = 4 work qubits under L alternating ROT and CNOT gates: an (L + 5)-qubit clock register."""
    return QuantumCircuit(4, tuple(rot(i % 4, 0.3 + 0.1 * i) if i % 2 == 0 else cnot(i % 4, (i + 1) % 4)
                                   for i in range(L)))


def clock_runs(tmp_path, circuit, T, steps, caps):
    """The results of one adiabatic run of circuit per --dense-cap argument list in caps."""
    save_circuit(circuit, str(tmp_path / "c.json"))
    runs = []
    for cap in caps:
        argv = ["adiabatic", "run", str(tmp_path / "c.json"), "--T", str(T), "--steps", str(steps), "--shots", "256",
                "--out", str(tmp_path / "r.json")]
        assert run_command(argv + cap) == 0
        with open(tmp_path / "r.json", encoding="utf-8") as fh:
            runs.append(json.load(fh)["results"])
    return runs


def assert_matches_weight_zero_block(results, T, steps, L):
    phi = np.zeros(L + 1, dtype=complex)
    phi[0] = 1.0
    for k in range(steps):
        vals, vecs = np.linalg.eigh(weight_zero_block((k + 0.5) / steps / 2.0, L))
        phi = vecs @ (np.exp(-1j * vals * (T / steps)) * (vecs.T @ phi))
    assert results["n"] == 4 and results["L"] == L
    assert abs(results["final_overlap"] - abs(phi.sum()) ** 2 / (L + 1)) <= 1e-10
    assert abs(results["clock_success_probability"] - abs(phi[L]) ** 2) <= 1e-10


def test_adiabatic_run_at_13_qubits_matches_the_weight_zero_block(tmp_path, monkeypatch):
    """n = 4, L = 8: a 2^13-dimensional register, of which the state only ever reaches one 36-state block.
    The dense cap bounds that block, not the register, so the default cap and 8192 give the same run."""
    T, steps = 32.0, 64
    shapes = counting_stacked_solves(monkeypatch)
    runs = clock_runs(tmp_path, weight_zero_circuit(8), T, steps, [[], ["--dense-cap", "8192"]])
    assert shapes == [(steps, 1, 36, 36)] * 2
    assert runs[0] == runs[1]
    assert_matches_weight_zero_block(runs[0], T, steps, 8)


def test_adiabatic_run_at_14_qubits_under_the_default_cap(tmp_path, monkeypatch):
    """n = 4, L = 9: the largest clock register MAX_QUBITS allows, four times the default dense cap;
    the state only ever reaches one 40-state block."""
    T, steps = 32.0, 64
    shapes = counting_stacked_solves(monkeypatch)
    (results,) = clock_runs(tmp_path, weight_zero_circuit(9), T, steps, [[]])
    assert shapes == [(steps, 1, 40, 40)]
    assert_matches_weight_zero_block(results, T, steps, 9)


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


def test_stoquastic_path_is_the_stoquastized_interpolation():
    """Every sample is stoquastize((1-u) Ha + u Hb) to 1e-12. With no string changing sign it is one
    two-part piece of coefficients (1-u, u); a string of both ends that changes sign splits the path."""
    Ha, Hb = interp_endpoints()
    # X0 changes sign at u = 1/1.6 and Z1 at u = 1/2, so one two-part piece would be wrong in between
    flipped = LocalHamiltonian.from_signed(2, [(-0.6, {0: "X"}), (-0.5, {1: "Z"}), (0.3, {1: "X"})])
    grid = np.linspace(0.0, 1.0, 41)
    for A, B, ends in [(Ha, Hb, [1.0]), (Ha, flipped, [0.5, 1.0 / 1.6, 1.0])]:
        path = stoquastic_interpolation_path(A, B)
        assert [piece.end for piece in path.pieces] == ends
        assert all(len(piece.parts) == 2 for piece in path.pieces)
        for u in grid:
            want = stoquastize(A.scaled(1.0 - u) + B.scaled(u)).realize().toarray()
            assert np.max(np.abs(sample(path, u).toarray() - want)) <= 1e-12
    path = stoquastic_interpolation_path(Ha, Hb)
    assert np.array_equal(path.pieces[0].coefficients(grid), np.column_stack([1.0 - grid, grid]))
    one_piece = [stoquastize(H).realize().toarray() for H in (Ha, flipped)]
    u = 0.55
    naive = (1.0 - u) * one_piece[0] + u * one_piece[1]
    assert np.max(np.abs(naive - stoquastize(Ha.scaled(1.0 - u) + flipped.scaled(u)).realize().toarray())) > 0.1


def test_injected_sector_coupling_leaks():
    Ha, Hb = interp_endpoints()
    clean = stoquastic_interpolation_path(Ha, Hb)
    coupler = sp.kron(sp.identity(4, format="csr"),
                      sp.csr_matrix(np.diag([1.0, -1.0])), format="csr")
    noisy = HamiltonianPath(tuple(plus(piece, 1e-3 * coupler) for piece in clean.pieces), clean.sector)
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


def test_state_that_never_passes_the_clock_decodes_nothing():
    circuit = QuantumCircuit(2, (rot(0, 0.4), cnot(0, 1)))
    report = measure_and_decode(ff_initial(circuit), circuit, shots=100, seed=1)  # clock time 0
    assert report.clock_success_probability == 0.0
    assert report.clock_success_count == 0 and report.decoded_counts == {}
    assert report.decoded_distribution_exact == {key: 0.0 for key in ("00", "01", "10", "11")}
    assert report.clock_success_frequency == 0.0


def test_measure_rejects_layout_mismatch():
    circuit = identity_circuit(1, 2)
    with pytest.raises(ContractError, match="dimension"):
        measure_and_decode(np.zeros(8), circuit, shots=1)
    with pytest.raises(ContractError, match="shots must be nonnegative"):
        measure_and_decode(history_state(circuit, 0.5), circuit, shots=-1)


def test_measure_refuses_a_zero_or_non_finite_state():
    """Such a state has no distribution to sample; it was once divided by its zero or NaN total."""
    circuit = identity_circuit(1, 2)
    h = history_state(circuit, 0.5)
    bad = [np.zeros(h.size), np.where(np.arange(h.size) == 3, np.nan, h), np.where(np.arange(h.size) == 0, np.inf, h)]
    for state in bad:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's invalid-value warning included
            with pytest.raises(ContractError, match="^state must be finite and nonzero$"):
                measure_and_decode(state, circuit, shots=1)


def test_measure_deterministic_for_seed():
    circuit = QuantumCircuit(1, (rot(0, 0.7), rot(0, -0.2)))
    h = history_state(circuit, 0.5)
    a = measure_and_decode(h, circuit, shots=2000, seed=42)
    b = measure_and_decode(h, circuit, shots=2000, seed=42)
    assert a.decoded_counts == b.decoded_counts
    assert a.clock_success_count == b.clock_success_count
