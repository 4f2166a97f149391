"""Oracles and solve counts for the two fast paths that decide what gets diagonalized.

spectral_report asks for eigenvectors only when the Perron overlap reads
them (symmetric column-stochastic input) and otherwise solves for
eigenvalues alone. classify sets psd = False with no solve when a
Hermitian matrix has a diagonal entry with real part below -tol, since
lambda_min <= Re A_ii. Here both are compared with a full eigh oracle on
generated inputs, and the number of dense solves each command makes is
counted through run_command.
"""

import csv
import importlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from stoqmap import (
    DENSE_CAP,
    LocalHamiltonian,
    QuantumCircuit,
    add_ancilla_penalty,
    block_matrix,
    build_matrix,
    classify,
    cnot,
    random_instance,
    rot,
    run_command,
    save_circuit,
    save_hamiltonian,
    spectral_report,
    stochastize,
)
from stoqmap.spectra import DEGENERACY_TOL

adiabatic_module = importlib.import_module("stoqmap.adiabatic")
classify_module = importlib.import_module("stoqmap.classify")

TOL = 1e-10
# Entries a decade or more away from tol, so rounding cannot move a flag; -TOL is the exact boundary.
DIAGONAL = [-TOL, -10 * TOL, -0.5, 0.0, 10 * TOL, 0.25, 1.5]
# Every module that imports the dense solve gate by name.
SOLVER_USERS = ("classify", "spectra", "clock", "protocols", "adiabatic")


def stored(draw, D):
    """D as a dense array, canonical CSR, or CSR with each entry split into two stored duplicates."""
    how = draw(st.sampled_from(["dense", "csr", "duplicates"]))
    if how == "dense":
        return D
    if how == "csr":
        return sp.csr_matrix(D)
    rows, cols = np.nonzero(D)
    half = D[rows, cols] / 2
    return sp.csr_matrix((np.concatenate([half, D[rows, cols] - half]),
                          (np.tile(rows, 2), np.tile(cols, 2))), shape=D.shape)


@st.composite
def hermitian_matrices(draw):
    """Real or complex Hermitian matrices: generic, psd (possibly rank deficient), or with drawn diagonals."""
    d = draw(st.integers(1, 6))
    complex_entries = draw(st.booleans())
    entries = st.lists(st.floats(-1.0, 1.0, width=32), min_size=d * d, max_size=d * d)
    G = np.reshape(draw(entries), (d, d))
    if complex_entries:
        G = G + 1j * np.reshape(draw(entries), (d, d))
    kind = draw(st.sampled_from(["generic", "psd", "psd_with_diagonal", "diagonal_only"]))
    if kind == "generic":
        D = (G + G.conj().T) / 2
    else:
        B = G[:, : draw(st.integers(1, d))]
        D = B @ B.conj().T
        if kind != "psd":
            diagonal = np.array(draw(st.lists(st.sampled_from(DIAGONAL), min_size=d, max_size=d)))
            D = D * (kind == "psd_with_diagonal") * (1 - np.eye(d)) + np.diag(diagonal)
    return stored(draw, D)


def counted_solves(monkeypatch):
    """Record (vectors, ndim) for every call into classify._eigh, however a module imported it."""
    calls = []
    real = classify_module._eigh

    def counted(M, dense_cap, vectors=True, tol=classify_module.HERMITIAN_TOL):
        calls.append((vectors, len(M.shape)))
        return real(M, dense_cap, vectors, tol)

    for name in SOLVER_USERS:
        monkeypatch.setattr(importlib.import_module(f"stoqmap.{name}"), "_eigh", counted)
    return calls


@seed(20090601)
@settings(max_examples=300, deadline=None, database=None)
@given(hermitian_matrices())
def test_diagonal_psd_rule_matches_the_eigenvalue_rule(M):
    A = classify_module._as_csr(M)
    by_solve = classify_module._classify(A, TOL, DENSE_CAP, classify_module._min_eigenvalue(A, DENSE_CAP, TOL))
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_solves(mp)
        flags = classify(M, tol=TOL)
    assert flags == by_solve
    assert flags.hermitian
    decided_by_diagonal = float(A.diagonal().real.min()) < -TOL
    assert calls == ([] if decided_by_diagonal else [(False, 2)])
    assert not (decided_by_diagonal and flags.psd)


def test_diagonal_entry_at_minus_tol_falls_through_to_the_solve(monkeypatch):
    calls = counted_solves(monkeypatch)
    assert classify(np.diag([-TOL, 1.0]), tol=TOL).psd  # lowest eigenvalue exactly -tol
    assert calls == [(False, 2)]
    calls.clear()
    assert not classify(np.diag([-2 * TOL, 1.0]), tol=TOL).psd
    assert calls == []


def symmetric_stochastic(draw, d):
    """A convex combination of symmetrized permutation matrices: symmetric and doubly stochastic."""
    k = draw(st.integers(1, 3))
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    M = np.zeros((d, d))
    for w in weights / weights.sum():
        P = np.eye(d)[draw(st.permutations(range(d)))]
        M += w * (P + P.T) / 2
    return M


@st.composite
def stochastic_inputs(draw):
    """Symmetric stochastic matrices, one or two components (a degenerate top eigenspace), or mapped."""
    kind = draw(st.sampled_from(["one", "two", "mapped"]))
    if kind == "one":
        return stored(draw, symmetric_stochastic(draw, draw(st.integers(1, 8))))
    if kind == "two":
        first, second = (symmetric_stochastic(draw, draw(st.integers(1, 4))) for _ in range(2))
        return stored(draw, sp.block_diag([first, second]).toarray())
    H = random_instance(draw(st.integers(1, 3)), seed=draw(st.integers(0, 50)))
    mapped = stochastize(H)
    return (add_ancilla_penalty(mapped, 0.25) if draw(st.booleans()) else mapped).realize()


def pauli_matrices():
    """Random field/coupling Hamiltonians, with and without Y, as ham spectrum builds them."""
    return st.builds(lambda n, s, y: build_matrix(random_instance(n, seed=s, include_y=y)),
                     st.integers(1, 5), st.integers(0, 1000), st.booleans())


def full_eigh_report(M):
    """Every field of spectral_report from one eigh with vectors, as the report read them before."""
    A = classify_module._as_csr(M)
    vals, vecs = np.linalg.eigh(A.toarray())
    flags = classify_module._classify(A, TOL, DENSE_CAP, float(vals[0]))
    top = float(vals[-1])
    fields = {
        "ground_energy": float(vals[0]),
        "spectral_gap": float(vals[1] - vals[0]) if vals.size > 1 else None,
        "top_eigenvalue": top,
        "second_largest_magnitude": float(np.sort(np.abs(vals))[::-1][1]) if vals.size > 1 else None,
        "perron_top_is_one": None,
        "perron_uniform_overlap": None,
        "eigenvalues": vals,
    }
    if flags.column_stochastic and flags.symmetric:
        u = np.full(vals.size, 1.0 / np.sqrt(vals.size))
        fields["perron_top_is_one"] = bool(abs(top - 1.0) <= max(TOL, 1e-9))
        top_space = vecs[:, np.abs(vals - top) <= DEGENERACY_TOL]
        fields["perron_uniform_overlap"] = float(np.linalg.norm(top_space.conj().T @ u))
    return flags, fields


def assert_report_close(report, flags, fields):
    assert report.flags == flags and report.method == "dense"
    for name, want in fields.items():
        got = getattr(report, name)
        if want is None or isinstance(want, bool):
            assert got is want, name
        else:
            assert np.asarray(got).shape == np.shape(want), name
            assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12, name


@seed(20090602)
@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(hermitian_matrices(), stochastic_inputs(), pauli_matrices()))
def test_spectral_report_matches_a_full_eigh_oracle(M):
    assert_report_close(spectral_report(M, tol=TOL), *full_eigh_report(M))


@seed(20090603)
@settings(max_examples=100, deadline=None, database=None)
@given(stochastic_inputs())
def test_perron_fields_are_unchanged_on_symmetric_stochastic_input(M):
    report = spectral_report(M, tol=TOL)
    flags, fields = full_eigh_report(M)
    assert flags.symmetric and flags.column_stochastic
    # the same eigh with vectors as before, so these fields are equal, not only close
    for name in ("perron_top_is_one", "perron_uniform_overlap", "top_eigenvalue", "ground_energy"):
        assert getattr(report, name) == fields[name], name
    assert np.array_equal(report.eigenvalues, fields["eigenvalues"])
    assert report.perron_top_is_one and abs(report.perron_uniform_overlap - 1.0) <= 1e-12


def test_two_component_doubly_stochastic_top_space_is_degenerate():
    swap = np.array([[0.5, 0.5], [0.5, 0.5]])
    M = sp.block_diag([swap, np.array([[0.25, 0.75], [0.75, 0.25]])]).toarray()
    report = spectral_report(M, tol=TOL)
    assert np.sum(np.abs(report.eigenvalues - 1.0) <= DEGENERACY_TOL) == 2
    assert report.perron_top_is_one and abs(report.perron_uniform_overlap - 1.0) <= 1e-12
    assert_report_close(report, *full_eigh_report(M))


def test_input_hermitian_only_within_tol_is_solved_once(monkeypatch):
    """Skew 1e-8 passes tol = 1e-6 but not HERMITIAN_TOL: one Hermitian solve held to tol, no general eig."""
    M = np.array([[1.0, 0.5 + 1e-8], [0.5, 1.0]])  # psd, and nothing on the diagonal decides it
    calls = counted_solves(monkeypatch)
    report = spectral_report(M, tol=1e-6)
    assert calls == [(False, 2)]
    assert report.flags.hermitian and report.flags.psd and report.method == "dense"
    assert report.eigenvalues.dtype == float
    assert abs(report.ground_energy - 0.5) <= 1e-7 and abs(report.top_eigenvalue - 1.5) <= 1e-7


def test_each_command_makes_only_the_solves_its_report_reads(tmp_path, monkeypatch):
    calls = counted_solves(monkeypatch)
    generic = tmp_path / "generic.json"
    H = random_instance(3, seed=5)
    assert build_matrix(H).diagonal().min() < -TOL
    save_hamiltonian(H, str(generic))
    nonnegative = tmp_path / "nonnegative.json"  # 1 + X0: psd, nothing on the diagonal decides it
    save_hamiltonian(LocalHamiltonian.from_signed(2, [(1.0, {}), (1.0, {0: "X"})]), str(nonnegative))
    stochastic = tmp_path / "stochastic.json"  # (1 + X0 X1)/2: symmetric and doubly stochastic
    save_hamiltonian(LocalHamiltonian.from_signed(2, [(0.5, {}), (0.5, {0: "X", 1: "X"})]), str(stochastic))
    expected = [
        (["ham", "check", str(generic)], []),
        (["ham", "check", str(nonnegative)], [(False, 2)]),
        (["ham", "spectrum", str(generic)], [(False, 2)]),
        (["ham", "spectrum", str(nonnegative)], [(False, 2)]),
        (["ham", "spectrum", str(stochastic)], [(True, 2)]),
        (["map", "stoquastic", str(generic)], [(False, 3)]),
        (["map", "stochastic", str(generic), "--p", "0.25"], [(False, 3)]),
        (["map", "stochastic", str(generic), "--p", "0"], [(False, 3)]),
        (["map", "complex", str(generic), "--p", "0.2"], [(False, 3)]),
        (["map", "complex", str(generic), "--p", "0"], [(False, 3)]),
    ]
    for argv, solves in expected:
        calls.clear()
        assert run_command(argv + ["--out", str(tmp_path / "r.json")]) == 0
        assert calls == solves, argv


def test_adiabatic_run_solves_each_block_size_once(tmp_path, monkeypatch):
    """The clock-adiabatic workload's run: 64 steps, blocks of sizes 1, 4, 6 and 16.

    The state starts in the one 16-state block of legal clock states and
    never leaves it, so that block is the only one solved: once, for all
    64 steps.
    """
    circuit = QuantumCircuit(2, (rot(0, 0.4), cnot(0, 1), rot(1, 0.9)))
    save_circuit(circuit, str(tmp_path / "c.json"))
    calls = counted_solves(monkeypatch)
    shapes = []
    counted = adiabatic_module._eigh
    monkeypatch.setattr(adiabatic_module, "_eigh", lambda M, *args: shapes.append(M.shape) or counted(M, *args))
    argv = ["adiabatic", "run", str(tmp_path / "c.json"), "--T", "32", "--steps", "64", "--shots", "256",
            "--seed", "7", "--out", str(tmp_path / "r.json")]
    assert run_command(argv) == 0
    assert calls == [(True, 4)]
    assert shapes == [(64, 1, 16, 16)]


def test_gap_scan_solves_each_block_length_once(tmp_path, monkeypatch):
    """The clock-adiabatic workload's gap-scan: one stacked solve per L, of both blocks at every s."""
    calls = counted_solves(monkeypatch)
    out = tmp_path / "scan.csv"
    assert run_command(["clock", "gap-scan", "--Lmin", "1", "--Lmax", "6", "--out", str(out)]) == 0
    assert calls == [(False, 3)] * 6
    # the same values as one solve per block, bit for bit
    with open(out, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 18
    for row in rows:
        L, s = int(row["L"]), float(row["s"])
        assert float(row["block_gap_measured"]) == block_matrix(0, s, L).spectrum()[1]
        assert float(row["full_gap_measured"]) == block_matrix(1, s, L).spectrum()[0]
    # a block above the dense cap is refused before any block is built
    calls.clear()
    assert run_command(["clock", "gap-scan", "--Lmin", "1", "--Lmax", str(DENSE_CAP), "--out", str(out)]) == 2
    assert calls == []
