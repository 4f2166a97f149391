import importlib

import numpy as np
import pytest
import scipy.sparse as sp

from stoqmap import (
    DENSE_CAP,
    ContractError,
    LocalHamiltonian,
    ResourceError,
    add_ancilla_penalty,
    build_matrix,
    eig_dense,
    eig_extremal,
    random_instance,
    sector_spectrum,
    spectral_report,
    stochastize,
    stochastize_complex,
    stoquastize,
)
from stoqmap.spectra import _flags_and_spectrum

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_eig_dense_z():
    out = eig_dense(np.diag([1.0, -1.0]))
    assert np.allclose(out.eigenvalues, [-1.0, 1.0])
    assert np.max(out.residual_norms) < 1e-12


def test_eig_dense_projector():
    out = eig_dense(0.5 * (np.eye(2) + X))
    assert np.allclose(out.eigenvalues, [0.0, 1.0])


def test_eig_dense_stoquastized_minus_z():
    H = LocalHamiltonian.from_signed(1, [(-1.0, {0: "Z"})])
    out = eig_dense(stoquastize(H).realize())
    assert np.allclose(out.eigenvalues, [-1.0, -1.0, -1.0, 1.0])


def test_eig_dense_cap():
    with pytest.raises(ResourceError):
        eig_dense(sp.identity(8, format="csr"), dense_cap=4)


def test_eig_dense_refuses_a_non_square_matrix_before_the_cap():
    for M in (np.ones((2, 3)), sp.csr_matrix(np.ones((3, 2)))):
        for cap in (DENSE_CAP, 1):  # the shape is refused first, even above the cap
            with pytest.raises(ContractError, match="expected a square matrix"):
                eig_dense(M, dense_cap=cap, compute_vectors=cap == 1)
        with pytest.raises(ContractError, match="square matrix"):
            spectral_report(M)


def test_eig_dense_reports_its_branch_and_hermiticity_is_tested_once(monkeypatch):
    assert eig_dense(np.diag([1.0, 2.0])).method == "dense"
    assert eig_dense(np.array([[0.0, 1.0], [0.0, 0.0]])).method == "dense_general"
    calls = []
    modules = [importlib.import_module(f"stoqmap.{name}") for name in ("classify", "spectra")]
    real = modules[0]._is_hermitian

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "_is_hermitian", counted)
    flags, spec, _ = _flags_and_spectrum(build_matrix(random_instance(3, seed=2)), 1e-10, DENSE_CAP)
    assert flags.hermitian and spec.method == "dense"
    assert len(calls) == 1
    calls.clear()
    assert eig_extremal(build_matrix(random_instance(3, seed=2)), k=7).method == "dense"  # k >= dim - 1
    assert len(calls) == 1


def test_sector_spectrum_checks_the_cap_before_densifying():
    H = LocalHamiltonian.from_signed(13, [(1.0, {0: "Z"})])  # 8192-dimensional sector
    with pytest.raises(ResourceError):
        sector_spectrum(stoquastize(H), "-")


def test_eig_extremal_identity():
    out = eig_extremal(sp.identity(8, format="csr"), k=1, which="lowest")
    assert abs(out.eigenvalues[0] - 1.0) < 1e-10


def test_eig_extremal_requires_hermitian():
    M = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ContractError):
        eig_extremal(M, k=1)


def test_eig_extremal_matches_dense_restriction():
    # iterative lowest of the |-> sector restriction against its dense value
    H = random_instance(10, locality=2, seed=3)
    mapped = stoquastize(H)
    restricted = mapped.sector_operator("-")
    vals = eig_extremal(restricted, k=1, which="lowest", seed=1).eigenvalues
    dense = eig_dense(restricted, compute_vectors=False).eigenvalues
    assert abs(vals[0] - dense[0]) < 1e-7


def test_eig_extremal_full_map_ground_is_minus_n():
    # the |+> sector carries -Hbar whose top is N exactly (uniform Perron vector)
    H = random_instance(10, locality=2, seed=3)
    mapped = stoquastize(H)
    vals = eig_extremal(mapped.realize(), k=1, which="lowest", seed=1).eigenvalues
    assert abs(vals[0] + H.N) < 1e-7


def test_eig_extremal_stochastic_top():
    H = random_instance(6, locality=2, seed=5)
    mapped = stochastize(H)
    out = eig_extremal(mapped.realize(), k=1, which="highest", seed=0)
    assert abs(out.eigenvalues[0] - 1.0) < 1e-9
    v = out.eigenvectors[:, 0]
    uniform = np.ones(v.size) / np.sqrt(v.size)
    assert abs(abs(np.vdot(uniform, v)) - 1.0) < 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_extremal_matches_dense_small(seed):
    H = random_instance(5, locality=2, seed=seed, include_y=True)
    M = build_matrix(H)
    dense = eig_dense(M, compute_vectors=False).eigenvalues
    lo = eig_extremal(M, k=3, which="lowest", seed=seed).eigenvalues
    hi = eig_extremal(M, k=3, which="highest", seed=seed).eigenvalues
    assert np.max(np.abs(np.asarray(lo) - dense[:3])) < 1e-9
    assert np.max(np.abs(np.sort(hi) - dense[-3:])) < 1e-9


def test_spectral_report_projector():
    report = spectral_report(0.5 * (np.eye(2) + X))
    assert abs(report.spectral_gap - 1.0) < 1e-12
    assert abs(report.top_eigenvalue - 1.0) < 1e-12


def test_spectral_report_penalty_example():
    H = LocalHamiltonian.from_signed(1, [(1.0, {0: "Z"})])
    Hp = add_ancilla_penalty(stochastize(H), 0.25)
    report = spectral_report(Hp.realize())
    assert abs(report.ground_energy + 0.25) < 1e-12
    assert abs(report.top_eigenvalue - 1.0) < 1e-12
    assert report.perron_top_is_one


def test_spectral_report_permutation():
    H = LocalHamiltonian.from_signed(2, [(1.0, {0: "X", 1: "X"})])
    report = spectral_report(build_matrix(H))
    vals = np.asarray(report.eigenvalues)
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12
    assert abs(report.second_largest_magnitude - 1.0) < 1e-12


def test_hermitian_eigenvalues_real():
    H = random_instance(4, seed=9, include_y=True)
    out = eig_dense(build_matrix(H))
    assert np.max(np.abs(np.imag(out.eigenvalues))) < 1e-12


@pytest.mark.parametrize("seed", range(50))
def test_perron_suite(seed):
    H = random_instance(3, locality=2, seed=seed)
    if not H.num_terms:
        return
    M = stochastize(H).realize()
    report = spectral_report(M)
    assert abs(report.top_eigenvalue - 1.0) <= 1e-9
    assert report.perron_uniform_overlap >= 1.0 - 1e-9


def test_sector_spectrum_union_covers_everything():
    H = random_instance(2, seed=11, include_y=True)
    mapped = stochastize_complex(H)
    pieces = [np.real(sector_spectrum(mapped, lab)) for lab in mapped.sector_labels]
    union = np.sort(np.concatenate(pieces))
    full = eig_dense(mapped.realize(), compute_vectors=False).eigenvalues
    assert np.max(np.abs(union - np.sort(np.real(full)))) < 1e-9
