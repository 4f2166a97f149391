import numpy as np
import pytest
import scipy.sparse as sp

from stoqmap import (
    ContractError,
    LocalHamiltonian,
    ResourceError,
    classify,
    kernel_projector_complement,
    stochastize,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_identity_flags():
    flags = classify(np.eye(8))
    assert flags.hermitian and flags.doubly_stochastic and flags.projector and flags.psd
    assert flags.stoquastic
    assert flags.permutation


def test_half_one_plus_x():
    M = 0.5 * (np.eye(2) + X)
    flags = classify(M)
    assert flags.projector
    assert flags.doubly_stochastic
    assert not flags.stoquastic  # off-diagonal entries are +1/2


def test_stochastize_z_is_permutation():
    H = LocalHamiltonian.from_signed(1, [(1.0, {0: "Z"})])
    flags = classify(stochastize(H).realize())
    assert flags.doubly_stochastic
    assert flags.permutation


def test_permutation_flag_implies_doubly_stochastic():
    P = np.zeros((4, 4))
    for i, j in enumerate((2, 0, 3, 1)):
        P[i, j] = 1.0
    flags = classify(P)
    assert flags.permutation and flags.doubly_stochastic and flags.nonnegative_entries


def test_column_but_not_doubly_stochastic():
    M = np.array([[0.5, 0.0], [0.5, 1.0]])
    flags = classify(M)
    assert flags.column_stochastic
    assert not flags.doubly_stochastic


def test_stoquastic_allows_any_diagonal():
    M = np.diag([3.0, -5.0]) - 0.2 * X
    assert classify(M).stoquastic
    assert not classify(np.diag([1.0, 0.0]) + 0.2 * X).stoquastic


def test_non_hermitian_flags():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    flags = classify(M)
    assert not flags.hermitian
    assert not flags.psd


def test_kernel_complement_rank_one():
    M = np.diag([0.0, 1.0])
    P = kernel_projector_complement(sp.csr_matrix(M)).toarray()
    assert np.allclose(P, np.diag([0.0, 1.0]))


def test_kernel_complement_zero_matrix():
    P = kernel_projector_complement(sp.csr_matrix((2, 2))).toarray()
    assert np.max(np.abs(P)) < 1e-12


def test_kernel_complement_mixed_spectrum():
    M = np.diag([0.0, 0.5, 2.0, 3.0])
    P = kernel_projector_complement(sp.csr_matrix(M)).toarray()
    assert np.allclose(P, np.diag([0.0, 1.0, 1.0, 1.0]))


@pytest.mark.parametrize("seed", range(4))
def test_kernel_complement_projector_property(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((8, 3))
    M = A @ A.T  # psd with a 5-dim kernel
    P = kernel_projector_complement(sp.csr_matrix(M)).toarray()
    assert np.max(np.abs(P @ P - P)) < 1e-10
    vals, vecs = np.linalg.eigh(M)
    for k in range(8):
        if vals[k] < 1e-10:
            assert np.linalg.norm(P @ vecs[:, k]) < 1e-8


def test_kernel_complement_rejects_negative():
    with pytest.raises(ContractError):
        kernel_projector_complement(sp.csr_matrix(np.diag([-1.0, 1.0])))


def test_kernel_complement_rejects_non_hermitian():
    with pytest.raises(ContractError):
        kernel_projector_complement(sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_loose_tol_loosens_the_hermitian_check_of_the_eigensolve():
    M = np.array([[1.0, 1e-8], [0.0, 2.0]])
    flags = classify(M, tol=1e-6)
    assert flags.hermitian and flags.psd
    assert not classify(M).hermitian
    P = kernel_projector_complement(np.array([[0.0, 1e-8], [0.0, 2.0]]), tol=1e-6).toarray()
    assert np.allclose(P, np.diag([0.0, 1.0]), atol=1e-7)


def test_dense_cap_enforced():
    M = sp.identity(16, format="csr")
    with pytest.raises(ResourceError):
        kernel_projector_complement(M, dense_cap=8)
