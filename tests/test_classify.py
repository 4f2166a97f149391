import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from stoqmap import (
    ContractError,
    LocalHamiltonian,
    ResourceError,
    classify,
    kernel_projector_complement,
    spectral_report,
    stochastize,
)
from stoqmap.classify import _square_residual
from stoqmap.pauli import DENSE_DIFF_DIM, _max_abs, _skew

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


# Stored entries no flag can answer for: nan, +-inf, and two finite duplicates whose sum overflows.
NON_FINITE = {
    "nan": sp.csr_matrix(np.array([[1.0, np.nan], [np.nan, 0.0]])),
    "inf": sp.csr_matrix(np.diag([np.inf, 1.0])),
    "-inf": sp.csr_matrix(np.diag([1.0, -np.inf])),
    "overflowing duplicates": sp.csr_matrix((np.array([1e308, 1e308, 1.0]), np.array([0, 0, 1]),
                                             np.array([0, 2, 3])), shape=(2, 2)),
}


@pytest.mark.parametrize("M", NON_FINITE.values(), ids=list(NON_FINITE))
def test_classify_refuses_non_finite_entries(M):
    with pytest.raises(ContractError, match="matrix has non-finite entries"):
        classify(M)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-12, float("inf")])
def test_classify_refuses_a_tol_that_is_not_a_finite_number_at_least_0(tol):
    for check in (classify, spectral_report):
        with pytest.raises(ContractError, match=re.escape(f"tol must be a finite number >= 0, got {tol!r}")):
            check(np.eye(2), tol=tol)
    assert classify(np.eye(2), tol=0.0).projector


def test_dense_cap_enforced():
    M = sp.identity(16, format="csr")
    with pytest.raises(ResourceError):
        kernel_projector_complement(M, dense_cap=8)


# ------------------------------------------------- stored entries against a dense reference

TOL = 1e-10
# Drawn entries are quarters, and perturbations lie a decade off tol on either side, so no
# flag's answer sits within rounding of its threshold.
QUARTERS = (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0)
PERTURBATIONS = (0.0, 0.1 * TOL, 10 * TOL, 1e-4)


def dense_flags(D: np.ndarray, tol: float = TOL) -> dict:
    """Every flag of classify, entry by entry over the dense matrix."""
    d = D.shape[0]
    off = ~np.eye(d, dtype=bool)
    hermitian = np.max(np.abs(D - D.conj().T)) <= tol
    nonneg = np.all(np.abs(D.imag) <= tol) and np.all(D.real >= -tol)
    column_stochastic = nonneg and np.all(np.abs(D.sum(axis=0) - 1.0) <= tol)
    doubly_stochastic = column_stochastic and np.all(np.abs(D.sum(axis=1) - 1.0) <= tol)
    return {
        "hermitian": hermitian,
        "nonnegative_entries": nonneg,
        "stoquastic": hermitian and np.all(D.real[off] <= tol) and np.all(np.abs(D.imag[off]) <= tol),
        "column_stochastic": column_stochastic,
        "doubly_stochastic": doubly_stochastic,
        "symmetric": np.max(np.abs(D - D.T)) <= tol,
        "permutation": doubly_stochastic and np.all((np.abs(D) <= tol) | (np.abs(D - 1.0) <= tol)),
        "projector": hermitian and np.max(np.abs(D @ D - D)) <= tol,
        "psd": hermitian and np.linalg.eigvalsh(D)[0] >= -tol,
    }


@st.composite
def quarter_matrices(draw, d, complex_entries):
    def part():
        return np.reshape(draw(st.lists(st.sampled_from(QUARTERS), min_size=d * d, max_size=d * d)), (d, d))
    return part() + 1j * part() if complex_entries else part()


@st.composite
def target_matrices(draw):
    """A drawn matrix of one class (or none), plus a drawn perturbation of drawn size."""
    d = draw(st.integers(1, 5))
    complex_entries = draw(st.booleans())
    G = draw(quarter_matrices(d, complex_entries))
    perm = np.eye(d)[draw(st.permutations(range(d)))]
    kind = draw(st.sampled_from(["generic", "hermitian", "stoquastic", "stochastic", "doubly_stochastic",
                                 "permutation", "projector"]))
    if kind == "generic":
        D = G
    elif kind == "hermitian":
        D = (G + G.conj().T) / 2
    elif kind == "stoquastic":
        S = np.abs(G + G.conj().T) / 2
        D = np.diag(draw(st.lists(st.sampled_from(QUARTERS), min_size=d, max_size=d))) - S * (1 - np.eye(d))
    elif kind == "stochastic":
        W = np.abs(G) + 0.25
        D = W / W.sum(axis=0)
    elif kind == "doubly_stochastic":
        D = 0.25 * perm + 0.75 * np.eye(d)[draw(st.permutations(range(d)))]
    elif kind == "permutation":
        D = perm
    else:
        Q = np.linalg.qr(G + 2.0 * np.eye(d))[0][:, : draw(st.integers(0, d))]
        D = Q @ Q.conj().T
    noise = draw(quarter_matrices(d, complex_entries))
    if draw(st.booleans()):
        noise = (noise - noise.conj().T) / 2  # keeps a Hermitian D Hermitian only up to its size
    return D + draw(st.sampled_from(PERTURBATIONS)) * noise


@st.composite
def scrambled_csr(draw):
    """A non-canonical CSR matrix: some entries stored as two duplicates, explicit zeros,
    and unsorted column indices within each row."""
    D = draw(target_matrices())
    d = D.shape[0]
    indptr, indices, data = [0], [], []
    for i in range(d):
        row = []
        for j in range(d):
            v = D[i, j]
            how = draw(st.sampled_from(["whole", "split", "zero"] if v != 0 else ["absent", "split", "zero"]))
            if how == "split":
                a = draw(st.sampled_from(QUARTERS))
                row += [(j, a), (j, v - a)]
            elif how == "zero":
                row += [(j, 0.0 * v), (j, v)]
            elif how == "whole":
                row.append((j, v))
        row = [row[k] for k in draw(st.permutations(range(len(row))))]
        indices += [j for j, _ in row]
        data += [v for _, v in row]
        indptr.append(len(indices))
    return sp.csr_matrix((np.array(data, dtype=D.dtype), np.array(indices, dtype=np.int32),
                          np.array(indptr, dtype=np.int32)), shape=(d, d))


@seed(20090533)
@settings(max_examples=300, deadline=None, database=None)
@given(scrambled_csr())
def test_flags_match_a_dense_entrywise_reference(M):
    stored = (M.data.copy(), M.indices.copy(), M.indptr.copy())
    flags = classify(M, tol=TOL).as_dict()
    assert flags.pop("tol") == TOL
    assert flags == {name: bool(value) for name, value in dense_flags(M.toarray()).items()}
    assert all(np.array_equal(a, b) for a, b in zip(stored, (M.data, M.indices, M.indptr)))  # input untouched


def test_duplicates_summing_to_one_keep_the_identity_a_permutation():
    # the identity with (0, 0) stored as 0.5 + 0.5
    M = sp.csr_matrix((np.array([0.5, 0.5, 1.0]), np.array([0, 0, 1]), np.array([0, 2, 3])), shape=(2, 2))
    assert classify(M).permutation
    assert classify(M) == classify(np.eye(2))


def test_duplicates_with_a_negative_part_keep_a_matrix_nonnegative():
    # the identity with (0, 0) stored as -0.5 + 1.5
    M = sp.csr_matrix((np.array([-0.5, 1.5, 1.0]), np.array([0, 0, 1]), np.array([0, 2, 3])), shape=(2, 2))
    assert classify(M).nonnegative_entries
    assert classify(M) == classify(np.eye(2))


# ------------------------------------------------- dense differences against scipy's


@st.composite
def canonical_csr(draw):
    """A canonical CSR matrix: empty, 1 x 1 or small, or on either side of DENSE_DIFF_DIM, with drawn entries
    (some one-sided, some mirrored as a Hermitian pair nudged by up to 1e-12), real or complex."""
    d = draw(st.one_of(st.integers(0, 6), st.sampled_from([DENSE_DIFF_DIM - 1, DENSE_DIFF_DIM, DENSE_DIFF_DIM + 1])))
    complex_entries = draw(st.booleans())
    number = st.floats(-1e3, 1e3, allow_subnormal=False)
    entries = draw(st.lists(st.tuples(st.integers(0, max(d - 1, 0)), st.integers(0, max(d - 1, 0)), number,
                                      number if complex_entries else st.just(0.0),
                                      st.sampled_from([None, 0.0, 1e-12])), max_size=12 if d else 0))
    stored = []
    for i, j, re, im, mirror in entries:
        v = complex(re, im) if complex_entries else re
        stored += [(i, j, v)] if mirror is None else [(i, j, v), (j, i, np.conj(v) + mirror)]
    rows, cols, vals = zip(*stored) if stored else ((), (), ())
    A = sp.csr_matrix((np.array(vals, dtype=complex if complex_entries else float), (rows, cols)), shape=(d, d))
    assert A.has_canonical_format
    return A


def same_bits(x, y):
    return type(x) is type(y) is float and np.float64(x).tobytes() == np.float64(y).tobytes()


@seed(20090534)
@settings(max_examples=400, deadline=None, database=None)
@given(canonical_csr())
def test_dense_differences_give_scipys_values_bit_for_bit(A):
    assert same_bits(_skew(A), _max_abs(A - A.getH()))
    assert same_bits(_skew(A, conj=False), _max_abs(A - A.T))
    assert same_bits(_square_residual(A), _max_abs(A @ A - A))
