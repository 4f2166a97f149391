"""Structural predicates on operator matrices.

classify() reproduces, within a tolerance, the matrix classes the
transformations are supposed to land in: stoquastic (Hermitian with
nonpositive off-diagonal entries), stochastic (nonnegative entries,
unit column sums), doubly stochastic, permutation, projector, psd.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, ConvergenceError, ResourceError
from .pauli import (DEFAULT_TOL, DENSE_CAP, DENSE_DIFF_DIM, HERMITIAN_TOL, KERNEL_PSD_FLOOR, _csr_entries,
                    _is_hermitian, _max_abs, _scatter_sum, _skew)


@dataclass(frozen=True)
class MatrixClassFlags:
    hermitian: bool
    nonnegative_entries: bool
    stoquastic: bool
    column_stochastic: bool
    doubly_stochastic: bool
    symmetric: bool
    permutation: bool
    projector: bool
    psd: bool
    tol: float

    def as_dict(self) -> dict[str, bool | float]:
        return asdict(self)


def _as_csr(M) -> sp.csr_matrix:
    """M as canonical CSR (sorted indices, duplicates summed), copied only when M is not one.

    Flags and propagators read stored entries, so a duplicate must count as its sum, and a
    non-finite one is refused: no flag or eigensolve can answer for it.
    """
    A = M.tocsr() if sp.issparse(M) else sp.csr_matrix(np.asarray(M))
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    if not np.isfinite(A.data).all():
        raise ContractError("matrix has non-finite entries")
    return A


def _square_csr(M) -> sp.csr_matrix:
    """_as_csr(M), refused unless it is square."""
    A = _as_csr(M)
    if A.shape[0] != A.shape[1]:
        raise ContractError("expected a square matrix")
    return A


def _square_residual(A: sp.csr_matrix) -> float:
    """max|A @ A - A| of a canonical CSR A. The product stays scipy's: a dense (BLAS) one rounds differently."""
    if A.shape[0] > DENSE_DIFF_DIM:
        return _max_abs(A @ A - A)
    return float(np.abs((A @ A).toarray() - A.toarray()).max(initial=0.0))


def _check_dense_cap(dim: int, dense_cap: int) -> None:
    if dim > dense_cap:
        raise ResourceError(f"dimension {dim} exceeds the dense cap {dense_cap}")


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < np.inf:  # false for nan too
        raise ContractError(f"tol must be a finite number >= 0, got {tol!r}")


def _eigh(M, dense_cap: int, vectors: bool = True, tol: float = HERMITIAN_TOL):
    """The one dense Hermitian eigensolve: eigh(M), or eigvalsh(M) without vectors.

    M may also be a dense stack of equal-size blocks, solved over its
    last two axes in one call. The block dimension is checked against
    dense_cap before anything dense is allocated, and a non-Hermitian M
    (see pauli._is_hermitian, loosened by tol) is refused rather than
    read from one triangle.
    """
    _check_dense_cap(M.shape[-1], dense_cap)
    dense = M.toarray() if sp.issparse(M) else np.asarray(M)
    if not _is_hermitian(dense, tol):
        raise ContractError("matrix is not Hermitian")
    return np.linalg.eigh(dense) if vectors else np.linalg.eigvalsh(dense)


def _residuals(A: sp.csr_matrix, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    R = A @ vecs - vecs * vals[np.newaxis, :]
    return np.linalg.norm(R, axis=0)


def _eigsh(A: sp.csr_matrix, k: int, which: str, v0: np.ndarray, tol: float):
    """The one iterative Hermitian eigensolve: the k "lowest" or "highest" eigenpairs of A, ascending.

    ARPACK's implicitly restarted Lanczos from v0, to relative accuracy
    tol (0: machine precision). When it gives up, the ConvergenceError
    carries the smallest residual among the pairs it returned.
    """
    import scipy.sparse.linalg as spla  # here alone: only a solve above the dense cap pays for loading ARPACK
    try:
        vals, vecs = spla.eigsh(A, k=k, which={"lowest": "SA", "highest": "LA"}[which], v0=v0, tol=tol)
    except spla.ArpackNoConvergence as exc:
        best = float(np.min(_residuals(A, exc.eigenvalues, exc.eigenvectors))) if len(exc.eigenvalues) else None
        raise ConvergenceError(f"eigsh failed to converge for k={k}, which={which!r}", best_residual=best) from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _min_eigenvalue(A: sp.csr_matrix, dense_cap: int, tol: float = HERMITIAN_TOL) -> float:
    dim = A.shape[0]
    if dim <= dense_cap:
        return float(_eigh(A, dense_cap, vectors=False, tol=tol)[0])
    return float(_eigsh(A, 1, "lowest", np.full(dim, 1.0 / np.sqrt(dim)), 0)[0][0])


def _diagonal_may_square_to_itself(A: sp.csr_matrix, rows: np.ndarray, tol: float, skew: float) -> bool:
    """False only when A @ A - A certainly has a diagonal entry above tol; O(nnz), no product.

    For A within skew = max|A - A^dagger| of Hermitian, (A^2)_ii differs
    from sum_j |A_ij|^2 by at most skew sum_j |A_ij|. The test allows
    that, and a generous bound on the rounding of both sums, before it
    answers for the product. Row sums over A's stored entries cost far
    less than sparse products on the small matrices classify mostly sees.
    A must be canonical (see _as_csr): |a + b|^2 is not |a|^2 + |b|^2.
    rows holds each stored entry's row, as _csr_entries gives it.
    """
    dim = A.shape[0]
    mag = np.abs(A.data)
    square_diag = np.bincount(rows, mag * mag, minlength=dim)
    row_l1 = np.bincount(rows, mag, minlength=dim)
    diag = A.diagonal()
    slack = skew * row_l1
    rounding = 8 * (dim + 1) * np.finfo(float).eps * (square_diag + slack + np.abs(diag))
    return bool(np.all(np.abs(square_diag - diag) <= tol + slack + rounding))


def classify(M, tol: float = DEFAULT_TOL, dense_cap: int = DENSE_CAP) -> MatrixClassFlags:
    """Evaluate all structural flags for a square matrix."""
    return _classify(_as_csr(M), tol, dense_cap)


def _classify(A: sp.csr_matrix, tol: float, dense_cap: int, lowest: float | None = None) -> MatrixClassFlags:
    """classify() of a canonical CSR A, every flag read from its stored entries.

    A caller that already holds the lowest eigenvalue of a Hermitian A
    passes it as lowest, so the psd flag costs no second diagonalization.
    Otherwise a diagonal entry with real part below -tol decides psd with
    no solve: lambda_min <= Re A_ii, the Rayleigh quotient of a basis vector.
    """
    _check_tol(tol)
    if A.shape[0] != A.shape[1]:
        raise ContractError("classify expects a square matrix")
    rows, cols, data = _csr_entries(A)
    complex_entries = np.iscomplexobj(data)
    real_entries = not complex_entries or data.size == 0 or float(np.max(np.abs(data.imag))) <= tol

    skew = _skew(A)
    hermitian = skew <= tol
    symmetric = (_skew(A, conj=False) if complex_entries else skew) <= tol  # A.T is A^dagger for a real A
    nonneg = real_entries and (data.size == 0 or float(data.real.min()) >= -tol)

    off = data[rows != cols]
    off_ok = off.size == 0 or (
        float(off.real.max()) <= tol and (not complex_entries or float(np.max(np.abs(off.imag))) <= tol)
    )
    stoquastic = hermitian and off_ok

    def unit_sums(index):  # column (index=cols) or row (index=rows) sums, read only where they can matter
        return bool(np.max(np.abs(_scatter_sum(index, data, A.shape[0]) - 1.0)) <= tol)

    column_stochastic = nonneg and unit_sums(cols)
    doubly_stochastic = column_stochastic and unit_sums(rows)
    permutation = doubly_stochastic and bool(np.all((np.abs(data) <= tol) | (np.abs(data - 1.0) <= tol)))

    projector = hermitian and _diagonal_may_square_to_itself(A, rows, tol, skew) and _square_residual(A) <= tol
    if hermitian and lowest is None:
        lowest = float(A.diagonal().real.min())
        if lowest >= -tol:
            lowest = _min_eigenvalue(A, dense_cap, tol)
    psd = hermitian and float(lowest) >= -tol

    return MatrixClassFlags(
        hermitian=hermitian,
        nonnegative_entries=nonneg,
        stoquastic=stoquastic,
        column_stochastic=column_stochastic,
        doubly_stochastic=doubly_stochastic,
        symmetric=symmetric,
        permutation=permutation,
        projector=projector,
        psd=psd,
        tol=tol,
    )


def kernel_projector_complement(M, tol: float = DEFAULT_TOL, dense_cap: int = DENSE_CAP) -> sp.csr_matrix:
    """Return 1 - P where P projects onto the (numerical) kernel of M.

    M must be Hermitian positive semidefinite; eigenvalues <= tol count
    as kernel. Used to rewrite psd constraint operators as projectors.
    """
    A = _square_csr(M)
    dim = A.shape[0]
    vals, vecs = _eigh(A, dense_cap, tol=tol)
    if vals[0] < -max(tol, KERNEL_PSD_FLOOR):
        raise ContractError(f"matrix is not psd (lowest eigenvalue {vals[0]:.3e})")
    kernel = vecs[:, vals <= tol]
    P = kernel @ kernel.conj().T
    out = np.eye(dim, dtype=P.dtype) - P
    out[np.abs(out) < 1e-14] = 0.0
    if np.max(np.abs(out.imag)) <= 1e-14:
        out = out.real
    return sp.csr_matrix(out)
