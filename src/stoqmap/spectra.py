"""Dense and iterative eigensolvers plus spectral report assembly.

Every spectral claim elsewhere in the package is checked against these
routines, so they stay deliberately plain: LAPACK under the dense cap,
ARPACK (Lanczos with implicit restarts) above it, seeded start vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .classify import MatrixClassFlags, _as_csr, _classify, _eigh
from .errors import ContractError, ConvergenceError, ResourceError
from .pauli import DENSE_CAP, _is_hermitian

# Eigenvalues closer than this are reported as one multiplet.
DEGENERACY_TOL = 1e-8


@dataclass
class Spectrum:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residual_norms: np.ndarray | None
    method: str


@dataclass
class SpectralReport:
    ground_energy: float
    spectral_gap: float | None
    top_eigenvalue: float
    second_largest_magnitude: float | None
    perron_top_is_one: bool | None
    perron_uniform_overlap: float | None
    flags: MatrixClassFlags
    eigenvalues: np.ndarray | None
    method: str


def _residuals(A: sp.csr_matrix, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    R = A @ vecs - vecs * vals[np.newaxis, :]
    return np.linalg.norm(R, axis=0)


def eig_dense(M, dense_cap: int = DENSE_CAP, compute_vectors: bool = True) -> Spectrum:
    """Full spectrum by dense diagonalization (dim capped); method "dense_general" if M is not Hermitian."""
    A = _as_csr(M)
    dim = A.shape[0]
    if dim > dense_cap:
        raise ResourceError(
            f"dimension {dim} exceeds the dense cap {dense_cap}; use eig_extremal"
        )
    dense = A.toarray()
    try:
        out = _eigh(dense, dense_cap, vectors=compute_vectors)
        vals, vecs = out if compute_vectors else (out, None)
        method = "dense"
    except ContractError:  # not Hermitian: the general solver
        vals, vecs = np.linalg.eig(dense)
        order = np.lexsort((vals.imag, vals.real))
        vals = vals[order]
        vecs = vecs[:, order]
        if np.max(np.abs(vals.imag)) <= 1e-12:
            vals = vals.real
        if not compute_vectors:
            vecs = None
        method = "dense_general"
    res = _residuals(A, vals, vecs) if vecs is not None else None
    return Spectrum(vals, vecs, res, method)


def eig_extremal(M, k: int = 1, which: str = "lowest", tol: float = 1e-10, seed: int = 0,
                 maxiter: int | None = None) -> Spectrum:
    """k extremal eigenpairs of a Hermitian matrix, seeded and iterative."""
    A = _as_csr(M)
    dim = A.shape[0]
    if k < 1:
        raise ContractError("k must be at least 1")
    modes = {"lowest": "SA", "highest": "LA", "largest_magnitude": "LM"}
    if which not in modes:
        raise ContractError(f"unknown mode {which!r}; expected one of {sorted(modes)}")
    if k >= dim - 1:  # the dense gate tests Hermiticity itself
        vals, vecs = _eigh(A, DENSE_CAP)
        if which == "lowest":
            idx = np.arange(min(k, dim))
        elif which == "highest":
            idx = np.arange(max(dim - k, 0), dim)
        else:
            idx = np.argsort(np.abs(vals))[::-1][:k]
            idx = np.sort(idx)
        vals, vecs = vals[idx], vecs[:, idx]
        return Spectrum(vals, vecs, _residuals(A, vals, vecs), "dense")
    if not _is_hermitian(A):
        raise ContractError("eig_extremal expects a Hermitian matrix")
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim)
    try:
        vals, vecs = spla.eigsh(A, k=k, which=modes[which], v0=v0, tol=tol, maxiter=maxiter)
    except spla.ArpackNoConvergence as exc:
        best = None
        if getattr(exc, "eigenvalues", None) is not None and len(exc.eigenvalues):
            part_vals = np.asarray(exc.eigenvalues)
            part_vecs = np.asarray(exc.eigenvectors)
            best = float(np.min(_residuals(A, part_vals, part_vecs)))
        raise ConvergenceError(
            f"eigsh failed to converge for k={k}, which={which!r}", best_residual=best
        ) from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    return Spectrum(vals, vecs, _residuals(A, vals, vecs), "iterative")


def _flags_and_spectrum(A: sp.csr_matrix, tol: float, dense_cap: int,
                        compute_vectors: bool = True) -> tuple[MatrixClassFlags, Spectrum | None]:
    """classify(A) of a canonical CSR A and, under the dense cap, its full spectrum from one eigensolve.

    compute_vectors keeps vectors only where the Perron overlap reads them: symmetric column-stochastic A.
    """
    if A.shape[0] > dense_cap or A.shape[0] != A.shape[1]:
        return _classify(A, tol, dense_cap), None
    flags = _classify(A, tol, dense_cap, 0.0)  # psd = hermitian until the lowest eigenvalue is known
    vectors = compute_vectors and flags.symmetric and flags.column_stochastic
    if not flags.hermitian:
        return flags, eig_dense(A, dense_cap=dense_cap, compute_vectors=vectors)
    # Hermitian within tol, so the solve is held to tol too and gives the lowest eigenvalue
    out = _eigh(A, dense_cap, vectors=vectors, tol=tol)
    vals, vecs = out if vectors else (out, None)
    return replace(flags, psd=float(vals[0]) >= -tol), Spectrum(vals, vecs, None, "dense")


def spectral_report(M, tol: float = 1e-10, dense_cap: int = DENSE_CAP, seed: int = 0) -> SpectralReport:
    """Classify a matrix and assemble its extremal spectral data."""
    A = _as_csr(M)
    dim = A.shape[0]
    if dim <= dense_cap:
        flags, spec = _flags_and_spectrum(A, tol, dense_cap)
        vals = np.real_if_close(spec.eigenvalues, tol=1000)
        vals_r = np.asarray(vals.real if np.iscomplexobj(vals) else vals, dtype=float)
        ground = float(vals_r[0])
        gap = float(vals_r[1] - vals_r[0]) if dim > 1 else None
        top = float(vals_r[-1])
        mags = np.sort(np.abs(np.asarray(spec.eigenvalues)))[::-1]
        second_mag = float(mags[1]) if dim > 1 else None
        full_vals = vals_r
        vecs = spec.eigenvectors
        method = "dense"
    else:
        lo = eig_extremal(A, k=2, which="lowest", tol=tol, seed=seed)
        hi = eig_extremal(A, k=2, which="highest", tol=tol, seed=seed)
        flags = _classify(A, tol, dense_cap, float(lo.eigenvalues[0]))
        ground = float(lo.eigenvalues[0])
        gap = float(lo.eigenvalues[1] - lo.eigenvalues[0])
        top = float(hi.eigenvalues[-1])
        edge = np.concatenate([lo.eigenvalues, hi.eigenvalues])
        mags = np.sort(np.abs(edge))[::-1]
        second_mag = float(mags[1])
        full_vals = None
        vecs = hi.eigenvectors
        method = "iterative"

    perron_top = None
    perron_overlap = None
    if flags.column_stochastic and flags.symmetric:
        perron_top = bool(abs(top - 1.0) <= max(tol, 1e-9))
        u = np.full(dim, 1.0 / np.sqrt(dim))
        if method == "dense" and vecs is not None:
            top_space = vecs[:, np.abs(full_vals - top) <= DEGENERACY_TOL]
        else:
            top_space = vecs[:, np.abs(hi.eigenvalues - top) <= DEGENERACY_TOL]
        perron_overlap = float(np.linalg.norm(top_space.conj().T @ u))

    return SpectralReport(
        ground_energy=ground,
        spectral_gap=gap,
        top_eigenvalue=top,
        second_largest_magnitude=second_mag,
        perron_top_is_one=perron_top,
        perron_uniform_overlap=perron_overlap,
        flags=flags,
        eigenvalues=full_vals,
        method=method,
    )
