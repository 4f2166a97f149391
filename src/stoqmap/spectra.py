"""Dense and iterative eigensolvers plus spectral report assembly.

Every spectral claim elsewhere in the package is checked against these
routines, so they stay deliberately plain: LAPACK under the dense cap,
ARPACK (Lanczos with implicit restarts) above it, seeded start vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .classify import (MatrixClassFlags, _as_csr, _check_dense_cap, _classify, _eigh, _eigsh, _residuals,
                       _square_csr)
from .errors import ContractError
from .pauli import DEFAULT_TOL, DENSE_CAP, _is_hermitian

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


def eig_dense(M, dense_cap: int = DENSE_CAP, compute_vectors: bool = True) -> Spectrum:
    """Full spectrum by dense diagonalization (dim capped); method "dense_general" if M is not Hermitian."""
    A = _square_csr(M)
    _check_dense_cap(A.shape[0], dense_cap)  # before anything dense is allocated
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


def eig_extremal(M, k: int = 1, which: str = "lowest", tol: float = DEFAULT_TOL, seed: int = 0,
                 dense_cap: int = DENSE_CAP) -> Spectrum:
    """k extremal ("lowest" or "highest") eigenpairs of a Hermitian matrix, seeded and iterative (dense,
    under dense_cap, when k >= dim - 1)."""
    A = _as_csr(M)
    dim = A.shape[0]
    if k < 1:
        raise ContractError("k must be at least 1")
    if which not in ("lowest", "highest"):
        raise ContractError(f"unknown mode {which!r}; expected 'highest' or 'lowest'")
    if k >= dim - 1:  # the dense gate tests Hermiticity itself
        vals, vecs = _eigh(A, dense_cap)
        idx = np.arange(min(k, dim)) if which == "lowest" else np.arange(max(dim - k, 0), dim)
        vals, vecs = vals[idx], vecs[:, idx]
        return Spectrum(vals, vecs, _residuals(A, vals, vecs), "dense")
    if not _is_hermitian(A):
        raise ContractError("eig_extremal expects a Hermitian matrix")
    vals, vecs = _eigsh(A, k, which, np.random.default_rng(seed).standard_normal(dim), tol)
    return Spectrum(vals, vecs, _residuals(A, vals, vecs), "iterative")


def _flags_and_spectrum(A: sp.csr_matrix, tol: float, dense_cap: int, compute_vectors: bool = True,
                        sectors=None) -> tuple[MatrixClassFlags, Spectrum | None, np.ndarray | None]:
    """classify(A) of a canonical CSR A and, under the dense cap, its full spectrum from one eigensolve.

    Given sectors, the MappedHamiltonian that A realizes, a commutation
    residual within tol proves its ancilla sectors invariant; then the
    sorted union of the sector blocks' spectra is the spectrum, one
    stacked solve of 2^n-dimensional blocks replaces the 2^(n+a)-dimensional
    one, and the blocks come back as the third item (otherwise None).
    compute_vectors keeps vectors only where the Perron overlap reads them:
    symmetric column-stochastic A, solved as a whole register.
    """
    if A.shape[0] > dense_cap or A.shape[0] != A.shape[1]:
        return _classify(A, tol, dense_cap), None, None
    if sectors is not None:
        blocks, residual = sectors.sector_blocks(A)
        if residual <= tol:
            vals = np.sort(_eigh(blocks, dense_cap, vectors=False), axis=None)
            return _classify(A, tol, dense_cap, float(vals[0])), Spectrum(vals, None, None, "dense"), blocks
    flags = _classify(A, tol, dense_cap, 0.0)  # psd = hermitian until the lowest eigenvalue is known
    vectors = compute_vectors and flags.symmetric and flags.column_stochastic
    if not flags.hermitian:
        return flags, eig_dense(A, dense_cap=dense_cap, compute_vectors=vectors), None
    # Hermitian within tol, so the solve is held to tol too and gives the lowest eigenvalue
    out = _eigh(A, dense_cap, vectors=vectors, tol=tol)
    vals, vecs = out if vectors else (out, None)
    return replace(flags, psd=float(vals[0]) >= -tol), Spectrum(vals, vecs, None, "dense"), None


def spectral_report(M, tol: float = DEFAULT_TOL, dense_cap: int = DENSE_CAP, seed: int = 0) -> SpectralReport:
    """Classify a matrix and assemble its extremal spectral data.

    Each branch yields the edge eigenvalues (ascending, each eigenvalue
    once: the whole spectrum under the dense cap, the two lowest and the
    two highest above it), the vectors of the highest ones and the method
    that ran. Every report field is then read once from those.
    """
    A = _as_csr(M)
    dim = A.shape[0]
    if dim <= dense_cap:
        flags, spec, _ = _flags_and_spectrum(A, tol, dense_cap)
        edge, top_vecs, method = spec.eigenvalues, spec.eigenvectors, spec.method
    else:
        lo, hi = (eig_extremal(A, 2, which, tol, seed, dense_cap) for which in ("lowest", "highest"))
        flags = _classify(A, tol, dense_cap, float(lo.eigenvalues[0]))
        edge = np.concatenate([lo.eigenvalues, hi.eigenvalues])  # disjoint: eig_extremal refused dim <= 3
        top_vecs, method = hi.eigenvectors, "iterative"
    vals = np.real_if_close(edge, tol=1000)
    vals_r = np.asarray(vals.real if np.iscomplexobj(vals) else vals, dtype=float)
    top = float(vals_r[-1])
    mags = np.sort(np.abs(edge))[::-1]

    perron_top = None
    perron_overlap = None
    if flags.column_stochastic and flags.symmetric:  # real symmetric, so top_vecs were computed
        perron_top = bool(abs(top - 1.0) <= max(tol, 1e-9))
        u = np.full(dim, 1.0 / np.sqrt(dim))
        top_vals = vals_r[vals_r.size - top_vecs.shape[1]:]  # the eigenvalues of top_vecs
        top_space = top_vecs[:, np.abs(top_vals - top) <= DEGENERACY_TOL]
        perron_overlap = float(np.linalg.norm(top_space.conj().T @ u))

    return SpectralReport(
        ground_energy=float(vals_r[0]),
        spectral_gap=float(vals_r[1] - vals_r[0]) if dim > 1 else None,
        top_eigenvalue=top,
        second_largest_magnitude=float(mags[1]) if dim > 1 else None,
        perron_top_is_one=perron_top,
        perron_uniform_overlap=perron_overlap,
        flags=flags,
        eigenvalues=vals_r if method != "iterative" else None,
        method=method,
    )
