"""Pauli-string Hamiltonians and their sparse matrix realizations.

Conventions used throughout the package: qubit 0 is the most
significant bit of a computational basis index, and ancilla qubits are
appended after the work qubits (so they occupy the least significant
bits). A LocalHamiltonian's masks are the exception: bit q is qubit q,
and _term_phases flips them to basis-index order once, at realization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import ContractError, ResourceError

# The one cap rule: MAX_QUBITS bounds a register (no sparse realization is larger than 2^14),
# and DENSE_CAP bounds every dense matrix and every block of a stacked solve (12 qubits' worth).
MAX_QUBITS = 14
DENSE_CAP = 4096
DENSE_DIFF_DIM = 128  # _skew and classify._square_residual subtract dense copies up to this dimension
# Largest entry of A - A^dagger, relative to max(1, max|A|), that still counts as Hermitian.
HERMITIAN_TOL = 1e-10
# The default tol of every flag, check and eigensolve that takes one, and of the CLI's --tol.
DEFAULT_TOL = 1e-10
# kernel_projector_complement accepts a lowest eigenvalue down to -max(tol, KERNEL_PSD_FLOOR).
KERNEL_PSD_FLOOR = 1e-8
# stochastize_ff refuses an input term whose lowest eigenvalue is below -FF_PSD_FLOOR.
FF_PSD_FLOOR = 1e-9
# Largest imaginary part of a Pauli coefficient pauli_decompose still reads as real.
PAULI_IMAG_TOL = 1e-9
# pauli_decompose drops a Pauli coefficient whose magnitude is at most PAULI_DROP_TOL.
PAULI_DROP_TOL = 1e-12

PAULI_LABELS = ("X", "Y", "Z")

# Row a is conj(P_a) flattened over 2r + c for P_a = I, X, Y, Z: it reads Tr(P_a B) off a 2 x 2 block B.
_PAULI_DUAL = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])

# i^k for k = 0..3: a Pauli string entry is always one of these.
_PHASE = np.array([1, 1j, -1, -1j])


def _is_hermitian(A, tol: float = HERMITIAN_TOL) -> bool:
    """The package's one Hermiticity test, for a canonical CSR A or a dense A or stack of equal blocks.

    max|A - A^dagger| may be at most tol times max(1, max|A|). A dense A
    is read over its last two axes, and each matrix of a stack is held
    to its own scale, so a small skewed block cannot hide behind a large
    one. A caller's own tolerance may loosen the rule, never tighten it
    below HERMITIAN_TOL.
    """
    if A.shape[-1] != A.shape[-2]:
        return False
    tol = max(tol, HERMITIAN_TOL)
    if sp.issparse(A):
        return _skew(A) <= tol * max(1.0, _max_abs(A))
    adjoint = np.swapaxes(A.conj(), -1, -2)
    axes = (-2, -1)
    return bool(np.all(abs(A - adjoint).max(axis=axes) <= tol * np.maximum(1.0, abs(A).max(axis=axes))))


def _max_abs(A: sp.spmatrix) -> float:
    return float(np.max(np.abs(A.data))) if A.nnz else 0.0


def _skew(A: sp.csr_matrix, conj: bool = True) -> float:
    """max|A - A^dagger|, or max|A - A^T| when not conj, as scipy gives it. A must be canonical (classify._as_csr)."""
    if A.shape[0] > DENSE_DIFF_DIM:
        return _max_abs(A - (A.getH() if conj else A.T))
    D = A.toarray()
    return float(np.abs(D - (D.conj().T if conj else D.T)).max(initial=0.0))


def _check_qubits(qubits: int) -> None:
    """Refuse a realization of that many qubits before anything of its size is allocated."""
    if qubits > MAX_QUBITS:
        # named by its qubit count: 2^n in decimal can pass Python's int-to-str digit limit
        raise ResourceError(f"{qubits} qubits exceed the {MAX_QUBITS}-qubit realization cap")


def _check_n(n: int, suffix: str = "") -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ContractError(f"need at least one qubit{suffix}")


def _sum_terms(dim: int, pieces) -> sp.csr_matrix:
    """Sum of weighted sparse pieces as one dim x dim CSR matrix.

    Each piece is (weight, rows, cols, vals), arrays that broadcast
    together. All pieces are flattened and concatenated once, in order,
    and summed to the bit as sp.csr_matrix((vals, (rows, cols))) sums
    them, by its own kernels; entries that cancel to zero are dropped.
    The result is real unless some piece is complex (no pieces: real zero).
    """
    _check_qubits((int(dim) - 1).bit_length())
    pieces = [np.broadcast_arrays(r, c, w * v) for w, r, c, v in pieces] or [np.broadcast_arrays(0, 0, np.zeros(0))]
    index = np.concatenate([p[i].ravel() for i in (0, 1) for p in pieces])  # all rows, then all cols
    vals = np.concatenate([p[2].ravel() for p in pieces])  # allocated before the indices, it raised peak RSS 0.9 MB
    if index.min(initial=0) < 0 or index.max(initial=0) >= dim:  # the kernels check no bounds
        raise ContractError(f"an entry index lies outside the {dim} x {dim} matrix")
    rows, cols = index.astype(sp.get_index_dtype(maxval=max(vals.size, dim)), copy=False).reshape(2, -1)
    indptr, indices, data = np.empty(dim + 1, rows.dtype), np.empty_like(cols), np.empty_like(vals)
    _sparsetools.coo_tocsr(dim, dim, vals.size, rows, cols, vals, indptr, indices, data)  # scipy's steps in order
    if not _sparsetools.csr_has_canonical_format(dim, indptr, indices):
        if not _sparsetools.csr_has_sorted_indices(dim, indptr, indices):
            _sparsetools.csr_sort_indices(dim, indptr, indices, data)  # std::sort, unstable beyond 16 entries
        _sparsetools.csr_sum_duplicates(dim, dim, indptr, indices, data)
    _sparsetools.csr_eliminate_zeros(dim, dim, indptr, indices, data)
    return sp.csr_matrix((data, indices, indptr), shape=(dim, dim))  # which prunes by scipy's rule


def _csr_entries(A: sp.spmatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, vals) of a sparse matrix, ready to feed _sum_terms."""
    A = A.tocsr()
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    return rows, A.indices, A.data


def _scatter_sum(index: np.ndarray, vals: np.ndarray, size: int) -> np.ndarray:
    """out[i] = sum of vals[t] over index[t] == i, for i < size; complex only when vals is."""
    out = np.bincount(index, vals.real, minlength=size)
    return out + 1j * np.bincount(index, vals.imag, minlength=size) if np.iscomplexobj(vals) else out


def _factor_masks(factors: Mapping[int, str] | Iterable[tuple[int, str]]) -> tuple[int, int]:
    """(x, z) masks of one Pauli string given as {qubit: label} or (qubit, label) pairs.

    Bit q of x (z) is set when qubit q carries X or Y (Z or Y). Each
    factor needs a known label and a distinct nonnegative integer qubit,
    which must fit a 63-bit mask.
    """
    x = z = 0
    for q, op in factors.items() if isinstance(factors, Mapping) else factors:
        if op not in PAULI_LABELS:
            raise ContractError(f"unknown Pauli label {op!r}")
        if type(q) is bool or not isinstance(q, (int, np.integer)) or q < 0:
            raise ContractError(f"bad qubit index {q!r}")
        if q >= 63:
            raise ResourceError(f"qubit {q} lies beyond the {MAX_QUBITS}-qubit realization cap")
        bit = 1 << int(q)
        if (x | z) & bit:
            raise ContractError(f"duplicate qubit {q} in Pauli string")
        x |= bit if op != "Z" else 0
        z |= bit if op != "X" else 0
    return x, z


@dataclass(frozen=True, eq=False)
class LocalHamiltonian:
    """Sum of real-weighted Pauli strings on n qubits, in binary symplectic form.

    Term t is coeff[t] times the string with X or Y on the qubits set in
    x[t] and Z or Y on those set in z[t] (bit q is qubit q), so its Y
    count is popcount(x & z) (Aaronson-Gottesman, quant-ph/0406196).
    Duplicate strings are merged at construction in first-occurrence
    order; a merge to zero drops the term. The realized matrix is always
    Hermitian because every coefficient is real.
    """

    n: int
    x: np.ndarray
    z: np.ndarray
    coeff: np.ndarray

    def __post_init__(self):
        _check_n(self.n, f", got n={self.n!r}")
        x, z = (np.asarray(m, dtype=np.int64).ravel() for m in (self.x, self.z))
        coeff = np.asarray(self.coeff, dtype=float).ravel()
        if not x.size == z.size == coeff.size:
            raise ContractError("x, z and coeff differ in length")
        if not np.isfinite(coeff).all():
            raise ContractError("non-finite coefficient")
        top = int(np.bitwise_or.reduce(x | z, initial=0))
        if top < 0 or top.bit_length() > self.n:
            raise ContractError(f"qubit {top.bit_length() - 1} out of range for n={self.n}")
        merged: dict[tuple[int, int], float] = {}
        for key, c in zip(zip(x.tolist(), z.tolist()), coeff.tolist()):
            if c != 0.0:
                merged[key] = merged.get(key, 0.0) + c
        kept = {key: c for key, c in merged.items() if c != 0.0}
        x, z = np.array(list(kept), dtype=np.int64).reshape(-1, 2).T.copy()
        object.__setattr__(self, "n", int(self.n))
        for name, value in (("x", x), ("z", z), ("coeff", np.array(list(kept.values()), dtype=float))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    def from_signed(
        cls, n: int, items: Iterable[tuple[float, Mapping[int, str] | Iterable[tuple[int, str]]]]
    ) -> "LocalHamiltonian":
        """Build from (signed coefficient, factors) pairs; zeros dropped."""
        items = list(items)
        x, z = np.array([_factor_masks(f) for _, f in items], dtype=np.int64).reshape(-1, 2).T
        return cls(n, x, z, [float(c) for c, _ in items])

    @property
    def N(self) -> float:
        """Sum of the absolute coefficients (the normalization constant)."""
        return float(sum(np.abs(self.coeff).tolist()))

    @property
    def locality(self) -> int:
        return int(np.bitwise_count(self.x | self.z).max(initial=0))

    @property
    def num_terms(self) -> int:
        return self.coeff.size

    def has_real_entries(self) -> bool:
        return not (np.bitwise_count(self.x & self.z) & 1).any()

    def signed_items(self) -> list[tuple[float, tuple[tuple[int, str], ...]]]:
        """(signed coefficient, ((qubit, label), ...) in qubit order) for every term."""
        return [(c, tuple((q, "IZXY"[(x >> q & 1) * 2 + (z >> q & 1)]) for q in range((x | z).bit_length())
                          if (x | z) >> q & 1))
                for x, z, c in zip(self.x.tolist(), self.z.tolist(), self.coeff.tolist())]

    def scaled(self, factor: float) -> "LocalHamiltonian":
        return LocalHamiltonian(self.n, self.x, self.z, factor * self.coeff)

    def __add__(self, other: "LocalHamiltonian") -> "LocalHamiltonian":
        if not isinstance(other, LocalHamiltonian):
            return NotImplemented
        if other.n != self.n:
            raise ContractError("qubit counts differ")
        return LocalHamiltonian(self.n, *(np.concatenate([getattr(self, f), getattr(other, f)])
                                          for f in ("x", "z", "coeff")))


def _term_phases(H: LocalHamiltonian, ancillas: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha, rows, k) of every term at once: term t has entry alpha[t] i^k[t, c] at (rows[t, c], c).

    rows and k are terms x 2^n arrays, allocated only once the register
    of n + ancillas qubits has passed the cap. Rows and columns index
    with qubit 0 as the most significant bit, so mask bit q moves to
    bit n-1-q here.
    """
    _check_qubits(H.n + ancillas)
    q = np.arange(H.n)
    x, z = ((np.stack([H.x, H.z])[..., None] >> q & 1) @ (1 << (H.n - 1 - q))).astype(np.int32)
    cols = np.arange(1 << H.n, dtype=np.int32)
    # each Z or Y factor contributes -1 on the columns where its qubit reads 1
    odd = np.bitwise_count(cols & z[:, None]) & 1
    k0 = ((np.bitwise_count(H.x & H.z) + np.where(H.coeff > 0, 0, 2)) % 4).astype(np.uint8)
    return np.abs(H.coeff), cols ^ x[:, None], (2 * odd + k0[:, None]) % 4


def build_matrix(H: LocalHamiltonian) -> sp.csr_matrix:
    """Realize a LocalHamiltonian as a sparse 2^n x 2^n matrix (real when every term is)."""
    alpha, rows, k = _term_phases(H)
    phase = _PHASE.real if H.has_real_entries() else _PHASE
    return _sum_terms(1 << H.n, [(alpha[:, None], rows, np.arange(1 << H.n, dtype=np.int32), phase[k])])


def embed(local: np.ndarray | sp.spmatrix, qubits: Sequence[int], n: int) -> sp.csr_matrix:
    """Embed an operator on `qubits` (given order, big-endian) into n qubits.

    The local matrix has dimension 2^k with k = len(qubits); bit j of a
    local index addresses qubits[j].
    """
    return _sum_terms(1 << n, [(1.0, *_embed_entries(local, qubits, n))])


def _embed_entries(local, qubits: Sequence[int], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, vals) of embed(local, qubits, n): the nonzeros of the dense local matrix in row-major order,
    each spread over the other qubits in register order. The register is checked against the cap first."""
    _check_qubits(n)
    qubits = tuple(int(q) for q in qubits)
    k = len(qubits)
    if len(set(qubits)) != k:
        raise ContractError("embed qubits must be distinct")
    for q in qubits:
        if q < 0 or q >= n:
            raise ContractError(f"qubit {q} out of range for n={n}")
    local = np.asarray(local.toarray() if sp.issparse(local) else local)
    if local.shape != (1 << k, 1 << k):
        raise ContractError(f"local matrix shape {local.shape} does not match {k} qubits")
    lrows, lcols = np.nonzero(local)
    # row j of grid: the basis indices where `qubits` read local index j, the other qubits in register order
    grid = np.moveaxis(np.arange(1 << n).reshape((2,) * n), qubits, range(k)).reshape(1 << k, -1)
    return grid[lrows].ravel(), grid[lcols].ravel(), np.repeat(local[lrows, lcols], 1 << (n - k))


def pauli_decompose(matrix: np.ndarray | sp.spmatrix) -> LocalHamiltonian:
    """Expand a Hermitian matrix on k qubits into weighted Pauli strings.

    Inverse of build_matrix up to the merge rules. One 4 x 4 transform
    per qubit reads all 4^k coefficients at once, so the cost is
    k 4^k; it is meant for local blocks, not whole registers.
    """
    dense = np.asarray(matrix.toarray() if sp.issparse(matrix) else matrix, dtype=complex)
    dim = dense.shape[0]
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ContractError("matrix must be square")
    k = int(round(np.log2(dim)))
    if 1 << k != dim:
        raise ContractError(f"dimension {dim} is not a power of two")
    if not _is_hermitian(dense):
        raise ContractError("matrix is not Hermitian; Pauli coefficients would be complex")
    # One axis per qubit q, indexed by 2 r_q + c_q; words then come in itertools.product("IXYZ", k) order.
    pairs = [a for q in range(k) for a in (q, k + q)]
    coeffs = dense.reshape((2,) * 2 * k).transpose(pairs).reshape((4,) * k)
    for _ in range(k):  # transform the leading qubit axis and move it to the back
        coeffs = np.tensordot(coeffs, _PAULI_DUAL, axes=(0, 1))
    coeffs = coeffs.ravel() / dim
    if np.abs(coeffs.imag).max() > PAULI_IMAG_TOL:
        raise ContractError("matrix is not Hermitian; Pauli coefficients would be complex")
    words = np.flatnonzero(np.abs(coeffs.real) > PAULI_DROP_TOL)
    # base-4 digit k-1-q of a word is qubit q's label: 0, 1, 2, 3 for I, X, Y, Z
    digits = words[:, None] >> 2 * (k - 1 - np.arange(k)) & 3
    bits = 1 << np.arange(k)
    return LocalHamiltonian(max(k, 1), ((digits == 1) | (digits == 2)) @ bits, (digits >= 2) @ bits,
                            coeffs.real[words])


def remap_qubits(H: LocalHamiltonian, mapping: Sequence[int], total_n: int) -> LocalHamiltonian:
    """Relabel qubit i of H as mapping[i] inside a total_n-qubit register."""
    mapping = tuple(int(q) for q in mapping)
    if len(set(mapping)) != len(mapping):
        raise ContractError("qubit mapping must be injective")
    used = int(np.bitwise_or.reduce(H.x | H.z, initial=0))
    if used >> len(mapping):
        raise ContractError("mapping does not cover all qubits in use")
    x, z = np.zeros_like(H.x), np.zeros_like(H.z)
    for q, target in enumerate(mapping[:used.bit_length()]):
        bit = _factor_masks([(target, "Z")])[1]
        x |= (H.x >> q & 1) * bit
        z |= (H.z >> q & 1) * bit
    return LocalHamiltonian(total_n, x, z, H.coeff)


def random_instance(n: int, locality: int = 2, seed: int = 0, include_y: bool = False) -> LocalHamiltonian:
    """Random field/coupling Hamiltonian with X and Z terms (optionally Y).

    Coefficients are uniform in [-1, 1]; draws are deterministic
    given the seed. locality 1 gives single-qubit fields only, locality
    2 adds two-qubit XX and ZZ couplings (plus XY when include_y).
    """
    _check_n(n)
    if locality not in (1, 2):
        raise ContractError("locality must be 1 or 2")
    words: list[dict[int, str]] = []
    for i in range(n):
        words.append({i: "X"})
        words.append({i: "Z"})
        if include_y:
            words.append({i: "Y"})
    if locality == 2:
        for i in range(n):
            for j in range(i + 1, n):
                words.append({i: "X", j: "X"})
                words.append({i: "Z", j: "Z"})
                if include_y:
                    words.append({i: "X", j: "Y"})
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=len(words))
    return LocalHamiltonian.from_signed(n, zip(coeffs, words))
