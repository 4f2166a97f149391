"""Sign-eliminating maps from local Hamiltonians to stoquastic and stochastic form.

The two-element group {1,-1} acts on one ancilla qubit through {I, X};
the four-element group {1,i,-1,-i} acts on two ancilla qubits through
powers of the 4-cycle F. Replacing scalar signs/phases by these
permutation blocks removes negative and complex entries while keeping
the original spectrum inside an invariant ancilla sector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .classify import _max_abs, _min_eigenvalue
from .errors import ContractError
from .pauli import (
    DENSE_CAP, FF_PSD_FLOOR, LocalHamiltonian, _check_qubits, _csr_entries, _scatter_sum, _sum_terms, _term_phases,
    build_matrix, remap_qubits,
)
from .spectra import eig_dense

# _cycle_rows places powers of the ancilla 4-cycle F|l> = |l-1 mod 4>, which has eigenvalue i^j on v_j,
# by index arithmetic: F is never built as a matrix.

MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def sector_vector_z4(j: int) -> np.ndarray:
    """Eigenvector v_j = (1/2) sum_l i^(lj) |l> of the ancilla 4-cycle."""
    return 0.5 * np.array([1j ** ((l * j) % 4) for l in range(4)])


def _z4_basis() -> dict[str, np.ndarray]:
    return {f"v{j}": sector_vector_z4(j) for j in range(4)}


_Z2_BASIS = {"-": MINUS, "+": PLUS}


@dataclass(frozen=True, eq=False)
class MappedHamiltonian:
    """Result of a sign-elimination map, packed one row per term.

    The realized matrix is sum_t weights[t] P_t, where the permutation
    matrix P_t has the one entry of column c in row rows[t, c]. For the
    normalized maps the weights are positive and sum to 1, which is what
    makes the result stochastic; stoquastize's weights are -alpha_t.
    """

    n: int
    ancilla_count: int
    weights: np.ndarray
    rows: np.ndarray
    normalization: float
    kind: str
    p: float | None = None
    warnings: tuple[str, ...] = ()

    @property
    def total_qubits(self) -> int:
        return self.n + self.ancilla_count

    @property
    def dim(self) -> int:
        return 1 << self.total_qubits

    @property
    def sector_basis(self) -> dict[str, np.ndarray]:
        if self.ancilla_count == 1:
            return dict(_Z2_BASIS)
        return _z4_basis()

    @property
    def sector_labels(self) -> tuple[str, ...]:
        return tuple(self.sector_basis)

    def realize(self) -> sp.csr_matrix:
        cols = np.arange(self.dim, dtype=np.int32)
        return _sum_terms(self.dim, [(self.weights[:, None], self.rows, cols, 1.0)])

    def _sector_entries(self, realized: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, w): stored entry t of `realized` adds w[s, t] at (i[t], j[t]) of sector s's block.

        Entry (i m + a, j m + b) is weighted by conj(W[a, s]) W[b, s],
        where column s of W is the ancilla vector of sector s (in
        sector_labels order): block s is V_s^dagger A V_s, entry by entry.
        """
        m = 1 << self.ancilla_count
        W = np.stack(list(self.sector_basis.values()), axis=1)
        pair_weights = (W.conj()[:, None, :] * W[None, :, :]).reshape(m * m, m).T
        rows, cols, vals = _csr_entries(realized)
        return rows // m, cols // m, np.take(pair_weights, rows % m * m + cols % m, axis=1) * vals

    def sector_blocks(self, realized: sp.csr_matrix) -> tuple[np.ndarray, float]:
        """Every sector's block of `realized` as one dense (sectors, 2^n, 2^n) stack, and the
        commutation residual max|A S - S A| with the ancilla cycle S (X, or F for two ancillas).

        Both cost O(nnz); the whole register is never densified. S has a
        distinct eigenvalue on each sector vector, so a residual within
        tolerance proves the sectors invariant: the blocks then carry the
        whole spectrum of `realized`.
        """
        m, d = 1 << self.ancilla_count, 1 << self.n
        i, j, w = self._sector_entries(realized)
        flat = (np.arange(m)[:, None] * d * d + i * d + j).ravel()
        stack = _scatter_sum(flat, w.ravel(), m * d * d)
        idx = np.arange(self.dim)
        S = sp.csr_matrix((np.ones(self.dim), (idx - idx % m + (idx % m - 1) % m, idx)),
                          shape=(self.dim, self.dim))
        return stack.reshape(m, d, d), _max_abs(realized @ S - S @ realized)

    def sector_operator(self, sector: str, realized: sp.csr_matrix | None = None) -> sp.csr_matrix:
        """Sector `sector`'s block of `realized` (by default of realize()), read off its stored entries."""
        labels = self.sector_labels
        if sector not in labels:
            raise ContractError(f"unknown sector {sector!r}; have {sorted(labels)}")
        i, j, w = self._sector_entries(self.realize() if realized is None else realized)
        return _sum_terms(1 << self.n, [(1.0, i, j, w[labels.index(sector)])])


def _cycle_rows(H: LocalHamiltonian, m: int, shift: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, rows) of every term's image on n + log2(m) qubits, rows terms x 2^n m.

    An entry i^k at (r, c) becomes the ancilla block entries
    (r m + (a - step) mod m, c m + a), a = 0..m-1, with
    step = (k m/4 + shift) mod m. For m = 2 that is I or X on one
    ancilla qubit; for m = 4 it is F^k.
    """
    if m == 2 and not H.has_real_entries():
        coeff, factors = H.signed_items()[np.flatnonzero(np.bitwise_count(H.x & H.z) & 1)[0]]
        string = ("+" if coeff > 0 else "-") + (" ".join(f"{op}{q}" for q, op in factors) or "I")
        raise ContractError(f"term {string} has complex entries; use stochastize_complex")
    alpha, rows, k = _term_phases(H, m.bit_length() - 1)
    dim = (1 << H.n) * m
    step = (k * m // 4 + shift) % m
    a = np.arange(m, dtype=np.int32)
    return alpha, (rows[:, :, None] * m + (a - step[:, :, None]) % m).reshape(len(alpha), dim)


def _with_penalty(mapped: MappedHamiltonian, p: float, kind: str, warnings) -> MappedHamiltonian:
    """p * mapped + (1-p)/2 (1 + X on qubit n), as a mapped Hamiltonian.

    Qubit n is the only ancilla of the Z2 map and the first ancilla of
    the Z4 map.
    """
    idx = np.arange(mapped.dim, dtype=np.int32)
    half = (1.0 - p) / 2.0
    return replace(mapped, weights=np.concatenate([p * mapped.weights, [half, half]]),
                   rows=np.vstack([mapped.rows, idx, idx ^ (1 << (mapped.ancilla_count - 1))]),
                   kind=kind, p=p, warnings=warnings)


def stoquastize(H: LocalHamiltonian) -> MappedHamiltonian:
    """Map a real-entried Hamiltonian to a stoquastic one on n+1 qubits.

    Writing H = -sum_k alpha_k T_k, each scalar entry of T_k is replaced
    through 1 -> I, -1 -> X on the ancilla. The realized matrix equals
    H (x) |-><-|  -  Hbar (x) |+><+|, so the |-> sector reproduces H.
    """
    alpha, rows = _cycle_rows(H, 2, shift=1)
    return MappedHamiltonian(
        n=H.n, ancilla_count=1, weights=-alpha, rows=rows, normalization=H.N, kind="stoquastic"
    )


def stochastize(H: LocalHamiltonian) -> MappedHamiltonian:
    """Map a real-entried Hamiltonian to a symmetric doubly stochastic matrix.

    Each term S_k (unit entries) becomes the permutation S+ (x) I +
    S- (x) X; the convex combination with weights alpha_k / N is the
    realized matrix, equal to (H (x) |-><-| + Hbar (x) |+><+|) / N.
    """
    if not H.num_terms:
        raise ContractError("cannot normalize an empty Hamiltonian (N = 0)")
    N = H.N
    alpha, rows = _cycle_rows(H, 2)
    return MappedHamiltonian(
        n=H.n, ancilla_count=1, weights=alpha / N, rows=rows, normalization=N, kind="stochastic"
    )


def add_ancilla_penalty(mapped: MappedHamiltonian, p: float) -> MappedHamiltonian:
    """Mix a stochastic map with the ancilla penalty (1+X)/2 at weight 1-p.

    For p < 1/3 the lower 2^n eigenvalues are (p/N) spec(H) and the
    upper ones sit at (1-p) + (p/N) spec(Hbar); larger p only earns a
    warning since the split is no longer guaranteed.
    """
    if mapped.kind != "stochastic":
        raise ContractError("penalty applies to stochastize output")
    if not (0.0 < p < 1.0):
        raise ContractError(f"p must lie in (0, 1), got {p}")
    warnings = mapped.warnings
    if p >= 1.0 / 3.0:
        warnings = warnings + (f"p={p} is not < 1/3; spectral split not guaranteed",)
    return _with_penalty(mapped, p, "stochastic-penalty", warnings)


def stochastize_complex(H: LocalHamiltonian) -> MappedHamiltonian:
    """Map an arbitrary Hamiltonian to a stochastic matrix on n+2 qubits.

    Entry phases {1, i, -1, -i} are replaced by powers {I, F, F^2, F^3}
    of the ancilla 4-cycle. Sector v_1 carries H/N, sector v_3 carries
    the conjugate; sector_operator reads any of the four off the map.
    """
    if not H.num_terms:
        raise ContractError("cannot normalize an empty Hamiltonian (N = 0)")
    N = H.N
    alpha, rows = _cycle_rows(H, 4)
    return MappedHamiltonian(
        n=H.n, ancilla_count=2, weights=alpha / N, rows=rows, normalization=N, kind="stochastic-z4"
    )


def add_penalty_complex(mapped: MappedHamiltonian, p: float) -> MappedHamiltonian:
    """Penalize the even sectors of a Z4 map with X on the first ancilla.

    v_0 and v_2 are +1 eigenvectors of that X, v_1 and v_3 are -1
    eigenvectors, so the ground space doubles: the ground state of H in
    v_1 and its conjugate in v_3 stay degenerate.
    """
    if mapped.kind != "stochastic-z4":
        raise ContractError("penalty applies to stochastize_complex output")
    if not (0.0 < p < 1.0 / 3.0):
        raise ContractError(f"p must lie in (0, 1/3), got {p}")
    return _with_penalty(mapped, p, "stochastic-z4-penalty", mapped.warnings)


def stochastize_ff(terms: list[LocalHamiltonian], p: float) -> list[sp.csr_matrix]:
    """Map a list of psd terms to stochastic psd terms sharing one ancilla register.

    Output term j is the convex combination
        (p N_j / N) Hhat_j + (1 - p N_j / N) (1 + X_anc)/2,
    so every term is itself doubly stochastic and psd, not just the sum.
    Each term annihilates (common kernel) (x) |-> when the input sum is
    frustration free, and the summed low sector is exactly (p/N) times the
    input sum, so the gap scales by p/N.
    """
    if not terms:
        raise ContractError("need at least one term")
    if not (0.0 < p < 1.0 / 3.0):
        raise ContractError(f"p must lie in (0, 1/3), got {p}")
    n = terms[0].n
    _check_qubits(n)  # before 1 << n
    for H in terms:
        if H.n != n:
            raise ContractError("terms act on different register sizes")
        if not H.num_terms:
            raise ContractError("empty term has no normalization")
        # psd is checked on the term's support: H is that block (x) 1 on the rest of the register
        used = int(np.bitwise_or.reduce(H.x | H.z))
        order = sorted(range(n), key=lambda q: not used >> q & 1)
        block = remap_qubits(H, np.argsort(order), max(used.bit_count(), 1))
        if _min_eigenvalue(build_matrix(block), DENSE_CAP) < -FF_PSD_FLOOR:
            raise ContractError("input term is not positive semidefinite")
    use_z4 = not all(H.has_real_entries() for H in terms)
    N = sum(H.N for H in terms)
    out = []
    for H in terms:
        w = p * H.N / N
        if use_z4:
            mapped = add_penalty_complex(stochastize_complex(H), w)
        else:
            mapped = add_ancilla_penalty(stochastize(H), w)
        out.append(mapped.realize())
    return out


def sector_spectrum(mapped: MappedHamiltonian, sector: str) -> np.ndarray:
    """Eigenvalues of the realized matrix inside one ancilla sector, ascending."""
    return eig_dense(mapped.sector_operator(sector), compute_vectors=False).eigenvalues
