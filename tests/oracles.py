"""Reference constructions the tests compare the library against; the library itself never reads them."""

import numpy as np
import scipy.sparse as sp

from stoqmap import ContractError, clock_state_index, embed


def sample(path, u):
    """H(u) of a HamiltonianPath as its own CSR matrix, read from the same parts as evolve's samples."""
    if not (0.0 <= u <= 1.0):
        raise ContractError(f"schedule parameter u must lie in [0, 1], got {u}")
    piece = path.pieces[int(path.piece_at(u))]
    return sp.csr_matrix((piece.data([u])[0], piece.pattern.indices.copy(), piece.pattern.indptr.copy()),
                         shape=piece.pattern.shape)


def mapped_terms(mapped):
    """(weight, P_t) of a MappedHamiltonian one term at a time: the reference realize() is tested against."""
    cols, ones = np.arange(mapped.dim), np.ones(mapped.dim)
    return tuple((float(w), sp.csr_matrix((ones, (r, cols)), shape=(mapped.dim, mapped.dim)))
                 for w, r in zip(mapped.weights, mapped.rows))


def sector_isometry(mapped, sector):
    """The isometry 1 (x) |a> onto a MappedHamiltonian's ancilla sector, a its sector vector."""
    basis = mapped.sector_basis
    if sector not in basis:
        raise ContractError(f"unknown sector {sector!r}; have {sorted(basis)}")
    a = basis[sector].reshape(-1, 1)
    return sp.kron(sp.identity(1 << mapped.n, format="csr"), sp.csr_matrix(a), format="csr")


def legal_basis(ff):
    """Columns chi_x^j = (U_j..U_1|x>) (x) |c_j> of an FFHamiltonian, ordered x-major.

    These span the kernel of the clock penalty (plus pin) and
    block-diagonalize init + prop into the matrices M_x.
    """
    n, L = ff.n, ff.L
    cdim = 1 << (L + 1)
    dim = ff.dim
    cols = np.zeros((dim, (1 << n) * (L + 1)), dtype=complex)
    gates = [None] + [embed(g.unitary(), g.qubits, n) if g.name != "ID" else None for g in ff.circuit.gates]
    for x in range(1 << n):
        psi = np.zeros(1 << n, dtype=complex)
        psi[x] = 1.0
        for j in range(L + 1):
            if j:
                psi = gates[j] @ psi if gates[j] is not None else psi
            col = np.zeros(dim, dtype=complex)
            col[clock_state_index(j, L)::cdim] = psi
            cols[:, x * (L + 1) + j] = col
    return cols
