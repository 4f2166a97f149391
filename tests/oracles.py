"""Reference constructions the tests compare the library against; the library itself never reads them."""

import numpy as np
import scipy.sparse as sp

from stoqmap import ContractError


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
