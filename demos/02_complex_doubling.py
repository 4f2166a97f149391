"""Phase elimination for complex Hamiltonians and the forced ground doubling.

Entries of a complex Hermitian H carry phases {1, i, -1, -i}. Swapping
each phase for the matching power of a 4-cycle permutation on two
ancilla qubits yields a stochastic matrix whose v1 ancilla sector is
H/N. Penalizing the even sectors leaves a twofold degenerate ground
space spanned by (ground of H) x v1 and its entrywise conjugate.
"""

import numpy as np

from stoqmap import (
    add_penalty_complex,
    build_matrix,
    eig_dense,
    random_instance,
    sector_vector_z4,
    stochastize_complex,
)

H = random_instance(2, locality=2, seed=12, include_y=True)
spec_H = eig_dense(build_matrix(H), compute_vectors=False).eigenvalues
print(f"complex H on {H.n} qubits, spectrum {np.round(spec_H, 4)}")

mapped = stochastize_complex(H)
N = mapped.normalization
err = np.max(np.abs(mapped.sector_operator("v1").toarray() - build_matrix(H).toarray() / N))
print(f"v1 sector operator equals H/N up to {err:.2e} (N = {N:.3f})")
conj_err = np.max(np.abs(mapped.sector_operator("v3").toarray() - np.conj(mapped.sector_operator("v1").toarray())))
print(f"v3 sector carries the conjugate problem (difference {conj_err:.2e})")

penalized = add_penalty_complex(mapped, 0.25)
out = eig_dense(penalized.realize())
vals = out.eigenvalues
print(f"\npenalized: lowest three eigenvalues {np.round(vals[:3], 6)}")
print(f"ground doubling: lambda2 - lambda1 = {vals[1] - vals[0]:.2e}")
print(f"gap above the pair: lambda3 - lambda2 = {vals[2] - vals[1]:.4f}")

psi = eig_dense(build_matrix(H)).eigenvectors[:, 0]
w = np.kron(psi, sector_vector_z4(1))
ground = out.eigenvectors[:, :2]
for name, vec in (("psi x v1  ", w), ("conjugate ", np.conj(w))):
    overlap = np.linalg.norm(ground.conj().T @ vec) ** 2
    print(f"overlap of {name} with the ground pair: {overlap:.10f}")
