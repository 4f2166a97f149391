"""Satisfiability reductions and the excited-state verification protocol.

Eigenvalue indices here are 1-based to match the (k,c,epsilon)-energy
problem statement: lambda_c is the c-th smallest eigenvalue, and a YES
instance has lambda_c <= a.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import mapping
from .classify import _check_dense_cap, _check_tol, _eigh, classify
from .errors import ContractError
from .pauli import (
    DEFAULT_TOL, DENSE_CAP, LocalHamiltonian, _check_qubits, _csr_entries, _factor_masks, _sum_terms, build_matrix,
    pauli_decompose,
)


@dataclass(frozen=True, eq=False)
class SatInstance:
    """A k-SAT-style instance: psd operators whose sum should annihilate a state.

    kind is "quantum" (psd operators, typically projectors),
    "stoquastic", or "stochastic"; reduced instances carry N_max and the
    rescaled promise gap epsilon_tilde in the epsilon field.
    """

    n: int
    operators: tuple[sp.csr_matrix, ...]
    epsilon: float
    kind: str
    pauli_operators: tuple[LocalHamiltonian, ...] | None = None
    N_max: float | None = None

    def __post_init__(self):
        if self.kind not in ("quantum", "stoquastic", "stochastic"):
            raise ContractError(f"unknown instance kind {self.kind!r}")
        if not self.epsilon > 0:  # true for nan too
            raise ContractError("epsilon must be positive")
        ops = tuple(sp.csr_matrix(op) for op in self.operators)
        if not ops:
            raise ContractError("instance needs at least one operator")
        _check_qubits(self.n)
        dim = 1 << self.n
        for op in ops:
            if op.shape != (dim, dim):
                raise ContractError(f"operator shape {op.shape} does not match n={self.n}")
        object.__setattr__(self, "operators", ops)

    @property
    def m(self) -> int:
        return len(self.operators)

    @classmethod
    def from_paulis(cls, hams, epsilon: float) -> "SatInstance":
        """A quantum instance whose operators are the given Pauli-form Hamiltonians."""
        hams = tuple(hams)
        return cls(
            n=hams[0].n,
            operators=tuple(build_matrix(H) for H in hams),
            epsilon=epsilon,
            kind="quantum",
            pauli_operators=hams,
        )

    def total(self) -> sp.csr_matrix:
        return _sum_terms(1 << self.n, ((1.0, *_csr_entries(op)) for op in self.operators))

    def check(self, tol: float = DEFAULT_TOL) -> None:
        """Enforce the class invariants (psd everywhere, flags match kind)."""
        for i, op in enumerate(self.operators):
            flags = classify(op, tol=tol)
            if not flags.psd:
                raise ContractError(f"operator {i} is not positive semidefinite")
            if self.kind == "stoquastic" and not flags.stoquastic:
                raise ContractError(f"operator {i} is not stoquastic")
            if self.kind == "stochastic" and not flags.column_stochastic:
                raise ContractError(f"operator {i} is not column stochastic")


@dataclass(frozen=True)
class SatDecision:
    verdict: str  # YES | NO | AMBIGUOUS
    ground_energy: float


def decide_sat(instance: SatInstance, tol: float = DEFAULT_TOL, dense_cap: int = DENSE_CAP) -> SatDecision:
    """YES if the operator sum has a zero-energy state, NO if >= epsilon."""
    _check_tol(tol)
    ground = float(_eigh(instance.total(), dense_cap, vectors=False)[0])
    verdict = _verdict(ground, tol, instance.epsilon - tol)
    return SatDecision(verdict=verdict, ground_energy=ground)


def _check_c(c: int) -> None:
    if c < 1:
        raise ContractError("c must be at least 1")


def _verdict(value: float, yes_at_most: float, no_at_least: float) -> str:
    """YES at or below the first threshold, NO at or above the second, else AMBIGUOUS."""
    if value <= yes_at_most:
        return "YES"
    if value >= no_at_least:
        return "NO"
    return "AMBIGUOUS"


def reduce_qsat(instance: SatInstance) -> SatInstance:
    """Map a quantum SAT instance of projectors to a stochastic one.

    Each projector Pi_j becomes (1-p)(1+X_anc1)/2 + p Pi~_j on two extra
    ancilla qubits, with the paper's p = 1/3, where Pi~_j is the
    four-cycle image of Pi_j divided by its normalization N_j. The
    promise gap rescales to p epsilon / (m N_max) = epsilon/(3 m N_max).
    The reduced register must fit the dense cap, since every reduced
    operator is written and decided densely.
    """
    if instance.kind != "quantum":
        raise ContractError("reduction starts from a quantum instance")
    _check_dense_cap(1 << (instance.n + 2), DENSE_CAP)
    p = 1.0 / 3.0
    hams: list[LocalHamiltonian] = []
    for i, op in enumerate(instance.operators):
        flags = classify(op)
        if not flags.projector:
            raise ContractError(
                f"operator {i} is not a projector; run kernel_projector_complement first"
            )
        if instance.pauli_operators is not None:
            hams.append(instance.pauli_operators[i])
        else:
            hams.append(pauli_decompose(op))
    n = instance.n
    out_ops = []
    norms = []
    for H in hams:
        mapped = mapping.stochastize_complex(H)
        norms.append(mapped.normalization)
        out_ops.append(mapping._with_penalty(mapped, p, "stochastic-z4-penalty", ()).realize())
    N_max = max(norms)
    eps_tilde = p * instance.epsilon / (instance.m * N_max)
    return SatInstance(
        n=n + 2,
        operators=tuple(out_ops),
        epsilon=eps_tilde,
        kind="stochastic",
        N_max=N_max,
    )


@dataclass(frozen=True, eq=False)
class ExcitedEnergyProblem:
    """Decide whether lambda_c <= a (YES) or lambda_c >= b (NO)."""

    H: LocalHamiltonian
    c: int
    a: float
    b: float

    def __post_init__(self):
        _check_c(self.c)
        if not self.b > self.a:
            raise ContractError("need b > a")

    @property
    def epsilon(self) -> float:
        return self.b - self.a

    def lambda_c(self, dense_cap: int = DENSE_CAP) -> float:
        vals = _eigh(build_matrix(self.H), dense_cap, vectors=False)
        if self.c > vals.size:
            raise ContractError(f"c={self.c} exceeds the spectrum size {vals.size}")
        return float(vals[self.c - 1])

    def decide(self, dense_cap: int = DENSE_CAP) -> str:
        return _verdict(self.lambda_c(dense_cap), self.a, self.b)


def build_Hc(c: int, n: int) -> LocalHamiltonian:
    """Diagonal gadget with exactly c negative-energy basis states.

    Weights 2^k sit on qubits 0..d and 2^(d+1) on the rest, with
    d = ceil(log2 c); the -(c - 1/2) shift puts the lowest nonnegative
    eigenvalue at exactly 1/2.
    """
    _check_c(c)
    d = math.ceil(math.log2(c)) if c > 1 else 0
    if n < d + 1:
        raise ContractError(f"need n >= {d + 1} qubits for c={c}")
    items = []
    ident_coeff = -(c - 0.5)
    for k in range(n):
        w = float(2**k if k <= d else 2 ** (d + 1))
        # w * P_k with P_k = (1 + Z_k)/2
        items.append((w / 2.0, {k: "Z"}))
        ident_coeff += w / 2.0
    items.append((ident_coeff, {}))
    return LocalHamiltonian.from_signed(n, items)


def direct_sum(Ha: LocalHamiltonian, Hb: LocalHamiltonian) -> LocalHamiltonian:
    """Ha (x) |0><0| + Hb (x) |1><1| on one extra qubit; spectra concatenate."""
    if Ha.n != Hb.n:
        raise ContractError("summands act on different register sizes")
    n = Ha.n
    # each term t becomes t/2 and t/2 Z_n, the latter negated for Hb's terms
    coeff = np.repeat(np.concatenate([Ha.coeff, Hb.coeff]) / 2.0, 2)
    coeff[2 * Ha.num_terms + 1::2] *= -1.0
    z = np.repeat(np.concatenate([Ha.z, Hb.z]), 2)
    z[1::2] |= _factor_masks([(n, "Z")])[1]
    return LocalHamiltonian(n + 1, np.repeat(np.concatenate([Ha.x, Hb.x]), 2), z, coeff)


def slater_witness(states) -> np.ndarray:
    """Antisymmetrized tensor product of c orthonormal single-register states."""
    vecs = [np.asarray(v, dtype=complex).ravel() for v in states]
    c = len(vecs)
    if c < 1:
        raise ContractError("need at least one state")
    d = vecs[0].size
    G = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    if not np.max(np.abs(G - np.eye(c))) <= 1e-10:  # true for nan too
        raise ContractError("witness states must be orthonormal")
    out = np.zeros(d**c, dtype=complex)
    for perm in itertools.permutations(range(c)):
        sign = _perm_sign(perm)
        piece = vecs[perm[0]]
        for i in perm[1:]:
            piece = np.kron(piece, vecs[i])
        out += sign * piece
    return out / np.sqrt(math.factorial(c))


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def antisym_projector(d: int, c: int, dense_cap: int = DENSE_CAP) -> sp.csr_matrix:
    """Projector onto the antisymmetric subspace of (C^d)^(x c); rank C(d, c)."""
    _check_c(c)
    if c > d:
        raise ContractError(f"antisymmetric subspace of c={c} copies of dimension {d} is empty")
    dim = d**c
    _check_dense_cap(dim, dense_cap)
    radix = d ** np.arange(c - 1, -1, -1)
    idx = np.arange(dim)
    digits = (idx[:, None] // radix[None, :]) % d
    ones = np.ones(dim)
    return _sum_terms(dim, (
        (_perm_sign(perm) / math.factorial(c), digits[:, list(perm)] @ radix, idx, ones)
        for perm in itertools.permutations(range(c))
    ))


def lemma1_value(phi: np.ndarray, alpha: np.ndarray) -> float:
    """<phi| (|alpha><alpha| (x) 1) |phi> for antisymmetric phi; at most 1/c."""
    alpha = np.asarray(alpha, dtype=complex).ravel()
    alpha = alpha / np.linalg.norm(alpha)
    phi = np.asarray(phi, dtype=complex).ravel()
    d = alpha.size
    c = int(round(np.log(phi.size) / np.log(d)))
    if d**c != phi.size:
        raise ContractError("phi is not a c-fold tensor power of the alpha register")
    P = antisym_projector(d, c)
    if not np.linalg.norm(P @ phi - phi) <= 1e-10 * max(1.0, np.linalg.norm(phi)):  # true for nan too
        raise ContractError("phi is not antisymmetric")
    block = phi.reshape(d, d ** (c - 1))
    first = alpha.conj() @ block
    return float(np.real(np.vdot(first, first)) / np.real(np.vdot(phi, phi)))


@dataclass(frozen=True, eq=False)
class AcceptanceReport:
    probability: float
    bound: float
    eigenvalues_below: int


def acceptance_operator(
    H, c: int, threshold: float, dense_cap: int = DENSE_CAP
) -> AcceptanceReport:
    """Best acceptance probability over antisymmetric witnesses.

    The verifier projects onto the antisymmetric subspace, then measures
    the first register in the eigenbasis of H and accepts energies at
    most `threshold`. The optimum is the top eigenvalue of
    P (E_thr (x) 1) P, which equals min(m_low, c)/c with m_low the
    number of eigenvalues below the threshold. H may be a
    LocalHamiltonian or a Hermitian matrix.
    """
    _check_c(c)
    if isinstance(H, LocalHamiltonian):
        H = build_matrix(H)
    d = np.shape(H)[0]
    _check_dense_cap(d**c, dense_cap)
    vals, vecs = _eigh(H, dense_cap)
    low = vecs[:, vals <= threshold]
    E = low @ low.conj().T
    P = antisym_projector(d, c, dense_cap=dense_cap).toarray()
    E_ext = np.kron(E, np.eye(d ** (c - 1)))
    avals = _eigh(P @ E_ext @ P, dense_cap, vectors=False)
    prob = float(min(max(avals[-1], 0.0), 1.0))
    return AcceptanceReport(
        probability=prob,
        bound=1.0 - 1.0 / c,
        eigenvalues_below=int(low.shape[1]),
    )
