"""Frustration-free clock Hamiltonians built from quantum circuits.

Layout: work qubits 0..n-1 followed by L+1 clock qubits c(1)..c(L+1) at
indices n..n+L. Clock time t is the unary string 1^(t+1) 0^(L-t). The
terms are the pin projector |0><0| on c(1), the |01><01| penalties on
adjacent clock pairs, the |1><1| (x) |10><10| initialization terms, and
the gate propagation projectors, all 5-local or smaller.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np
import scipy.sparse as sp

from . import mapping
from .classify import _check_dense_cap, _eigh
from .errors import ContractError, ResourceError
from .pauli import (
    DENSE_CAP, MAX_QUBITS, LocalHamiltonian, _embed_entries, _sum_terms, embed, pauli_decompose, remap_qubits,
)

GATE_NAMES = ("CNOT", "ROT", "ID", "CUSTOM")


@dataclass(frozen=True, eq=False)
class Gate:
    name: str
    qubits: tuple[int, ...] = ()
    angle: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.name not in GATE_NAMES:
            raise ContractError(f"unknown gate {self.name!r}")
        qubits = tuple(self.qubits)
        if not all(isinstance(q, Integral) and not isinstance(q, bool) and q >= 0 for q in qubits):
            raise ContractError(f"gate qubits must be nonnegative integers, got {list(qubits)!r}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in qubits))
        if len(set(self.qubits)) != len(self.qubits):
            raise ContractError("gate qubits must be distinct")
        if self.name == "CNOT":
            if len(self.qubits) != 2:
                raise ContractError("CNOT takes (control, target)")
        elif self.name == "ROT":
            if len(self.qubits) != 1 or self.angle is None:
                raise ContractError("ROT takes one qubit and an angle")
            if not np.isfinite(self.angle):
                raise ContractError(f"ROT angle must be finite, got {self.angle!r}")
        elif self.name == "ID":
            if self.qubits:
                raise ContractError("ID takes no qubits")
        else:
            if not (1 <= len(self.qubits) <= 2):
                raise ContractError("CUSTOM gates act on 1 or 2 qubits")
            U = np.asarray(self.matrix, dtype=complex)
            d = 1 << len(self.qubits)
            if U.shape != (d, d):
                raise ContractError(f"CUSTOM matrix must be {d}x{d}")
            if np.max(np.abs(U.conj().T @ U - np.eye(d))) > 1e-12:
                raise ContractError("CUSTOM matrix is not unitary")
            U = U.copy()
            U.setflags(write=False)
            object.__setattr__(self, "matrix", U)

    def unitary(self) -> np.ndarray:
        if self.name == "CNOT":
            U = np.eye(4)
            U[2:, 2:] = np.array([[0.0, 1.0], [1.0, 0.0]])
            return U
        if self.name == "ROT":
            c, s = np.cos(self.angle), np.sin(self.angle)
            return np.array([[c, -s], [s, c]])
        if self.name == "ID":
            return np.eye(1)
        return np.asarray(self.matrix)

    def is_real(self) -> bool:
        U = self.unitary()
        return not np.iscomplexobj(U) or float(np.max(np.abs(U.imag))) <= 1e-14


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def rot(qubit: int, angle: float) -> Gate:
    return Gate("ROT", (qubit,), angle=angle)


def identity_gate() -> Gate:
    return Gate("ID")


def custom(qubits, matrix) -> Gate:
    return Gate("CUSTOM", tuple(qubits), matrix=np.asarray(matrix, dtype=complex))


@dataclass(frozen=True, eq=False)
class QuantumCircuit:
    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ContractError("need at least one work qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        for i, g in enumerate(self.gates):
            for q in g.qubits:
                if q >= self.n:
                    raise ContractError(f"gate {i} touches qubit {q}, but n={self.n}")

    @property
    def L(self) -> int:
        return len(self.gates)

    def statevectors(self) -> list[np.ndarray]:
        """States psi_0..psi_L with psi_j = U_j ... U_1 |0...0>."""
        psi = np.zeros(1 << self.n, dtype=complex)
        psi[0] = 1.0
        out = [psi]
        for g in self.gates:
            if g.name == "ID":
                out.append(out[-1])
                continue
            full = embed(g.unitary(), g.qubits, self.n)
            out.append(full @ out[-1])
        return out

    def final_state(self) -> np.ndarray:
        return self.statevectors()[-1]

    def padded(self) -> "QuantumCircuit":
        """Append L identity gates, doubling the depth."""
        return QuantumCircuit(self.n, self.gates + tuple(identity_gate() for _ in range(self.L)))


def output_distribution(circuit: QuantumCircuit) -> dict[str, float]:
    """Exact computational-basis distribution of the circuit output."""
    amps = circuit.final_state()
    probs = np.abs(amps) ** 2
    return {format(i, f"0{circuit.n}b"): float(p) for i, p in enumerate(probs)}


@dataclass(frozen=True, eq=False)
class ClockTerm:
    label: str
    qubits: tuple[int, ...]
    local: np.ndarray

    def realize(self, total_qubits: int) -> sp.csr_matrix:
        return embed(self.local, self.qubits, total_qubits)


@dataclass(frozen=True, eq=False)
class FFHamiltonian:
    circuit: QuantumCircuit
    s: float
    terms: tuple[ClockTerm, ...]

    @property
    def n(self) -> int:
        return self.circuit.n

    @property
    def L(self) -> int:
        return self.circuit.L

    @property
    def total_qubits(self) -> int:
        return self.n + self.L + 1

    @property
    def dim(self) -> int:
        return 1 << self.total_qubits

    def realize(self) -> sp.csr_matrix:
        return _sum_terms(self.dim, ((1.0, *_embed_entries(t.local, t.qubits, self.total_qubits))
                                     for t in self.terms))


def _ket_projector(dim: int, a: int, b: int) -> np.ndarray:
    out = np.zeros((dim, dim))
    out[a, b] = 1.0
    return out


def _propagation_pieces(circuit: QuantumCircuit) -> list[tuple]:
    """Each gate's propagation term split into (qubits, lo, hi, hop).

    On gate j's clock window, lo = 1 (x) |t_(j-1)><t_(j-1)|, hi = 1 (x) |t_j><t_j| and
    hop = U_j (x) |t_j><t_(j-1)| + h.c.; the term of H^FF(s) is s lo + (1-s) hi - sqrt(s(1-s)) hop.
    """
    n, L = circuit.n, circuit.L
    c = lambda j: n + j - 1
    out = []
    for j, gate in enumerate(circuit.gates, start=1):
        U = gate.unitary()
        Ig = np.eye(U.shape[0])
        if j < L:
            # clock window (c(j), c(j+1), c(j+2)); time j-1 reads 100, time j reads 110
            lo, hi, cdim = 0b100, 0b110, 8
            cq = (c(j), c(j + 1), c(j + 2))
        else:
            lo, hi, cdim = 0b10, 0b11, 4
            cq = (c(L), c(L + 1))
        hop = np.kron(U, _ket_projector(cdim, hi, lo))
        out.append((gate.qubits + cq, np.kron(Ig, _ket_projector(cdim, lo, lo)),
                    np.kron(Ig, _ket_projector(cdim, hi, hi)), hop + hop.conj().T))
    return out


def build_ff(circuit: QuantumCircuit, s: float) -> FFHamiltonian:
    """Assemble the frustration-free Hamiltonian H^FF(s) for a circuit."""
    if not (0.0 <= s <= 0.5):
        raise ContractError(f"s must lie in [0, 1/2], got {s}")
    fixed = _fixed_terms(circuit)
    b = float(np.sqrt(s * (1.0 - s)))
    props = tuple(ClockTerm(f"prop_{j}", qubits, s * lo + (1.0 - s) * hi - b * hop)
                  for j, (qubits, lo, hi, hop) in enumerate(_propagation_pieces(circuit), start=1))
    return FFHamiltonian(circuit=circuit, s=float(s), terms=fixed + props)


def _fixed_terms(circuit: QuantumCircuit) -> tuple[ClockTerm, ...]:
    """The pin, clock and init terms of H^FF(s), which do not depend on s; the register is checked first."""
    L, n = circuit.L, circuit.n
    if L < 1:
        raise ContractError("circuit needs at least one gate")
    if n + L + 1 > MAX_QUBITS:
        raise ResourceError(
            f"clock register needs n + L + 1 = {n + L + 1} qubits, above the {MAX_QUBITS}-qubit cap"
        )
    c = lambda j: n + j - 1
    terms: list[ClockTerm] = []
    terms.append(ClockTerm("pin", (c(1),), np.diag([1.0, 0.0])))
    for j in range(1, L + 1):
        # penalize the non-unary pattern |01> on (c(j), c(j+1))
        terms.append(ClockTerm(f"clock_{j}", (c(j), c(j + 1)), np.diag([0.0, 1.0, 0.0, 0.0])))
    for j in range(1, n + 1):
        local = np.zeros((8, 8))
        local[0b110, 0b110] = 1.0
        terms.append(ClockTerm(f"init_{j}", (j - 1, c(1), c(2)), local))
    return tuple(terms)


def clock_state_index(t: int, L: int) -> int:
    """Basis index of the unary clock state 1^(t+1) 0^(L-t) on L+1 qubits."""
    if not (0 <= t <= L):
        raise ContractError(f"clock time {t} out of range for L={L}")
    return (1 << (L + 1)) - (1 << (L - t))


def history_state(circuit: QuantumCircuit, s: float) -> np.ndarray:
    """Normalized ground state sum_j r^j psi_j (x) c_j of H^FF(s)."""
    if not (0.0 <= s <= 0.5):
        raise ContractError(f"s must lie in [0, 1/2], got {s}")
    L, n = circuit.L, circuit.n
    r = float(np.sqrt(s / (1.0 - s)))
    states = circuit.statevectors()
    cdim = 1 << (L + 1)
    out = np.zeros((1 << n) * cdim, dtype=complex)
    for j in range(L + 1):
        cidx = clock_state_index(j, L)
        weight = r**j if j else 1.0
        out[cidx::cdim] += weight * states[j]
    return out / np.linalg.norm(out)


@dataclass(frozen=True)
class BlockMatrix:
    """Tridiagonal block of the clock construction for Hamming weight |x|."""

    L: int
    hamming_weight: int
    s: float
    entries: np.ndarray

    def spectrum(self) -> np.ndarray:
        return _eigh(self.entries, DENSE_CAP, vectors=False)


def block_matrix(hamming_weight: int, s: float, L: int) -> BlockMatrix:
    """Block M_x: diag(s+|x|, 1, ..., 1, 1-s) with -sqrt(s(1-s)) couplings."""
    if hamming_weight < 0:
        raise ContractError("Hamming weight cannot be negative")
    if L < 1:
        raise ContractError("need L >= 1")
    if not (0.0 <= s <= 0.5):
        raise ContractError(f"s must lie in [0, 1/2], got {s}")
    b = float(np.sqrt(s * (1.0 - s)))
    M = np.zeros((L + 1, L + 1))
    M[np.diag_indices(L + 1)] = 1.0
    M[0, 0] = s + hamming_weight
    M[L, L] = 1.0 - s
    idx = np.arange(L)
    M[idx, idx + 1] = -b
    M[idx + 1, idx] = -b
    return BlockMatrix(L=L, hamming_weight=int(hamming_weight), s=float(s), entries=M)


def gap_formulas(s: float, L: int) -> tuple[float, float]:
    """Closed forms 1 - 2 sqrt(s(1-s)) cos(pi/(L+1)) and the halved-angle variant.

    The first is the gap of the weight-0 block at any s. The second is
    the ground energy of the weight-1 block at s = 1/2 (where the
    minimum gap sits); away from s = 1/2 it is only a lower bound on
    that ground energy, not its value. The bound is tight at s = 0 and
    s = 1/2 and strict in between: at L = 1 the ground energy is
    1 - sqrt(s), while the formula gives 1 - sqrt(2 s (1-s)).
    """
    if not (0.0 <= s <= 0.5):
        raise ContractError(f"s must lie in [0, 1/2], got {s}")
    if L < 1:
        raise ContractError("need L >= 1")
    b2 = 2.0 * np.sqrt(s * (1.0 - s))
    block_gap = 1.0 - b2 * np.cos(np.pi / (L + 1))
    full_gap = 1.0 - b2 * np.cos(np.pi / (2 * (L + 1)))
    return float(block_gap), float(full_gap)


def gap_scan(Lmin: int, Lmax: int, s_samples: int) -> list[tuple[int, float, float, float, float, float]]:
    """(L, s, block gap formula and measured, full gap formula and measured) per L in [Lmin, Lmax] and
    s = 1/(2 s_samples), 2/(2 s_samples), ..., 1/2.

    The measured values are the weight-0 block's gap and the weight-1
    block's ground energy (see gap_formulas), from one stacked solve per
    L of both blocks at every s. The largest block is checked against
    the dense cap before any block is built.
    """
    if Lmin < 1 or Lmax < Lmin:
        raise ContractError("need 1 <= Lmin <= Lmax")
    if s_samples < 1:
        raise ContractError("need at least one s sample")
    _check_dense_cap(Lmax + 1, DENSE_CAP)
    samples = [0.5 * i / s_samples for i in range(1, s_samples + 1)]
    rows = []
    for L in range(Lmin, Lmax + 1):
        stack = np.stack([block_matrix(weight, s, L).entries for s in samples for weight in (0, 1)])
        vals = _eigh(stack, DENSE_CAP, vectors=False).reshape(len(samples), 2, L + 1)
        for s, (block, full) in zip(samples, vals):
            block_formula, full_formula = gap_formulas(s, L)
            rows.append((L, s, block_formula, float(block[1]), full_formula, float(full[0])))
    return rows


def ff_term_hamiltonians(ff: FFHamiltonian) -> list[LocalHamiltonian]:
    """Pauli form of every clock term, embedded in the full register."""
    out = []
    for term in ff.terms:
        local = pauli_decompose(term.local)
        out.append(remap_qubits(local, term.qubits, ff.total_qubits))
    return out


def build_stochastic_ff(circuit: QuantumCircuit, s: float, p: float) -> list[sp.csr_matrix]:
    """Stochastic frustration-free image of H^FF(s); 6-local terms.

    Requires a real-entried circuit so that the one-ancilla map applies;
    a gate with complex entries is rejected by name.
    """
    for i, g in enumerate(circuit.gates):
        if not g.is_real():
            raise ContractError(
                f"gate {i} ({g.name}) has complex entries; the stochastic map needs a real circuit"
            )
    ff = build_ff(circuit, s)
    return mapping.stochastize_ff(ff_term_hamiltonians(ff), p)
