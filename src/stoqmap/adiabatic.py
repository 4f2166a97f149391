"""Schedule-driven Schrodinger evolution with sector tracking and decoding.

The integrator applies exact matrix exponentials of the midpoint
Hamiltonian on each step, so the evolution is unitary to roundoff and
the only error is the O(dt^2) schedule discretization. A path is a few
pieces, each a fixed sparsity pattern carrying a weighted sum of parts,
so every sample of a piece is one coefficient row times its part stack.
Each exponential is taken block by block over the connected components
of the piece's pattern, which every sample of the piece leaves invariant,
and only over the blocks that the state can reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import mapping
from .classify import _check_dense_cap, _eigh
from .clock import QuantumCircuit, _fixed_terms, _propagation_pieces, clock_state_index
from .errors import ContractError
from .pauli import DENSE_CAP, _csr_entries, _embed_entries, _is_hermitian, _scatter_sum, _sum_terms
from .spectra import DEGENERACY_TOL


@dataclass(frozen=True, eq=False)
class PathPiece:
    """H(u) = sum_j coefficients(u)[j] parts[j], stored on one canonical CSR pattern, for u below end.

    parts is the (parts x nnz) stack of values on pattern (whose own data
    is not read), each part held Hermitian at its own scale when the piece
    is built; coefficients maps an array of u to a real (len(u) x parts)
    array. So every sample, a real combination of the parts, is Hermitian.
    """

    end: float
    pattern: sp.csr_matrix
    parts: np.ndarray
    coefficients: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if np.ndim(self.parts) != 2 or not len(self.parts) or np.shape(self.parts)[1] != self.pattern.nnz:
            raise ContractError(f"parts of shape {np.shape(self.parts)} do not fit {self.pattern.nnz} stored entries")
        # part j over its scale max(1, max|part|) is diagonal block j of one CSR: one pauli._is_hermitian call
        (count, nnz), (rows, cols), j = self.parts.shape, self.pattern.shape, np.arange(len(self.parts))[:, None]
        scaled = self.parts / np.maximum(1.0, np.abs(self.parts).max(axis=1, initial=0.0))[:, None]
        indices, indptr = (self.pattern.indices + cols * j).ravel(), np.append(0, self.pattern.indptr[1:] + nnz * j)
        if not _is_hermitian(sp.csr_matrix((scaled.ravel(), indices, indptr), shape=(count * rows, count * cols))):
            raise ContractError("matrix is not Hermitian")

    def data(self, u, entries=slice(None)) -> np.ndarray:
        """The stored values of H(u) for every u at once, (len(u) x entries): the parts summed left to right."""
        c = self.coefficients(np.asarray(u, dtype=float))
        if np.iscomplexobj(c):
            raise ContractError("path coefficients must be real")
        data = c[:, :1] * self.parts[0, entries]
        for j in range(1, len(self.parts)):
            data += c[:, j:j + 1] * self.parts[j, entries]
        return data


@dataclass(frozen=True, eq=False)
class HamiltonianPath:
    """Schedule parameter u in [0, 1] mapped to a sparse Hamiltonian, piece by piece.

    Piece j holds from the previous piece's end (0 for the first) up to
    its own end; the last piece ends at 1 and holds at u = 1 too.
    sector, when present, is (index, vector): the subspace spanned by
    sum_m vector[m] |index[r, m]>, one orthonormal vector per row r,
    that the evolution is expected to stay inside; evolve() then records
    its population so leakage can be reported.
    """

    pieces: tuple[PathPiece, ...]
    sector: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        ends = [piece.end for piece in self.pieces]
        if not ends or ends[-1] != 1.0 or not all(0.0 < a < b for a, b in zip(ends, ends[1:])):
            raise ContractError(f"piece ends must increase from above 0 to exactly 1, got {ends}")
        if len({piece.pattern.shape for piece in self.pieces}) != 1 or self.pieces[0].pattern.shape[0] != self.dim:
            raise ContractError("pieces must share one square shape")

    @property
    def dim(self) -> int:
        return self.pieces[0].pattern.shape[1]

    def piece_at(self, u: np.ndarray) -> np.ndarray:
        """The index of the piece holding each u."""
        ends = [piece.end for piece in self.pieces]
        return np.minimum(np.searchsorted(ends, u, side="right"), len(ends) - 1)


def _on_one_pattern(dim: int, parts) -> tuple[sp.csr_matrix, np.ndarray]:
    """Each part's (rows, cols, vals) summed onto one canonical CSR pattern: the union of their positions.

    Returns the pattern and the (parts x nnz) stack of the parts' values
    on it, duplicate positions within a part added up.
    """
    rows, cols, vals = ([part[i] for part in parts] for i in range(3))
    pattern = _sum_terms(dim, [(1.0, r, c, np.ones(r.size)) for r, c in zip(rows, cols)])  # ones never cancel
    pattern_rows, pattern_cols, _ = _csr_entries(pattern)
    slots = pattern_rows * dim + pattern_cols  # increasing, since the pattern's indices are sorted
    at = np.split(np.searchsorted(slots, np.concatenate(rows) * dim + np.concatenate(cols)),
                  np.cumsum([r.size for r in rows])[:-1])  # each entry's slot, part by part
    return pattern, np.stack([_scatter_sum(where, v, pattern.nnz) for where, v in zip(at, vals)])


def ff_schedule_path(circuit: QuantumCircuit) -> HamiltonianPath:
    """The clock path H^FF(s(u)) with s(u) = u/2, one piece of four parts.

    H^FF(s) = K + s A + (1-s) B - sqrt(s(1-s)) C: K sums the pin, clock and
    init terms, A, B, C the propagation terms' lo, hi and hop pieces. Every
    piece is embedded once, and the four parts are summed onto one pattern.

    Every H^FF(s) preserves the span of the legal clock configurations,
    so that span is tracked as the protected sector. Its projector B B^dagger
    (B with columns (U_t..U_1|x>) (x) |c_t>) is the 0/1 diagonal
    1 (x) sum_t |c_t><c_t|, since the columns of B at one clock time are a
    unitary image of the work basis: the sector is the legal basis states themselves.
    """
    fixed = [(t.qubits, t.local) for t in _fixed_terms(circuit)]  # checks the register first
    props = _propagation_pieces(circuit)  # (qubits, lo, hi, hop) per gate
    n, L = circuit.n, circuit.L
    clocks = [clock_state_index(t, L) for t in range(L + 1)]
    legal = (np.arange(1 << n)[:, None] * (1 << (L + 1)) + clocks).ravel()
    parts = [[_embed_entries(local, qubits, n + L + 1) for qubits, local in pieces]  # K, A, B and C
             for pieces in [fixed] + [[(p[0], p[i]) for p in props] for i in (1, 2, 3)]]
    pattern, stack = _on_one_pattern(1 << (n + L + 1),
                                     [tuple(np.concatenate([e[i] for e in part]) for i in range(3)) for part in parts])

    def coefficients(u: np.ndarray) -> np.ndarray:
        s = u / 2.0
        return np.column_stack([np.ones_like(s), s, 1.0 - s, -np.sqrt(s * (1.0 - s))])

    return HamiltonianPath((PathPiece(1.0, pattern, stack, coefficients),), sector=(legal[:, None], np.ones(1)))


def stoquastic_interpolation_path(Ha, Hb) -> HamiltonianPath:
    """Stoquastized linear interpolation stoquastize((1-u) Ha + u Hb), with the |-> sector protected.

    Ha, Hb are LocalHamiltonians on the same register; the |-> sector of
    every sample reproduces the interpolation exactly and never couples
    to |+>. stoquastize is affine in a term's coefficient while its sign
    holds, so the path is affine between the u at which a string of both
    Ha and Hb changes sign (their sum merges it); each piece carries its
    two realized ends as parts. With no such string it is one piece,
    (1-u) stoquastize(Ha) + u stoquastize(Hb).
    """
    if Ha.n != Hb.n:
        raise ContractError("endpoint registers differ")
    a, b = (dict(zip(zip(H.x.tolist(), H.z.tolist()), H.coeff.tolist())) for H in (Ha, Hb))
    flips = {a[key] / (a[key] - b[key]) for key in a.keys() & b.keys() if a[key] * b[key] < 0}
    bounds = [0.0, *sorted(flips), 1.0]
    ends = [_csr_entries(mapping.stoquastize(Ha.scaled(1.0 - u) + Hb.scaled(u)).realize()) for u in bounds]

    def piece(u0: float, u1: float, at_u0, at_u1) -> PathPiece:
        def coefficients(u: np.ndarray) -> np.ndarray:
            return np.column_stack([(u1 - u) / (u1 - u0), (u - u0) / (u1 - u0)])

        return PathPiece(u1, *_on_one_pattern(2 << Ha.n, [at_u0, at_u1]), coefficients)

    pieces = tuple(piece(*args) for args in zip(bounds, bounds[1:], ends, ends[1:]))
    return HamiltonianPath(pieces, sector=(np.arange(2 << Ha.n).reshape(-1, 2), mapping.MINUS))


@dataclass(eq=False)
class AdiabaticTrace:
    overlaps: np.ndarray | None
    sector_populations: np.ndarray | None
    norms: np.ndarray
    final_state: np.ndarray


def _components(rows: np.ndarray, cols: np.ndarray, dim: int) -> tuple[int, np.ndarray]:
    """(count, labels) of the undirected graph on dim vertices with an edge per (rows, cols) pair, numbered
    by smallest vertex as csgraph.connected_components numbers them. Each round hooks every edge's larger
    root onto its smaller one and points every vertex at its root; an edge inside one component stays there."""
    labels = np.arange(dim)
    while rows.size:
        apart = labels[rows] != labels[cols]
        rows, cols = rows[apart], cols[apart]
        np.minimum.at(labels, np.maximum(labels[rows], labels[cols]), np.minimum(labels[rows], labels[cols]))
        while np.any(labels[labels] != labels):
            labels = labels[labels]
    roots = labels == np.arange(dim)
    return int(np.count_nonzero(roots)), (np.cumsum(roots) - 1)[labels]


def _pattern_blocks(H: sp.csr_matrix, reach: np.ndarray) -> list:
    """The invariant blocks of H that meet reach (a boolean over the basis), grouped by size: the
    connected components of H's stored pattern that hold a reachable index.

    Group (idx, entries, slots) stacks its b components of size m:
    idx[j] lists component j's basis indices in ascending order, and
    H.data[entries] lands at the flat positions slots of the dense
    (b, m, m) stack. The graph is read from indptr/indices only, so a
    stored entry couples its row and column whatever its value.
    """
    rows, cols, _ = _csr_entries(H)
    count, labels = _components(rows, cols, H.shape[0])
    size = np.bincount(labels, minlength=count)[labels]
    key = np.where((np.bincount(labels, reach, count) > 0)[labels], size, 0)  # 0: a component reach misses
    order = np.lexsort((np.arange(H.shape[0]), labels, key))  # by group, then component, then index
    where = np.argsort(order)  # each index's position in order
    groups, start = [], np.count_nonzero(key == 0)  # the groups follow the components reach misses
    for m in np.unique(key[key > 0]):
        stop = start + np.count_nonzero(key == m)
        entries = np.flatnonzero(key[rows] == m)
        r, c = where[rows[entries]] - start, where[cols[entries]] - start
        groups.append((order[start:stop].reshape(-1, m), entries, r * m + c % m))
        start = stop
    return groups


def _block_stacks(piece: PathPiece, points: np.ndarray, groups, dense_cap: int):
    """Batches of the samples at points, as each group's dense (count, b, m, m) stack of blocks.

    Every group's block size m is checked against dense_cap first. Only
    the groups' own entries are formed (PathPiece.data), and a batch holds
    at most dense_cap**2 entries in all, as one dense solve at the cap
    does, or one sample when a single sample's blocks hold more.
    """
    for idx, _, _ in groups:
        _check_dense_cap(idx.shape[1], dense_cap)
    per_batch = max(1, dense_cap**2 // sum(idx.size * idx.shape[1] for idx, _, _ in groups))
    for start in range(0, points.size, per_batch):
        stacks = []
        for idx, entries, slots in groups:
            data = piece.data(points[start:start + per_batch], entries)
            stack = np.zeros((len(data), idx.size * idx.shape[1]), dtype=data.dtype)
            stack[:, slots] = data
            stacks.append(stack.reshape(len(data), *idx.shape, idx.shape[1]))
        yield stacks


def _solved_samples(path: HamiltonianPath, u: np.ndarray, dense_cap: int, reach: np.ndarray, dt: float | None = None):
    """For each u in turn (ascending), [(idx, vals, vecs) per solved block size] of the sample H(u).

    With dt, vals are replaced by the phases exp(-i vals dt), computed per
    batch. Each piece's blocks are found once, and only those meeting
    reach, the boolean support of the state, are formed and solved, one
    stacked _eigh per block size and batch (see _block_stacks); each piece
    then extends reach by them (an all-true reach solves every block).
    Another block holds a zero state, which stays zero, and is Hermitian
    since PathPiece checks its parts, so it is never formed.
    """
    at = path.piece_at(u)
    for j, piece in enumerate(path.pieces):
        points = u[at == j]
        if not points.size:
            continue
        groups = _pattern_blocks(piece.pattern, reach)
        for idx, _, _ in groups:
            reach[idx] = True
        for stacks in _block_stacks(piece, points, groups, dense_cap):
            solved = []
            for (idx, _, _), stack in zip(groups, stacks):
                vals, vecs = _eigh(stack, dense_cap)
                solved.append((idx, vals if dt is None else np.exp(-1j * vals * dt), vecs))
            for k in range(len(stacks[0])):
                yield [(idx, vals[k], vecs[k]) for idx, vals, vecs in solved]


def evolve(
    path: HamiltonianPath,
    T: float,
    steps: int,
    initial: np.ndarray,
    target: str | np.ndarray | None = "ground",
    dense_cap: int = DENSE_CAP,
) -> AdiabaticTrace:
    """Piecewise-constant propagation of `initial` along the path.

    target "ground" tracks the population of the instantaneous ground
    eigenspace (eigenvalues within a degeneracy window of the minimum);
    a vector tracks |<target|psi>|^2 instead.

    Each step propagates the midpoint sample block by block (see
    _pattern_blocks). The samples do not depend on the state, so they are
    solved ahead of the steps that apply them, per piece in stacked
    batches (see _solved_samples). Only the blocks the state can reach
    from the support of `initial` are formed and solved: the others hold
    zero, and PathPiece has checked every part Hermitian. The ground space
    at each record point is read off every block of that sample, solved
    the same way. dense_cap bounds each block that is formed, before its
    stack is built; the register is bounded only by MAX_QUBITS.
    """
    if steps < 1:
        raise ContractError("need at least one step")
    if not (math.isfinite(T) and T > 0):
        raise ContractError(f"total time T must be finite and positive, got {T}")
    psi = np.asarray(initial, dtype=complex).ravel().copy()
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-8:  # a NaN norm fails this too
        raise ContractError("initial state must be finite and normalized")
    if psi.size != path.dim:
        raise ContractError(f"path has dimension {path.dim}, the state has dimension {psi.size}")
    dt = T / steps
    ground = None
    if isinstance(target, str) and target == "ground":
        ground = _solved_samples(path, np.arange(steps + 1) / steps, dense_cap, np.ones(path.dim, dtype=bool))

    def overlap_at(state: np.ndarray) -> float:
        if ground is None:
            return float(abs(np.vdot(target, state)) ** 2)
        blocks = next(ground)  # every block of the sample at this record point
        lowest = min(vals.min() for _, vals, _ in blocks)
        overlap = 0.0
        for idx, vals, vecs in blocks:
            amplitudes = np.einsum("bji,bj->bi", vecs.conj(), state[idx])
            overlap += np.sum(np.abs(amplitudes[vals <= lowest + DEGENERACY_TOL]) ** 2)
        return float(overlap)

    samples = steps + 1
    norms = np.zeros(samples)
    overlaps = np.zeros(samples) if target is not None else None
    pops = np.zeros(samples) if path.sector is not None else None
    if pops is not None:
        index, vector = path.sector
        row_projector = np.outer(vector.conj(), vector)  # psi[index] @ row_projector: each row's projection
        projected = np.zeros_like(psi)  # the sector's projector applied to psi; only index is ever written

    def record(k: int):
        norms[k] = np.linalg.norm(psi)
        if overlaps is not None:
            overlaps[k] = overlap_at(psi)
        if pops is not None:
            projected[index] = psi[index] @ row_projector
            pops[k] = float(np.real(np.vdot(psi, projected)))

    record(0)
    midpoints = (np.arange(steps) + 0.5) / steps
    for k, factors in enumerate(_solved_samples(path, midpoints, dense_cap, psi != 0, dt)):
        for idx, phases, vecs in factors:
            amplitudes = np.einsum("bji,bj->bi", vecs.conj(), psi[idx]) * phases
            psi[idx] = np.einsum("bij,bj->bi", vecs, amplitudes)
        record(k + 1)
    return AdiabaticTrace(overlaps=overlaps, sector_populations=pops, norms=norms, final_state=psi)


@dataclass(frozen=True)
class MeasurementReport:
    shots: int
    clock_success_probability: float
    clock_success_count: int
    clock_success_frequency: float
    decoded_counts: dict[str, int]
    decoded_distribution_exact: dict[str, float]


def measure_and_decode(
    final: np.ndarray,
    circuit: QuantumCircuit,
    shots: int,
    seed: int = 0,
    padded: bool = False,
) -> MeasurementReport:
    """Sample the clock register, keeping shots whose clock has passed the circuit.

    Success means the first L+1 clock qubits all read 1, that is, clock
    time >= L of the original circuit. Unpadded this is the single
    all-ones pattern with history-state probability 1/(L+1) at s = 1/2;
    with padded=True the state lives on the circuit padded by L identity
    gates (clock depth 2L), the work register is already final on every
    successful pattern, and the probability rises to (L+1)/(2L+1).
    """
    if shots < 0:
        raise ContractError(f"shots must be nonnegative, got {shots}")
    base_L = circuit.L
    L_total = 2 * base_L if padded else base_L
    n = circuit.n
    dim = 1 << (n + L_total + 1)
    final = np.asarray(final, dtype=complex).ravel()
    if final.size != dim:
        raise ContractError(
            f"state has dimension {final.size}, layout needs {dim} (n={n}, clock={L_total + 1})"
        )
    cdim = 1 << (L_total + 1)
    shift = L_total - base_L
    lead_ones = (1 << (base_L + 1)) - 1
    success_cols = np.arange(lead_ones << shift, cdim)  # every pattern whose top base_L + 1 bits are ones
    probs = np.abs(final) ** 2
    if not 0 < probs.sum() < math.inf:  # a NaN sum fails this too
        raise ContractError("state must be finite and nonzero")
    probs = probs / probs.sum()
    table = probs.reshape(1 << n, cdim)
    success_p = float(table[:, success_cols].sum())
    if success_p > 0:
        conditional = table[:, success_cols].sum(axis=1) / success_p
    else:
        conditional = np.zeros(1 << n)
    rng = np.random.default_rng(seed)
    draws = rng.choice(dim, size=shots, p=probs)
    clock_part = draws % cdim
    work_part = draws // cdim
    hits = work_part[clock_part >> shift == lead_ones]
    counts: dict[str, int] = {}
    for w in hits:
        key = format(int(w), f"0{n}b")
        counts[key] = counts.get(key, 0) + 1
    exact = {format(i, f"0{n}b"): float(p) for i, p in enumerate(conditional)}
    return MeasurementReport(
        shots=int(shots),
        clock_success_probability=success_p,
        clock_success_count=int(hits.size),
        clock_success_frequency=float(hits.size) / shots if shots else 0.0,
        decoded_counts=counts,
        decoded_distribution_exact=exact,
    )


def sector_leakage(trace: AdiabaticTrace) -> float:
    """1 minus the worst protected-sector population seen along the trace."""
    if trace.sector_populations is None:
        raise ContractError("trace has no protected sector")
    return float(1.0 - np.min(trace.sector_populations))
