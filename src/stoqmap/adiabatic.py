"""Schedule-driven Schrodinger evolution with sector tracking and decoding.

The integrator applies exact matrix exponentials of the midpoint
Hamiltonian on each step, so the evolution is unitary to roundoff and
the only error is the O(dt^2) schedule discretization. Each exponential
is taken block by block over the connected components of the sample's
stored sparsity pattern, which the sample leaves invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import mapping
from .classify import _as_csr, _check_dense_cap, _eigh
from .clock import QuantumCircuit, _fixed_terms, _propagation_pieces, clock_state_index
from .errors import ContractError
from .pauli import DENSE_CAP, _csr_entries, _embed_entries, _scatter_sum, _sum_terms
from .spectra import DEGENERACY_TOL


@dataclass(eq=False)
class HamiltonianPath:
    """Schedule parameter u in [0,1] mapped to a (sparse) Hamiltonian.

    sector_projector, when present, marks an ancilla sector the
    evolution is expected to stay inside; evolve() then records the
    population so leakage can be reported.
    """

    generator: Callable[[float], sp.spmatrix]
    sector_projector: sp.spmatrix | None = None


def linear_interpolation_path(Ha, Hb) -> HamiltonianPath:
    A = sp.csr_matrix(Ha)
    B = sp.csr_matrix(Hb)
    if A.shape != B.shape:
        raise ContractError("endpoint dimensions differ")
    return HamiltonianPath(lambda u: sp.csr_matrix((1.0 - u) * A + u * B))


def ff_schedule_path(circuit: QuantumCircuit) -> HamiltonianPath:
    """The clock path H^FF(s(u)) with s(u) = u/2.

    H^FF(s) = K + s A + (1-s) B - sqrt(s(1-s)) C: K sums the pin, clock and
    init terms, A, B, C the propagation terms' lo, hi and hop pieces. Every
    piece is embedded once; the four parts are summed onto one CSR pattern,
    the union of their stored entries, so each sample is one axpy.

    Every H^FF(s) preserves the span of the legal clock configurations,
    so that span is tracked as the protected sector. Its projector B B^dagger
    (B = legal_basis) is the 0/1 diagonal 1 (x) sum_t |c_t><c_t|, since the
    columns of B at one clock time are a unitary image of the work basis.
    """
    fixed = [(t.qubits, t.local) for t in _fixed_terms(circuit)]  # checks the register first
    props = _propagation_pieces(circuit)  # (qubits, lo, hi, hop) per gate
    n, L = circuit.n, circuit.L
    dim = 1 << (n + L + 1)
    clocks = [clock_state_index(t, L) for t in range(L + 1)]
    legal = (np.arange(1 << n)[:, None] * (1 << (L + 1)) + clocks).ravel()
    projector = sp.csr_matrix((np.ones(legal.size), (legal, legal)), shape=(dim, dim))
    parts = [[_embed_entries(local, qubits, n + L + 1) for qubits, local in pieces]  # K, A, B and C
             for pieces in [fixed] + [[(p[0], p[i]) for p in props] for i in (1, 2, 3)]]
    rows, cols, vals = ([np.concatenate([e[i] for e in part]) for part in parts] for i in range(3))
    # No part cancels anywhere (K, A and B are nonnegative diagonals, and no two hop
    # entries share a position), so ones mark exactly the union of the four patterns.
    pattern = _sum_terms(dim, [(1.0, r, c, np.ones(r.size)) for r, c in zip(rows, cols)])
    pattern_rows, pattern_cols, _ = _csr_entries(pattern)
    slots = pattern_rows * dim + pattern_cols  # increasing, since the pattern's indices are sorted
    at = np.split(np.searchsorted(slots, np.concatenate(rows) * dim + np.concatenate(cols)),
                  np.cumsum([r.size for r in rows])[:-1])  # each entry's slot, part by part
    k, a, b, c = (_scatter_sum(where, v, pattern.nnz) for where, v in zip(at, vals))  # the parts on the pattern

    def generator(u: float) -> sp.csr_matrix:
        if not (0.0 <= u <= 1.0):
            raise ContractError(f"schedule parameter u must lie in [0, 1], got {u}")
        s = u / 2.0
        data = k + s * a + (1.0 - s) * b - float(np.sqrt(s * (1.0 - s))) * c
        return sp.csr_matrix((data, pattern.indices.copy(), pattern.indptr.copy()), shape=pattern.shape)

    return HamiltonianPath(generator=generator, sector_projector=projector)


def stoquastic_interpolation_path(Ha, Hb) -> HamiltonianPath:
    """Stoquastized linear interpolation with the |-> sector protected.

    Ha, Hb are LocalHamiltonians on the same register; the generator is
    stoquastize((1-u) Ha + u Hb), whose |-> sector reproduces the
    interpolation exactly and never couples to |+>.
    """
    if Ha.n != Hb.n:
        raise ContractError("endpoint registers differ")
    n = Ha.n

    def gen(u: float) -> sp.csr_matrix:
        return mapping.stoquastize(Ha.scaled(1.0 - u) + Hb.scaled(u)).realize()

    return HamiltonianPath(generator=gen, sector_projector=mapping.sector_projector(n, mapping.MINUS))


@dataclass(eq=False)
class AdiabaticTrace:
    times: np.ndarray
    u_values: np.ndarray
    overlaps: np.ndarray | None
    sector_populations: np.ndarray | None
    norms: np.ndarray
    final_state: np.ndarray
    T: float
    steps: int


def _pattern_blocks(H: sp.csr_matrix) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The invariant blocks of H: the connected components of its stored pattern, grouped by size.

    Group (idx, entries, slots) stacks its b components of size m:
    idx[j] lists component j's basis indices in ascending order, and
    H.data[entries] lands at the flat positions slots of the dense
    (b, m, m) stack. The graph is read from indptr/indices only, so a
    stored entry couples its row and column whatever its value.
    """
    from scipy.sparse.csgraph import connected_components  # on first use: no other command needs its ~1 MB

    dim = H.shape[0]
    graph = sp.csr_matrix((np.ones(H.indices.size), H.indices, H.indptr), shape=H.shape)
    count, labels = connected_components(graph, directed=False)
    size = np.bincount(labels, minlength=count)[labels]
    order = np.lexsort((np.arange(dim), labels, size))  # by component size, then component, then index
    where = np.empty(dim, dtype=np.intp)
    where[order] = np.arange(dim)
    rows, cols, _ = _csr_entries(H)
    groups = []
    start = 0
    for m in np.unique(size):
        stop = start + np.count_nonzero(size == m)
        entries = np.flatnonzero(size[rows] == m)
        r, c = where[rows[entries]] - start, where[cols[entries]] - start
        groups.append((order[start:stop].reshape(-1, m), entries, r * m + c % m))
        start = stop
    return groups


def _check_shape(H, dim: int) -> None:
    if H.shape != (dim, dim):
        raise ContractError(f"sample has shape {H.shape}, the state has dimension {dim}")


def _midpoint_factors(path: HamiltonianPath, steps: int, dim: int, dense_cap: int):
    """For each step k, [(idx, vals, vecs) per block size] of the sample H((k + 1/2)/steps).

    Consecutive samples on one stored pattern form a run. A run
    is solved in batches, one stacked _eigh per block size of shape
    (count, b, m, m), so the whole run costs a few solves, not one per
    step. A batch's blocks hold at most dense_cap**2 entries in all, as
    one dense solve at the cap does. Each sample is checked against
    dense_cap and dim when it is built, before any batch holding it is
    solved.
    """
    run, blocks, pattern, per_batch = [], [], (None, None), 0
    for k in range(steps):
        H = _as_csr(path.generator((k + 0.5) / steps))  # duplicate entries add up, as they would densified
        _check_dense_cap(H.shape[0], dense_cap)
        _check_shape(H, dim)
        if not (np.array_equal(H.indptr, pattern[0]) and np.array_equal(H.indices, pattern[1])):
            yield from _solved(blocks, run, dense_cap)
            blocks, pattern, run = _pattern_blocks(H), (H.indptr.copy(), H.indices.copy()), []
            per_batch = dense_cap**2 // sum(idx.size * idx.shape[1] for idx, _, _ in blocks)
        elif len(run) == per_batch:
            yield from _solved(blocks, run, dense_cap)
            run = []
        run.append(H.data.copy())  # a generator may reuse its buffers
    yield from _solved(blocks, run, dense_cap)


def _solved(blocks, run: list[np.ndarray], dense_cap: int):
    """Per sample of run (data arrays on the pattern of blocks), its (idx, vals, vecs) per block size."""
    if not run:
        return
    data = np.stack(run)
    factors = []
    for idx, entries, slots in blocks:
        b, m = idx.shape
        stack = np.zeros((len(run), b * m * m), dtype=data.dtype)
        stack[:, slots] = data[:, entries]
        factors.append((idx, *_eigh(stack.reshape(len(run), b, m, m), dense_cap)))
    for j in range(len(run)):
        yield [(idx, vals[j], vecs[j]) for idx, vals, vecs in factors]


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
    solved ahead of the steps that apply them: per run of steps on one
    pattern, all blocks of one size in one stacked solve, in batches of
    at most dense_cap**2 block entries (see _midpoint_factors). The
    blocks are found once per distinct pattern. dense_cap bounds each
    sample's whole dimension, checked before anything dense is built.
    """
    if steps < 1:
        raise ContractError("need at least one step")
    if not (math.isfinite(T) and T > 0):
        raise ContractError(f"total time T must be finite and positive, got {T}")
    psi = np.asarray(initial, dtype=complex).ravel().copy()
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ContractError("initial state is not normalized")
    dt = T / steps
    want_overlap = target is not None

    def overlap_at(u: float, state: np.ndarray) -> float:
        if isinstance(target, str) and target == "ground":
            vals, vecs = _eigh(path.generator(u), dense_cap)
            ground = vecs[:, vals <= vals[0] + DEGENERACY_TOL]
            return float(np.linalg.norm(ground.conj().T @ state) ** 2)
        return float(abs(np.vdot(target, state)) ** 2)

    samples = steps + 1
    times = np.linspace(0.0, T, samples)
    u_values = np.linspace(0.0, 1.0, samples)
    norms = np.zeros(samples)
    overlaps = np.zeros(samples) if want_overlap else None
    pops = np.zeros(samples) if path.sector_projector is not None else None

    def record(k: int, u: float):
        norms[k] = np.linalg.norm(psi)
        if overlaps is not None:
            overlaps[k] = overlap_at(u, psi)
        if pops is not None:
            pops[k] = float(np.real(np.vdot(psi, path.sector_projector @ psi)))

    _check_shape(path.generator(0.0), psi.size)  # before the u = 0 target and population read it
    record(0, 0.0)
    for k, factors in enumerate(_midpoint_factors(path, steps, psi.size, dense_cap)):
        for idx, vals, vecs in factors:
            amplitudes = np.einsum("bji,bj->bi", vecs.conj(), psi[idx]) * np.exp(-1j * vals * dt)
            psi[idx] = np.einsum("bij,bj->bi", vecs, amplitudes)
        record(k + 1, (k + 1.0) / steps)
    return AdiabaticTrace(
        times=times,
        u_values=u_values,
        overlaps=overlaps,
        sector_populations=pops,
        norms=norms,
        final_state=psi,
        T=T,
        steps=steps,
    )


@dataclass(frozen=True)
class MeasurementReport:
    n: int
    clock_qubits: int
    shots: int
    seed: int
    padded: bool
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
    success_cols = np.array([c for c in range(cdim) if c >> shift == lead_ones])
    probs = np.abs(final) ** 2
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
        n=n,
        clock_qubits=L_total + 1,
        shots=int(shots),
        seed=int(seed),
        padded=bool(padded),
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
