"""Oracles for the one-pass clock path assembly and for the embedding it reads.

ff_schedule_path embeds every pin, clock, init and propagation piece
once and sums the four parts K, A, B, C onto one pattern. The reference
here is the earlier construction: one _sum_terms matrix per part,
their union pattern from a sum of absolute values, and each part
realigned onto it. Every sample must agree bit for bit: pattern, values
and dtype. _embed_entries is checked against a dense Kronecker product
whose tensor axes are permuted into place.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from stoqmap import QuantumCircuit, cnot, custom, ff_schedule_path, identity_gate, rot
from stoqmap.classify import _as_csr
from stoqmap.clock import _fixed_terms, _propagation_pieces
from stoqmap.pauli import _csr_entries, _embed_entries, _sum_terms

from oracles import sample

U_GRID = np.linspace(0.0, 1.0, 17)


def four_part_path(circuit):
    """The path's samples built part by part, each part its own _sum_terms matrix."""
    total = circuit.n + circuit.L + 1
    dim = 1 << total

    def part(pieces):
        return _sum_terms(dim, [(1.0, *_embed_entries(local, qubits, total)) for qubits, local in pieces])

    props = _propagation_pieces(circuit)
    parts = [part((t.qubits, t.local) for t in _fixed_terms(circuit))]
    parts += [part((p[0], p[i]) for p in props) for i in (1, 2, 3)]
    pattern = _as_csr(sum(abs(M) for M in parts))
    rows, cols, _ = _csr_entries(pattern)
    slots = rows * dim + cols

    def aligned(M):
        rows, cols, vals = _csr_entries(M)
        values = np.zeros(pattern.nnz, dtype=M.dtype)
        values[np.searchsorted(slots, rows * dim + cols)] = vals
        return values

    k, a, b, c = (aligned(M) for M in parts)

    def generator(u):
        s = u / 2.0
        data = k + s * a + (1.0 - s) * b - float(np.sqrt(s * (1.0 - s))) * c
        return sp.csr_matrix((data, pattern.indices.copy(), pattern.indptr.copy()), shape=pattern.shape)

    return generator


def random_circuit(rng, n, L):
    gates = []
    for _ in range(L):
        kind = rng.choice(["CNOT", "ROT", "ID", "CUSTOM1", "CUSTOM2"] if n > 1 else ["ROT", "ID", "CUSTOM1"])
        if kind == "CNOT":
            gates.append(cnot(*rng.choice(n, 2, replace=False).tolist()))
        elif kind == "ROT":
            gates.append(rot(int(rng.integers(n)), float(rng.uniform(-np.pi, np.pi))))
        elif kind == "ID":
            gates.append(identity_gate())
        else:
            k = 1 if kind == "CUSTOM1" else 2
            d = 1 << k
            if rng.random() < 0.5:  # Haar-like: QR of a complex Gaussian, phases fixed by R's diagonal
                q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
                U = q * (np.diag(r) / np.abs(np.diag(r)))
            else:  # a phased permutation: exact zeros the embedding must skip
                U = np.eye(d)[rng.permutation(d)] * np.exp(1j * rng.uniform(-np.pi, np.pi, d))
            gates.append(custom(rng.choice(n, k, replace=False).tolist(), U))
    return QuantumCircuit(n, tuple(gates))


def seeded_circuits():
    rng = np.random.default_rng(20090601)
    circuits = [random_circuit(rng, int(rng.integers(1, 4)), int(rng.integers(1, 6))) for _ in range(30)]
    circuits += [c.padded() for c in circuits[:5]]
    circuits.append(QuantumCircuit(1, (custom((0,), [[0.0, 1j], [1j, 0.0]]),)))  # purely imaginary hop
    circuits.append(QuantumCircuit(2, (rot(0, 0.4), cnot(0, 1), rot(1, 0.9))))
    return circuits


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name


CIRCUITS = seeded_circuits()


def test_seeded_circuits_cover_every_gate_kind():
    names = {g.name for c in CIRCUITS for g in c.gates}
    assert names == {"CNOT", "ROT", "ID", "CUSTOM"}
    assert any(g.name == "CUSTOM" and not g.is_real() for c in CIRCUITS for g in c.gates)
    assert any(np.any(g.unitary() == 0) for c in CIRCUITS for g in c.gates if g.name == "CUSTOM")


@pytest.mark.parametrize("index", range(len(CIRCUITS)))
def test_path_samples_are_bitwise_the_four_part_construction(index):
    circuit = CIRCUITS[index]
    path, reference = ff_schedule_path(circuit), four_part_path(circuit)
    for u in U_GRID:
        assert_bitwise_equal(sample(path, u), reference(u))


def test_path_on_13_qubits_is_bitwise_the_four_part_construction():
    rng = np.random.default_rng(13)
    circuit = random_circuit(rng, 4, 8)
    assert circuit.n + circuit.L + 1 == 13
    assert any(g.name == "CUSTOM" and not g.is_real() for g in circuit.gates)
    path, reference = ff_schedule_path(circuit), four_part_path(circuit)
    for u in U_GRID[::4]:
        assert_bitwise_equal(sample(path, u), reference(u))


def kron_embed(local, qubits, n):
    """local (x) 1 on n qubits, its tensor axes permuted so local bit j lands on qubits[j]."""
    k = len(qubits)
    full = np.kron(local, np.eye(1 << (n - k))).reshape((2,) * 2 * n)
    rest = [q for q in range(n) if q not in qubits]
    order = list(qubits) + rest  # axis i of the product is qubit order[i]
    perm = np.argsort(order)
    return full.transpose(list(perm) + [n + p for p in perm]).reshape(1 << n, 1 << n)


EMBED_CASES = [
    ((1,), 3, False),
    ((2, 0), 3, False),
    ((0, 3, 1), 4, True),
    ((4, 1), 5, True),
    ((), 2, False),
    ((3, 0, 2, 1), 4, True),
]


@pytest.mark.parametrize("qubits, n, complex_entries", EMBED_CASES)
@pytest.mark.parametrize("form", ["dense", "csr", "explicit_zeros"])
def test_embed_entries_match_a_permuted_kron(qubits, n, complex_entries, form):
    rng = np.random.default_rng(len(qubits) * 10 + n)
    d = 1 << len(qubits)
    local = rng.standard_normal((d, d)) * (rng.random((d, d)) < 0.5)
    if complex_entries:
        local = local + 1j * rng.standard_normal((d, d)) * (rng.random((d, d)) < 0.5)
    if form == "csr":
        given = sp.csr_matrix(local)
    elif form == "explicit_zeros":
        given = sp.csr_matrix(np.where(local == 0, 1.0, local))  # every position stored, row by row
        given.data[(local == 0).ravel()] = 0.0  # the zeros of local as explicit zeros
    else:
        given = local
    rows, cols, vals = _embed_entries(given, qubits, n)
    want = kron_embed(local, qubits, n)
    assert vals.dtype == local.dtype
    assert np.all(vals != 0)  # explicit zeros are not entries
    assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size  # one entry per position
    got = np.zeros_like(want)
    got[rows, cols] = vals
    assert np.array_equal(got, want)
