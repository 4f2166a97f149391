import contextlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.sparse import _compressed, _coo, _sparsetools

from stoqmap import (
    ContractError,
    LocalHamiltonian,
    QuantumCircuit,
    ResourceError,
    SatInstance,
    add_ancilla_penalty,
    add_penalty_complex,
    antisym_projector,
    build_ff,
    build_matrix,
    cnot,
    embed,
    pauli_decompose,
    random_instance,
    remap_qubits,
    rot,
    stochastize,
    stochastize_complex,
    stoquastize,
)
from stoqmap.pauli import _embed_entries, _sum_terms

from oracles import mapped_terms

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
Z = np.diag([1.0, -1.0])
PAULIS = {"X": X, "Y": Y, "Z": Z}


def kron_oracle(n, factors, sign=1):
    out = np.array([[float(sign)]])
    for q in range(n):
        out = np.kron(out, PAULIS.get(factors.get(q), I2))
    return out


@pytest.mark.parametrize("call, message", [
    (lambda: LocalHamiltonian(0, [], [], []), r"^need at least one qubit, got n=0$"),
    (lambda: LocalHamiltonian(1.5, [], [], []), r"^need at least one qubit, got n=1.5$"),
    (lambda: random_instance(0), r"^need at least one qubit$"),
])
def test_registers_of_no_qubit_are_refused_with_their_messages(call, message):
    with pytest.raises(ContractError, match=message):
        call()


def test_single_z():
    H = LocalHamiltonian.from_signed(1, [(1.0, {0: "Z"})])
    assert np.allclose(build_matrix(H).toarray(), np.diag([1.0, -1.0]))


def test_xx_antidiagonal():
    H = LocalHamiltonian.from_signed(2, [(1.0, {0: "X", 1: "X"})])
    M = build_matrix(H).toarray()
    assert np.allclose(M, np.fliplr(np.eye(4)))


@pytest.mark.parametrize("seed", range(5))
def test_random_instance_matches_kron_oracle(seed):
    H = random_instance(3, locality=2, seed=seed, include_y=True)
    want = np.zeros((8, 8), dtype=complex)
    for coeff, factors in H.signed_items():
        want += coeff * kron_oracle(3, dict(factors))
    assert np.max(np.abs(build_matrix(H).toarray() - want)) < 1e-12


@pytest.mark.parametrize("ops", [{0: "X"}, {0: "Y"}, {1: "Z"}, {0: "X", 2: "Y"}, {0: "Z", 1: "Z", 2: "X"}])
def test_string_squares_to_identity(ops):
    M = build_matrix(LocalHamiltonian.from_signed(3, [(1.0, ops)])).toarray()
    assert np.max(np.abs(M @ M - np.eye(8))) < 1e-12
    assert np.max(np.abs(M - M.conj().T)) < 1e-12


def test_string_entries_in_unit_set():
    M = build_matrix(LocalHamiltonian.from_signed(2, [(1.0, ((0, "Y"), (1, "Z")))])).toarray()
    nz = M[np.abs(M) > 0]
    assert np.allclose(np.abs(nz), 1.0)
    for v in nz:
        assert min(abs(v - t) for t in (1, -1, 1j, -1j)) < 1e-12


def test_duplicate_qubit_rejected():
    with pytest.raises(ContractError):
        LocalHamiltonian.from_signed(1, [(1.0, ((0, "X"), (0, "Z")))])


def test_from_signed_refuses_factors_the_loader_refuses():
    with pytest.raises(ContractError, match="duplicate qubit 0"):
        LocalHamiltonian.from_signed(1, [(1.0, [(0, "X"), (0, "Z")])])
    with pytest.raises(ContractError, match="bad qubit index True"):
        LocalHamiltonian.from_signed(2, [(1.0, {True: "X"})])
    with pytest.raises(ResourceError, match="qubit 63 lies beyond the 14-qubit realization cap"):
        LocalHamiltonian.from_signed(64, [(1.0, {63: "Z"})])


def test_duplicate_strings_merge_and_cancel():
    H = LocalHamiltonian.from_signed(1, [(1.0, {0: "Z"}), (0.5, {0: "Z"})])
    assert H.num_terms == 1
    assert H.N == 1.5
    gone = LocalHamiltonian.from_signed(1, [(1.0, {0: "Z"}), (-1.0, {0: "Z"})])
    assert gone.num_terms == 0


def test_build_matrix_is_linear():
    H1 = random_instance(3, seed=1)
    H2 = random_instance(3, seed=2)
    lhs = build_matrix(H1 + H2).toarray()
    rhs = build_matrix(H1).toarray() + build_matrix(H2).toarray()
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_identity_string_allowed():
    H = LocalHamiltonian.from_signed(1, [(0.5, {}), (-0.5, {0: "Z"})])
    assert np.allclose(build_matrix(H).toarray(), np.diag([0.0, 1.0]))


def test_embed_places_local_operator():
    local = sp.csr_matrix(X)
    M = embed(local, (1,), 3).toarray()
    assert np.allclose(M, np.kron(np.kron(I2, X), I2))
    two = embed(sp.csr_matrix(np.kron(X, Z)), (2, 0), 3).toarray()
    assert np.allclose(two, np.kron(np.kron(Z, I2), X))


def test_embed_rejects_bad_qubits():
    local = sp.csr_matrix(X)
    with pytest.raises(ContractError):
        embed(local, (3,), 3)
    with pytest.raises(ContractError):
        embed(sp.csr_matrix(np.kron(X, X)), (1, 1), 3)


def embed_entries_oracle(local, qubits, n):
    """(rows, cols, vals) of one local matrix placed in n qubits, entry by entry: nonzero by nonzero in
    row-major order, then the other qubits counted up in register order (qubit 0 most significant)."""
    k, rest = len(qubits), [q for q in range(n) if q not in qubits]
    rows, cols, vals = [], [], []
    for i, j in zip(*np.nonzero(local)):
        for r in range(1 << len(rest)):
            bits = {q: r >> (len(rest) - 1 - t) & 1 for t, q in enumerate(rest)}
            for out, local_index in ((rows, i), (cols, j)):
                bits.update({q: local_index >> (k - 1 - t) & 1 for t, q in enumerate(qubits)})
                out.append(sum(bits[q] << (n - 1 - q) for q in range(n)))
            vals.append(local[i, j])
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(vals, dtype=local.dtype)


def test_embed_entries_match_the_entrywise_oracle_in_order():
    """_sum_terms adds duplicate positions in input order, so the entries' order is pinned, not only their set."""
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        qubits = tuple(rng.permutation(n)[:int(rng.integers(1, min(n, 3) + 1))].tolist())
        dim = 1 << len(qubits)
        local = rng.standard_normal((dim, dim)) * (rng.random((dim, dim)) < 0.6)
        if rng.random() < 0.5:
            local = local + 1j * rng.standard_normal((dim, dim))
        want = embed_entries_oracle(local, qubits, n)
        for given in (local, sp.csr_matrix(local)):
            for got, expected in zip(_embed_entries(given, qubits, n), want):
                assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_embed_refuses_an_oversized_register_before_allocating():
    for n in (15, 45):  # 2^44 entries per nonzero would be 128 TiB of indices
        with pytest.raises(ResourceError, match=f"{n} qubits exceed the 14-qubit realization cap"):
            embed(np.eye(2), [0], n)


def test_decompose_round_trip():
    H = random_instance(3, seed=5, include_y=True)
    M = build_matrix(H)
    back = pauli_decompose(M.toarray())
    assert np.max(np.abs(build_matrix(back).toarray() - M.toarray())) < 1e-10


def test_decompose_rejects_non_hermitian():
    with pytest.raises(ContractError):
        pauli_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_remap_qubits():
    H = LocalHamiltonian.from_signed(2, [(1.0, {0: "X", 1: "Z"})])
    R = remap_qubits(H, [2, 0], 3)
    assert np.allclose(build_matrix(R).toarray(), np.kron(np.kron(Z, I2), X))


def test_random_instance_deterministic():
    a = random_instance(2, seed=7)
    b = random_instance(2, seed=7)
    assert a.signed_items() == b.signed_items()


def test_random_instance_locality_bound():
    H = random_instance(3, locality=2, seed=0)
    assert all(len(factors) <= 2 for _, factors in H.signed_items())


def test_resource_cap_on_build():
    H = random_instance(15, locality=1)  # one qubit above MAX_QUBITS
    with pytest.raises(ResourceError, match="15 qubits exceed the 14-qubit realization cap"):
        build_matrix(H)


# ------------------------------------------------- term-sum kernel callers

def _antisym_parts(d, c):
    """(sign / c!, permutation matrix) per permutation, built with numpy alone."""
    dim = d**c
    grid = np.eye(dim).reshape((d,) * c + (dim,))
    parts = []
    for perm in itertools.permutations(range(c)):
        sign = round(np.linalg.det(np.eye(c)[list(perm)]))
        parts.append((sign / math.factorial(c), grid.transpose(list(perm) + [c]).reshape(dim, dim)))
    return parts


def _kernel_case(name):
    """(kernel result, [(weight, part)]) for one caller of the term-sum kernel."""
    H = random_instance(3, seed=11)
    Hy = random_instance(2, seed=11, include_y=True)
    mapped = {
        "stoquastic": lambda: stoquastize(H),
        "stochastic": lambda: stochastize(H),
        "stochastic-penalty": lambda: add_ancilla_penalty(stochastize(H), 0.25),
        "stochastic-z4": lambda: stochastize_complex(Hy),
        "stochastic-z4-penalty": lambda: add_penalty_complex(stochastize_complex(Hy), 0.2),
    }
    if name in mapped:
        m = mapped[name]()
        assert m.kind == name
        return m.realize(), mapped_terms(m)
    if name == "ff":
        ff = build_ff(QuantumCircuit(2, (rot(0, 0.3), cnot(0, 1), rot(1, -0.7))), 0.3)
        return ff.realize(), [(1.0, term.realize(ff.total_qubits)) for term in ff.terms]
    if name == "sat":
        projectors = [LocalHamiltonian.from_signed(2, [(0.5, {}), (0.5 * s, {q: "Z"})])
                      for s, q in ((1, 0), (-1, 1), (1, 1))]
        inst = SatInstance.from_paulis(projectors, epsilon=0.1)
        return inst.total(), [(1.0, op) for op in inst.operators]
    return antisym_projector(3, 3), _antisym_parts(3, 3)


@pytest.mark.parametrize(
    "name",
    ["stoquastic", "stochastic", "stochastic-penalty", "stochastic-z4", "stochastic-z4-penalty",
     "ff", "sat", "antisym"],
)
def test_kernel_callers_match_dense_sum_of_parts(name):
    got, parts = _kernel_case(name)
    want = sum(w * (G.toarray() if sp.issparse(G) else G) for w, G in parts)
    assert sp.isspmatrix_csr(got)
    assert np.max(np.abs(got.toarray() - want)) <= 1e-12


# ------------------------------------------------- term sums against scipy's COO constructor

KERNELS = ("coo_tocsr", "csr_has_canonical_format", "csr_has_sorted_indices", "csr_sort_indices",
           "csr_sum_duplicates", "csr_eliminate_zeros")


def _logged(log, name, kernel):
    def call(*args):
        log.append(name)
        return kernel(*args)
    return call


@contextlib.contextmanager
def kernel_log(*owners):
    """The names of the compiled kernels called through the owners' bindings, in call order."""
    log = []
    with contextlib.ExitStack() as stack:
        for owner in owners:
            for name in KERNELS:
                if hasattr(owner, name):
                    stack.enter_context(mock.patch.object(owner, name, _logged(log, name, getattr(owner, name))))
        yield log


def scipy_sum(dim, pieces):
    """The oracle: the concatenated triplets through sp.csr_matrix's COO constructor, then eliminate_zeros()."""
    triplets = [np.broadcast_arrays(r, c, w * v) for w, r, c, v in pieces]
    rows, cols, vals = ((np.concatenate([t[i].ravel() for t in triplets]) for i in range(3)) if triplets
                        else (np.zeros(0, int), np.zeros(0, int), np.zeros(0)))
    A = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    A.eliminate_zeros()
    return A


# exact small values (zeros of both signs among them) and drawn floats, whose sums depend on their order
NUMBER = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(-1e3, 1e3, allow_subnormal=False))
PIECE_KINDS = ("scattered", "long row", "sorted", "canonical", "broadcast", "empty")


@st.composite
def term_pieces(draw):
    """(dim, pieces) as _sum_terms takes them, covering each branch of scipy's COO -> CSR steps:
    rows of more than 16 entries with repeated columns (std::sort's introsort), rows already sorted
    but holding duplicates (no sort, then a sum) and canonical input (neither), exact cancellations
    (a piece followed by its negation) and explicit zeros, zero-length pieces, an empty piece list,
    dim 1, and broadcast weights alpha[:, None] over 2-D rows and 1-D cols."""
    dim = draw(st.sampled_from([1, 2, 3, 7, 16, 40]))
    complex_values = draw(st.booleans())
    index = st.integers(0, dim - 1)

    def values(shape):
        count = int(np.prod(shape))
        v = np.array(draw(st.lists(NUMBER, min_size=count, max_size=count)), dtype=float).reshape(shape)
        if complex_values:
            v = v + 1j * np.array(draw(st.lists(NUMBER, min_size=count, max_size=count))).reshape(shape)
        return v

    pieces = []
    for kind in draw(st.lists(st.sampled_from(PIECE_KINDS), max_size=3)):
        weight = draw(st.sampled_from([1.0, -1.0, 0.5, 3.0]))
        if kind == "broadcast":
            terms, width = draw(st.integers(1, 3)), draw(st.integers(1, 2 * dim))
            rows = np.array(draw(st.lists(index, min_size=terms * width, max_size=terms * width))).reshape(terms, width)
            cols = np.array(draw(st.lists(index, min_size=width, max_size=width)), dtype=np.int32)
            weight = np.abs(values((terms,)).real)[:, None]
            piece = (weight, rows, cols, draw(st.sampled_from([1.0, None])) or values((terms, width)))
        elif kind == "empty":
            piece = (weight, np.zeros(0, int), np.zeros(0, int), values((0,)))
        else:
            count = draw(st.integers(17, 48) if kind in ("long row", "sorted") else st.integers(0, 24))
            spread = draw(st.integers(0, dim - 1))  # columns (or rows and columns) from a few values: repeats
            narrow = st.integers(0, spread)
            if kind == "canonical":
                cells = draw(st.sets(st.tuples(index, index), max_size=count))
                rows, cols = np.array(sorted(cells), dtype=int).reshape(-1, 2).T
            else:
                rows = np.array(draw(st.lists(st.just(draw(index)) if kind == "long row" else
                                              narrow if kind == "sorted" else index,
                                              min_size=count, max_size=count)), dtype=int)
                cols = np.array(draw(st.lists(narrow, min_size=count, max_size=count)), dtype=int)
                if kind == "sorted":
                    rows, cols = rows[np.lexsort((cols, rows))], cols[np.lexsort((cols, rows))]
            piece = (weight, rows, cols, values(rows.shape))
        pieces.append(piece)
        if draw(st.booleans()) and kind != "sorted":
            pieces.append((-piece[0], *piece[1:]))  # cancels exactly, entry by entry
    return dim, pieces


@seed(20090534)
@settings(max_examples=300, deadline=None, database=None)
@given(term_pieces())
def test_term_sums_match_scipys_coo_constructor_bit_for_bit(case):
    """_sum_terms calls scipy's kernels in scipy's order, so its sums keep every bit and dtype."""
    dim, pieces = case
    with kernel_log(_compressed, _coo) as theirs:
        want = scipy_sum(dim, pieces)
    with kernel_log(_sparsetools) as ours:
        got = _sum_terms(dim, pieces)
    assert ours == theirs
    assert sp.isspmatrix_csr(got) and got.shape == want.shape == (dim, dim)
    for name in ("indptr", "indices", "data"):
        mine, oracle = getattr(got, name), getattr(want, name)
        assert mine.dtype == oracle.dtype and mine.tobytes() == oracle.tobytes(), name


@pytest.mark.parametrize("bad", [-1, 4, 1 << 32])
@pytest.mark.parametrize("axis", ["rows", "cols"])
def test_term_sums_refuse_an_index_outside_the_matrix_before_any_kernel_runs(axis, bad):
    """The kernels check no bounds (and 2^32 would wrap to 0 as an int32), so _sum_terms checks first."""
    good = np.array([0, 1, 3])
    entries = {"rows": good, "cols": good[::-1], axis: np.array([0, bad, 3])}
    with kernel_log(_sparsetools) as calls, pytest.raises(ContractError, match="outside the 4 x 4 matrix"):
        _sum_terms(4, [(1.0, np.arange(2), np.arange(2), np.ones(2)),
                       (2.0, entries["rows"], entries["cols"], np.ones(3))])
    assert calls == []
