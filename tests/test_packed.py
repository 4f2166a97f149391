"""Generated-input oracles for the packed Pauli form.

build_matrix, the three maps and pauli_decompose each assemble every
term at once from the binary symplectic form. Each is compared here with
a slow, independent reference built one term or one Pauli word at a
time with np.kron, on Hamiltonians drawn with Y factors, locality up to
three and strings that merge to zero. The same draws check the penalty's
spectral split and that every stochastize_ff term is psd and doubly
stochastic.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from stoqmap import (
    LocalHamiltonian,
    ResourceError,
    add_ancilla_penalty,
    build_matrix,
    classify,
    pauli_decompose,
    random_instance,
    stochastize,
    stochastize_complex,
    stochastize_ff,
    stoquastize,
)

from oracles import mapped_terms, sector_isometry

PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
TOL = 1e-12


def kron_word(word):
    out = np.array([[1.0 + 0j]])
    for label in word:
        out = np.kron(out, PAULIS[label])
    return out


def kron_matrix(H):
    """Sum over terms of alpha * sign * (Kronecker product of factors), one term at a time."""
    out = np.zeros((1 << H.n, 1 << H.n), dtype=complex)
    for coeff, factors in H.signed_items():
        word = [dict(factors).get(q, "I") for q in range(H.n)]
        out += coeff * kron_word(word)
    return out


def kron_decompose(dense, tol=TOL):
    """The 8^k loop: one Kronecker product and one vdot per Pauli word, in itertools order."""
    k = dense.shape[0].bit_length() - 1
    items = []
    for word in itertools.product("IXYZ", repeat=k):
        coeff = np.vdot(kron_word(word), dense) / dense.shape[0]
        if abs(coeff.real) > tol:
            items.append((coeff.real, {q: label for q, label in enumerate(word) if label != "I"}))
    return items


def signed(H):
    return {factors: coeff for coeff, factors in H.signed_items()}


@st.composite
def hamiltonians(draw, real=False, n=None):
    """Up to 6 strings of weight <= 3 on n <= 4 qubits; some repeated with opposite sign."""
    n = draw(st.integers(1, 4)) if n is None else n
    ops = "XZ" if real else "XYZ"
    factors = st.dictionaries(st.integers(0, n - 1), st.sampled_from(ops), max_size=min(n, 3))
    coeff = st.floats(0.05, 2.0).flatmap(lambda a: st.sampled_from([a, -a]))
    items = draw(st.lists(st.tuples(coeff, factors), min_size=1, max_size=6))
    cancel = draw(st.lists(st.sampled_from(items), max_size=2))
    items += [(-c, f) for c, f in cancel]
    if real:  # even Y count per string: add YY pairs on two qubits
        if n >= 2 and draw(st.booleans()):
            items.append((draw(coeff), {0: "Y", n - 1: "Y"}))
    return LocalHamiltonian.from_signed(n, items)


@st.composite
def signed_lists(draw):
    """(n, items): up to 12 (coeff, factors) pairs over a few strings with Y, repeated and exactly
    cancelled, each given as a {qubit: label} dict or as (qubit, label) pairs in a drawn order."""
    n = draw(st.integers(1, 4))
    strings = st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYZ"), max_size=min(n, 3))
    pool = draw(st.lists(strings, min_size=1, max_size=4))
    coeff = st.one_of(st.sampled_from([0.25, -0.5, 1.0, 0.0]), st.floats(-2.0, 2.0))
    items = draw(st.lists(st.tuples(coeff, st.sampled_from(pool)), min_size=1, max_size=9))
    items += [(-c, f) for c, f in draw(st.lists(st.sampled_from(items), max_size=3))]
    return n, [(c, draw(st.permutations(list(f.items()))) if draw(st.booleans()) else f)
               for c, f in draw(st.permutations(items))]


@seed(20090528)
@settings(max_examples=150, deadline=None, database=None)
@given(signed_lists())
def test_signed_items_match_a_dict_merge_over_sorted_factors(case):
    n, items = case
    H = LocalHamiltonian.from_signed(n, items)
    merged = {}
    for c, factors in items:
        if c != 0.0:
            key = tuple(sorted(dict(factors).items()))
            merged[key] = merged.get(key, 0.0) + c
    want = [(c, f) for f, c in merged.items() if c != 0.0]
    assert H.signed_items() == want
    oracle = sum((c * kron_word([dict(f).get(q, "I") for q in range(n)]) for c, f in want),
                 np.zeros((1 << n, 1 << n), dtype=complex))
    assert np.max(np.abs(build_matrix(H).toarray() - oracle)) <= TOL


def sector_block(mapped, sector, realized):
    V = sector_isometry(mapped, sector)
    return (V.getH() @ realized @ V).toarray()


@seed(20090528)
@settings(max_examples=80, deadline=None, database=None)
@given(hamiltonians())
def test_packed_build_matrix_matches_kron_oracle(H):
    M = build_matrix(H)
    assert sp.isspmatrix_csr(M)
    assert np.max(np.abs(M.toarray() - kron_matrix(H)), initial=0.0) <= TOL
    assert M.dtype == (float if H.has_real_entries() else complex)


@seed(20090528)
@settings(max_examples=60, deadline=None, database=None)
@given(hamiltonians(real=True))
def test_real_maps_match_their_terms_and_keep_the_minus_sector(H):
    want = build_matrix(H).toarray()
    stoq = stoquastize(H)
    realized = stoq.realize()
    parts = sum((w * G.toarray() for w, G in mapped_terms(stoq)), np.zeros((stoq.dim, stoq.dim)))
    assert np.max(np.abs(realized.toarray() - parts)) <= TOL
    assert np.max(np.abs(sector_block(stoq, "-", realized) - want), initial=0.0) <= TOL
    assert classify(realized).stoquastic
    if not H.num_terms:
        return
    stoch = stochastize(H)
    realized = stoch.realize()
    dense = realized.toarray()
    parts = sum(w * G.toarray() for w, G in mapped_terms(stoch))
    assert np.max(np.abs(dense - parts)) <= TOL
    assert np.max(np.abs(sector_block(stoch, "-", realized) - want / H.N)) <= TOL
    assert dense.min() >= 0.0
    assert np.max(np.abs(dense.sum(axis=0) - 1.0)) <= TOL
    assert np.max(np.abs(dense.sum(axis=1) - 1.0)) <= TOL


@seed(20090528)
@settings(max_examples=60, deadline=None, database=None)
@given(hamiltonians())
def test_z4_map_matches_its_terms_and_both_conjugate_sectors(H):
    if not H.num_terms:
        return
    mapped = stochastize_complex(H)
    realized = mapped.realize()
    dense = realized.toarray()
    parts = sum(w * G.toarray() for w, G in mapped_terms(mapped))
    assert np.max(np.abs(dense - parts)) <= TOL
    want = kron_matrix(H) / H.N
    assert np.max(np.abs(sector_block(mapped, "v1", realized) - want)) <= TOL
    assert np.max(np.abs(sector_block(mapped, "v3", realized) - want.conj())) <= TOL
    # v3's operator is v1's exact conjugate: same pattern, equal entries (a zero's sign may differ)
    v1, v3 = mapped.sector_operator("v1", realized), mapped.sector_operator("v3", realized)
    assert np.array_equal(v3.indptr, v1.indptr) and np.array_equal(v3.indices, v1.indices)
    assert np.array_equal(v3.data, v1.data.conj())
    assert dense.min() >= 0.0 and np.max(np.abs(dense.sum(axis=0) - 1.0)) <= TOL


@seed(20090528)
@settings(max_examples=60, deadline=None, database=None)
@given(hamiltonians())
def test_fast_decomposition_matches_kron_loop_and_inverts_build_matrix(H):
    dense = build_matrix(H).toarray()
    got = pauli_decompose(dense)
    want = LocalHamiltonian.from_signed(H.n, kron_decompose(dense))
    assert [(f, c > 0) for c, f in got.signed_items()] == [(f, c > 0) for c, f in want.signed_items()]
    assert all(abs(a - b) <= TOL for (a, _), (b, _) in zip(got.signed_items(), want.signed_items()))
    # coefficients at or below tol are dropped by contract, so a near-cancelled merge may vanish
    back, orig = signed(got), {f: c for f, c in signed(H).items() if abs(c) > TOL}
    assert back.keys() == orig.keys()
    assert all(abs(back[f] - orig[f]) <= TOL for f in orig)


@seed(20090528)
@settings(max_examples=60, deadline=None, database=None)
@given(hamiltonians(real=True), st.floats(0.01, 0.33))
def test_penalty_split_below_one_third(H, p):
    """Lower 2^n eigenvalues of p * stochastize(H) + (1-p)(1+X)/2 are (p/N) spec(H), apart from the rest."""
    assume(H.num_terms)
    vals = np.linalg.eigvalsh(add_ancilla_penalty(stochastize(H), p).realize().toarray())
    low, high = vals[: 1 << H.n], vals[1 << H.n:]
    want = np.linalg.eigvalsh(kron_matrix(H)) * p / H.N
    assert np.max(np.abs(low - want)) <= 1e-12
    assert low.max() < high.min()


@st.composite
def psd_term_lists(draw):
    """1 to 3 psd terms on one register: drawn Hamiltonians shifted up to (or past) their lowest eigenvalue."""
    n = draw(st.integers(1, 3))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        H = draw(hamiltonians(n=n, real=draw(st.booleans())))
        shift = max(0.0, -np.linalg.eigvalsh(kron_matrix(H))[0]) + draw(st.sampled_from([0.0, 0.25]))
        items = [(c, dict(f)) for f, c in signed(H).items()] + [(shift, {})]
        psd = LocalHamiltonian.from_signed(n, [(c, f) for c, f in items if c != 0.0])
        assume(psd.num_terms)
        terms.append(psd)
    return terms


@seed(20090528)
@settings(max_examples=60, deadline=None, database=None)
@given(psd_term_lists(), st.floats(0.01, 0.33))
def test_stochastize_ff_terms_are_psd_and_doubly_stochastic(terms, p):
    for out in stochastize_ff(terms, p):
        dense = out.toarray()
        assert np.max(np.abs(dense - dense.conj().T)) <= TOL
        assert np.linalg.eigvalsh(dense)[0] >= -1e-10
        assert dense.real.min() >= 0.0 and not np.abs(dense.imag).any()
        assert np.max(np.abs(dense.sum(axis=0) - 1.0)) <= TOL
        assert np.max(np.abs(dense.sum(axis=1) - 1.0)) <= TOL


@pytest.mark.parametrize("n, make", [(14, stoquastize), (14, stochastize),
                                     (13, lambda H: stochastize_complex(H))])
def test_maps_check_the_cap_before_allocating(n, make):
    H = random_instance(n, locality=1, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="realization cap"):
            make(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # less than one int64 per basis state of the work register: no terms x 2^n array was built
    assert peak < (1 << n) * 8
