"""Oracles for solving a mapped Hamiltonian one ancilla sector at a time,
and for the projector flag's diagonal pre-test.

`map` solves the sector blocks that MappedHamiltonian.sector_blocks reads
off the realized matrix, once the commutation residual with the ancilla
cycle proves the sectors invariant. Here the union of the blocks' spectra
is compared with the whole register's dense spectrum, every block and
sector_operator with V^dagger A V, and a realized matrix with an entry
that couples sectors must fall back to the whole-register solve. The
projector flag skips A @ A when a diagonal entry of A^2 - A is certainly
above tol; it must agree with the plain A @ A test on every input.
"""

import importlib
import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from stoqmap import (
    ContractError,
    LocalHamiltonian,
    add_ancilla_penalty,
    add_penalty_complex,
    classify,
    eig_dense,
    kernel_projector_complement,
    run_command,
    save_hamiltonian,
    sector_spectrum,
    stochastize,
    stochastize_complex,
    stoquastize,
)
from stoqmap.mapping import MappedHamiltonian
from stoqmap.pauli import _csr_entries
from stoqmap.spectra import _flags_and_spectrum
from oracles import sector_isometry

classify_module = importlib.import_module("stoqmap.classify")
spectra_module = importlib.import_module("stoqmap.spectra")

TOL = 1e-10
MAPS = {
    "stoquastic": (True, stoquastize),
    "stochastic": (True, stochastize),
    "stochastic-penalty": (True, lambda H: add_ancilla_penalty(stochastize(H), 0.25)),
    "complex": (False, stochastize_complex),
    "complex-penalty": (False, lambda H: add_penalty_complex(stochastize_complex(H), 0.2)),
}


@st.composite
def hamiltonians(draw, with_y):
    """Up to 6 strings of weight <= 3 on n <= 4 qubits; Y factors only when with_y."""
    n = draw(st.integers(1, 4))
    factors = st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYZ" if with_y else "XZ"),
                              max_size=min(n, 3))
    coeff = st.floats(0.05, 2.0).flatmap(lambda a: st.sampled_from([a, -a]))
    items = draw(st.lists(st.tuples(coeff, factors), min_size=1, max_size=6))
    H = LocalHamiltonian.from_signed(n, items)
    return H if H.num_terms else LocalHamiltonian.from_signed(n, [(1.0, {0: "Z"})])


def map_cases():
    real = hamiltonians(with_y=False)
    return st.sampled_from(sorted(MAPS)).flatmap(
        lambda name: st.tuples(st.just(name), real if MAPS[name][0] else st.one_of(real, hamiltonians(True))))


def isometry_block(mapped, sector, realized):
    V = sector_isometry(mapped, sector)
    return (V.getH() @ realized @ V).toarray()


def assert_same_spectrum(got, want):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@seed(20090529)
@settings(max_examples=80, deadline=None, database=None)
@given(map_cases())
def test_blocked_spectrum_matches_the_whole_register(case):
    name, H = case
    mapped = MAPS[name][1](H)
    realized = mapped.realize()
    blocks, residual = mapped.sector_blocks(realized)
    assert blocks.shape == (1 << mapped.ancilla_count, 1 << H.n, 1 << H.n)
    assert residual <= 1e-12
    flags, spec, used = _flags_and_spectrum(realized, TOL, 1 << 14, compute_vectors=False, sectors=mapped)
    assert used is not None and np.array_equal(used, blocks)
    want = eig_dense(realized, compute_vectors=False).eigenvalues
    assert_same_spectrum(spec.eigenvalues, want)
    assert flags == classify(realized, tol=TOL)


@seed(20090530)
@settings(max_examples=60, deadline=None, database=None)
@given(map_cases())
def test_blocks_and_sector_operator_equal_the_isometry_product(case):
    name, H = case
    mapped = MAPS[name][1](H)
    realized = mapped.realize()
    blocks, _ = mapped.sector_blocks(realized)
    for s, label in enumerate(mapped.sector_labels):
        want = isometry_block(mapped, label, realized)
        assert np.max(np.abs(blocks[s] - want)) <= 1e-12
        assert np.max(np.abs(mapped.sector_operator(label).toarray() - want)) <= 1e-12
        assert_same_spectrum(np.sort(sector_spectrum(mapped, label).real), np.linalg.eigvalsh(want))


def test_sector_operator_rejects_unknown_sector():
    with pytest.raises(ContractError, match="unknown sector"):
        stoquastize(LocalHamiltonian.from_signed(1, [(1.0, {0: "Z"})])).sector_operator("v1")


def off_sector(realized, m, eps=0.3):
    """realized plus a Hermitian pair coupling (0, a=0) with (1, a=0): it breaks the ancilla symmetry."""
    bump = sp.csr_matrix(([eps, eps], ([0, m], [m, 0])), shape=realized.shape)
    return sp.csr_matrix(realized + bump)


@seed(20090531)
@settings(max_examples=40, deadline=None, database=None)
@given(map_cases())
def test_off_sector_entry_takes_the_whole_register_solve(case):
    name, H = case
    mapped = MAPS[name][1](H)
    perturbed = off_sector(mapped.realize(), 1 << mapped.ancilla_count)
    _, residual = mapped.sector_blocks(perturbed)
    assert residual > TOL
    flags, spec, used = _flags_and_spectrum(perturbed, TOL, 1 << 14, compute_vectors=False, sectors=mapped)
    assert used is None
    assert_same_spectrum(np.asarray(spec.eigenvalues), eig_dense(perturbed, compute_vectors=False).eigenvalues)
    assert flags == classify(perturbed, tol=TOL)


def test_map_command_falls_back_on_an_off_sector_entry(tmp_path, monkeypatch):
    H = LocalHamiltonian.from_signed(3, [(0.7, {0: "X", 1: "Z"}), (-0.4, {2: "X"}), (0.3, {1: "Z"})])
    path, out = tmp_path / "h.json", tmp_path / "r.json"
    save_hamiltonian(H, str(path))
    realize = MappedHamiltonian.realize
    monkeypatch.setattr(MappedHamiltonian, "realize", lambda self: off_sector(realize(self), 2))
    shapes, solve = [], spectra_module._eigh

    def spy(M, *args, **kwargs):
        shapes.append(M.shape)
        return solve(M, *args, **kwargs)

    monkeypatch.setattr(spectra_module, "_eigh", spy)
    assert run_command(["map", "stoquastic", str(path), "--out", str(out)]) == 1
    assert shapes == [(16, 16)]  # the whole register, not the stack of two 8 x 8 sector blocks
    report = json.loads(out.read_text(encoding="utf-8"))
    want = np.linalg.eigvalsh(off_sector(realize(stoquastize(H)), 2).toarray())
    assert_same_spectrum(np.array(report["results"]["eigenvalues"]), want)
    # the coupling also leaves the - sector, so its check fails with the perturbation as residual
    check = {c["name"]: c for c in report["checks"]}["sector_preserves_input"]
    assert not check["passed"] and check["value"] == pytest.approx(0.15)


# ------------------------------------------------------------------ projector flag

def product_test(M, tol=TOL):
    A = sp.csr_matrix(M)
    return classify_module._max_abs(A @ A - A) <= tol


@st.composite
def near_projectors(draw):
    """Q Q^dagger for drawn orthonormal columns Q, plus a drawn Hermitian offset of drawn size
    and a non-Hermitian one small enough for classify to call the result Hermitian."""
    d = draw(st.integers(1, 6))
    k = draw(st.integers(0, d))
    entries = st.lists(st.floats(-1.0, 1.0), min_size=2 * d * d, max_size=2 * d * d)
    raw, noise = (np.reshape(x[: d * d], (d, d)) + 1j * np.reshape(x[d * d:], (d, d))
                  for x in (draw(entries), draw(entries)))
    Q = np.linalg.qr(raw + 2.0 * np.eye(d))[0][:, :k]
    size = draw(st.sampled_from([0.0, 0.3 * TOL, TOL, 3.0 * TOL, 1e-6, 1.0]))
    skew = draw(st.sampled_from([0.0, 0.2 * TOL]))
    return Q @ Q.conj().T + size * (noise + noise.conj().T) / 2 + skew * (noise - noise.conj().T) / 2


@seed(20090532)
@settings(max_examples=120, deadline=None, database=None)
@given(near_projectors())
def test_projector_flag_matches_the_product_on_drawn_matrices(M):
    assert classify(M, tol=TOL).projector == product_test(M)


@pytest.mark.parametrize("seed", range(6))
def test_projector_flag_on_kernel_complements_and_near_projectors(seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)) * (seed % 2)
    P = kernel_projector_complement(sp.csr_matrix(B @ B.conj().T))
    assert classify(P, tol=TOL).projector and product_test(P)
    # diagonal offsets around tol, on both sides of the bound the product would apply
    for t in (0.5, 0.999999, 1.0, 1.000001, 2.0, 1e3):
        shifted = P + sp.diags(np.r_[t * TOL, np.zeros(5)])
        assert classify(shifted, tol=TOL).projector == product_test(shifted)


@pytest.mark.parametrize("perm, diagonal_passes", [((0, 1, 2, 3), True), ((1, 0, 2, 3), False),
                                                    ((1, 2, 3, 0), True), ((0, 1, 3, 2), False)])
def test_projector_flag_on_permutations(perm, diagonal_passes):
    # a 2-cycle puts 1 on the diagonal of P^2 where P has 0; a 4-cycle is too far from Hermitian to tell
    P = sp.csr_matrix((np.ones(4), (np.array(perm), np.arange(4))), shape=(4, 4))
    skew = classify_module._max_abs(P - P.getH())
    assert classify_module._diagonal_may_square_to_itself(P, _csr_entries(P)[0], TOL, skew) == diagonal_passes
    assert classify(P, tol=TOL).projector == product_test(P) == (perm == (0, 1, 2, 3))


@pytest.mark.parametrize("signs", [(1, 1, 1), (1, 1, -1), (-1, 1, 1), (-1, -1, -1)])
def test_projector_flag_when_only_the_off_diagonal_fails(signs):
    # diag(A^2) = diag(A) = 1/2, yet (A^2)_01 = A_01 + A_02 A_21 != A_01
    x, y, z = np.array(signs) / np.sqrt(8.0)
    M = sp.csr_matrix(np.array([[0.5, x, y], [x, 0.5, z], [y, z, 0.5]]))
    assert classify_module._diagonal_may_square_to_itself(M, _csr_entries(M)[0], TOL, 0.0)
    assert not product_test(M)
    assert not classify(M, tol=TOL).projector

