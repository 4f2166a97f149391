import numpy as np
import pytest

from stoqmap import (
    AcceptanceReport,
    ContractError,
    ExcitedEnergyProblem,
    LocalHamiltonian,
    ResourceError,
    SatInstance,
    acceptance_operator,
    antisym_projector,
    build_Hc,
    build_matrix,
    decide_sat,
    direct_sum,
    lemma1_value,
    random_instance,
    reduce_qsat,
    sector_vector_z4,
    slater_witness,
)


def ham(n, items):
    return LocalHamiltonian.from_signed(n, items)


def proj_one(qubit=0):
    # |1><1| on the named qubit of a 1-qubit register
    return ham(1, [(0.5, {}), (-0.5, {qubit: "Z"})])


def proj_zero(qubit=0):
    return ham(1, [(0.5, {}), (0.5, {qubit: "Z"})])


def orthonormal_vectors(d, c, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, c)) + 1j * rng.normal(size=(d, c))
    Q, _ = np.linalg.qr(A)
    return [Q[:, i] for i in range(c)]


# ----------------------------------------------------------------- build_Hc

def test_hc_single_negative_state():
    H = build_Hc(1, 1)
    diag = np.real(np.diag(build_matrix(H).toarray()))
    assert np.allclose(diag, [0.5, -0.5])


def test_hc_two_negative_states():
    H = build_Hc(2, 3)
    vals = np.sort(np.linalg.eigvalsh(build_matrix(H).toarray()))
    neg = vals[vals < 0]
    nonneg = vals[vals >= 0]
    assert np.allclose(neg, [-1.5, -0.5])
    assert abs(nonneg[0] - 0.5) < 1e-14


def test_hc_negative_count_exact_up_to_eight():
    for c in range(1, 9):
        d = 0 if c == 1 else int(np.ceil(np.log2(c)))
        n = d + 1
        vals = np.linalg.eigvalsh(build_matrix(build_Hc(c, n)).toarray())
        assert int(np.sum(vals < 0)) == c
        assert abs(np.min(vals[vals >= 0]) - 0.5) < 1e-12


def test_hc_rejects_small_register():
    with pytest.raises(ContractError, match="qubits"):
        build_Hc(3, 1)


# --------------------------------------------------------------- direct_sum

def test_direct_sum_z_minus_z():
    Ha = ham(1, [(1.0, {0: "Z"})])
    Hb = ham(1, [(-1.0, {0: "Z"})])
    vals = np.linalg.eigvalsh(build_matrix(direct_sum(Ha, Hb)).toarray())
    assert np.allclose(vals, [-1.0, -1.0, 1.0, 1.0])


def test_direct_sum_doubles_identical_input():
    H = random_instance(2, seed=3)
    both = direct_sum(H, H)
    got = np.sort(np.linalg.eigvalsh(build_matrix(both).toarray()))
    single = np.linalg.eigvalsh(build_matrix(H).toarray())
    want = np.sort(np.concatenate([single, single]))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_direct_sum_union_oracle_and_locality():
    Ha = build_Hc(2, 3)
    Hb = random_instance(3, seed=11)
    out = direct_sum(Ha, Hb)
    got = np.sort(np.linalg.eigvalsh(build_matrix(out).toarray()))
    want = np.sort(
        np.concatenate(
            [
                np.linalg.eigvalsh(build_matrix(Ha).toarray()),
                np.linalg.eigvalsh(build_matrix(Hb).toarray()),
            ]
        )
    )
    assert np.max(np.abs(got - want)) <= 1e-12
    assert out.locality == max(Ha.locality, Hb.locality) + 1
    with pytest.raises(ContractError):
        direct_sum(Ha, random_instance(2, seed=1))


# ----------------------------------------------------------- Slater witness

def test_slater_single_state_is_identity():
    v = np.array([0.6, 0.8])
    assert np.allclose(slater_witness([v]), v)


def test_slater_pair_is_singlet():
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    w = slater_witness([e0, e1])
    assert np.allclose(w, np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0))


def test_slater_antisymmetric_under_swap():
    vecs = orthonormal_vectors(4, 3, seed=5)
    w = slater_witness(vecs).reshape(4, 4, 4)
    swapped = np.transpose(w, (1, 0, 2))
    assert np.max(np.abs(swapped + w)) <= 1e-12
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-12


def test_slater_rejects_non_orthonormal():
    with pytest.raises(ContractError, match="orthonormal"):
        slater_witness([np.array([1.0, 0.0]), np.array([0.6, 0.8])])


# ----------------------------------------------------- antisymmetric space

def test_antisym_projector_ranks():
    P2 = antisym_projector(2, 2).toarray()
    assert round(np.trace(P2).real) == 1
    P6 = antisym_projector(4, 2).toarray()
    assert round(np.trace(P6).real) == 6
    assert np.linalg.norm(P6 @ P6 - P6) <= 1e-12
    with pytest.raises(ContractError, match="empty"):
        antisym_projector(2, 3)


# ---------------------------------------------------------------- Lemma 1

def test_lemma1_singlet_value_is_half():
    a1, a2 = orthonormal_vectors(4, 2, seed=9)
    phi = slater_witness([a1, a2])
    assert abs(lemma1_value(phi, a1) - 0.5) <= 1e-12
    assert abs(lemma1_value(phi, a2) - 0.5) <= 1e-12


def test_lemma1_orthogonal_alpha_scores_zero():
    e = np.eye(4)
    phi = slater_witness([e[0], e[1]])
    assert abs(lemma1_value(phi, e[2])) <= 1e-14


def test_lemma1_bound_over_seeded_trials():
    rng = np.random.default_rng(2024)
    combos = [(2, 4), (3, 6), (3, 8), (4, 6)]
    for trial in range(100):
        c, d = combos[trial % len(combos)]
        P = antisym_projector(d, c)
        raw = rng.normal(size=d**c) + 1j * rng.normal(size=d**c)
        phi = P @ raw
        norm = np.linalg.norm(phi)
        assert norm > 1e-8
        phi = phi / norm
        alpha = rng.normal(size=d) + 1j * rng.normal(size=d)
        assert lemma1_value(phi, alpha) <= 1.0 / c + 1e-12


def test_lemma1_rejects_symmetric_state():
    e = np.eye(2)
    sym = np.kron(e[0], e[0])
    with pytest.raises(ContractError, match="antisymmetric"):
        lemma1_value(sym, e[0])


# ------------------------------------------------------ acceptance operator

def test_acceptance_exactly_half_for_single_low_level():
    rep = acceptance_operator(np.diag([0.0, 1.0]), c=2, threshold=0.5)
    assert abs(rep.probability - 0.5) <= 1e-12
    assert rep.bound == 0.5
    assert rep.eigenvalues_below == 1


def test_acceptance_one_when_enough_levels():
    rep = acceptance_operator(np.diag([0.0, 1.0, 2.0, 3.0]), c=2, threshold=1.5)
    assert abs(rep.probability - 1.0) <= 1e-10
    # the Slater witness over the two lowest eigenvectors achieves it
    e = np.eye(4)
    w = slater_witness([e[0], e[1]])
    E = e[:, :2] @ e[:, :2].T
    val = np.vdot(w, np.kron(E, np.eye(4)) @ w).real
    assert val >= 1.0 - 1e-10


def test_acceptance_matches_counting_formula():
    H = random_instance(2, seed=21)
    vals = np.linalg.eigvalsh(build_matrix(H).toarray())
    for c in (1, 2, 3):
        for m_low in range(len(vals)):
            threshold = (
                vals[0] - 1.0 if m_low == 0
                else (vals[m_low - 1] + vals[m_low]) / 2.0 if m_low < len(vals)
                else vals[-1] + 1.0
            )
            rep = acceptance_operator(H, c=c, threshold=threshold)
            assert rep.eigenvalues_below == m_low
            assert abs(rep.probability - min(m_low, c) / c) <= 1e-10


def test_acceptance_soundness_and_completeness_seeded():
    for seed in range(5):
        H = random_instance(3, seed=seed, include_y=True)
        vals = np.linalg.eigvalsh(build_matrix(H).toarray())
        c = 2 + seed % 2
        below = (vals[c - 2] + vals[c - 1]) / 2.0 if c > 1 else vals[0] - 1.0
        rep_no = acceptance_operator(H, c=c, threshold=below)
        assert rep_no.eigenvalues_below < c
        assert rep_no.probability <= 1.0 - 1.0 / c + 1e-10
        above = (vals[c - 1] + vals[c]) / 2.0
        rep_yes = acceptance_operator(H, c=c, threshold=above)
        assert abs(rep_yes.probability - 1.0) <= 1e-10


def test_acceptance_rejects_non_hermitian():
    with pytest.raises(ContractError, match="Hermitian"):
        acceptance_operator(np.array([[0.0, 1.0], [0.0, 0.0]]), c=1, threshold=0.0)


def test_dense_solves_refuse_inputs_above_the_cap():
    H = build_Hc(2, 4)  # 16-dimensional
    with pytest.raises(ResourceError):
        acceptance_operator(H, c=1, threshold=0.0, dense_cap=8)
    with pytest.raises(ResourceError):
        acceptance_operator(build_Hc(1, 2), c=2, threshold=0.0, dense_cap=8)
    with pytest.raises(ResourceError):
        ExcitedEnergyProblem(H=H, c=2, a=0.0, b=1.0).lambda_c(dense_cap=8)
    with pytest.raises(ResourceError):
        decide_sat(SatInstance.from_paulis([H], epsilon=1.0), dense_cap=8)


def test_excited_energy_decision_honours_the_dense_cap():
    problem = ExcitedEnergyProblem(H=build_Hc(2, 4), c=2, a=-0.4, b=0.1)  # 16-dimensional
    with pytest.raises(ResourceError, match="dimension 16 exceeds the dense cap 8"):
        problem.decide(dense_cap=8)
    assert problem.decide(dense_cap=16) == problem.decide()


# ------------------------------------------------- excited-energy decisions

def test_excited_energy_problem_decides():
    H = build_Hc(2, 3)
    prob = ExcitedEnergyProblem(H=H, c=2, a=-0.4, b=0.1)
    assert abs(prob.lambda_c() - (-0.5)) <= 1e-12
    assert prob.decide() == "YES"
    assert ExcitedEnergyProblem(H=H, c=3, a=-0.4, b=0.1).decide() == "NO"
    assert ExcitedEnergyProblem(H=H, c=3, a=0.0, b=1.0).decide() == "AMBIGUOUS"
    assert abs(prob.epsilon - 0.5) <= 1e-15


def test_excited_energy_problem_validates():
    H = build_Hc(1, 1)
    with pytest.raises(ContractError):
        ExcitedEnergyProblem(H=H, c=0, a=0.0, b=1.0)
    with pytest.raises(ContractError):
        ExcitedEnergyProblem(H=H, c=1, a=1.0, b=1.0)
    with pytest.raises(ContractError, match="spectrum"):
        ExcitedEnergyProblem(H=H, c=5, a=0.0, b=1.0).lambda_c()


# ------------------------------------------------------------ SAT instances

def test_sat_instance_validation():
    with pytest.raises(ContractError, match="kind"):
        SatInstance(n=1, operators=(build_matrix(proj_one()),), epsilon=1.0, kind="classical")
    with pytest.raises(ContractError, match="epsilon"):
        SatInstance.from_paulis([proj_one()], epsilon=0.0)
    with pytest.raises(ContractError, match="operator"):
        SatInstance(n=1, operators=(), epsilon=1.0, kind="quantum")


def test_decide_sat_yes_and_no():
    sat = SatInstance.from_paulis([proj_one()], epsilon=1.0)
    assert decide_sat(sat).verdict == "YES"
    unsat = SatInstance.from_paulis([proj_zero(), proj_one()], epsilon=1.0)
    decision = decide_sat(unsat)
    assert decision.verdict == "NO"
    assert abs(decision.ground_energy - 1.0) <= 1e-12


def test_reduction_of_satisfiable_instance():
    sat = SatInstance.from_paulis([proj_one()], epsilon=1.0)
    red = reduce_qsat(sat)
    assert red.kind == "stochastic"
    assert red.n == sat.n + 2
    red.check()
    total = red.total().toarray()
    v = np.kron(np.array([1.0, 0.0]), sector_vector_z4(1))
    assert np.linalg.norm(total @ v) <= 1e-10
    assert decide_sat(red).verdict == "YES"


def test_reduction_of_unsatisfiable_instance():
    unsat = SatInstance.from_paulis([proj_zero(), proj_one()], epsilon=1.0)
    red = reduce_qsat(unsat)
    assert red.N_max is not None
    assert abs(red.epsilon - 1.0 / (3.0 * 2.0 * red.N_max)) <= 1e-15
    ground = np.linalg.eigvalsh(red.total().toarray())[0]
    assert ground >= red.epsilon - 1e-10
    assert decide_sat(red).verdict == "NO"


def test_reduced_operators_are_stochastic_and_psd():
    inst = SatInstance.from_paulis([proj_zero(), proj_one()], epsilon=1.0)
    from stoqmap import classify

    for op in reduce_qsat(inst).operators:
        flags = classify(op)
        assert flags.psd
        assert flags.column_stochastic


def test_reduction_rejects_non_projector():
    inst = SatInstance.from_paulis(
        [ham(1, [(1.0, {}), (0.5, {0: "Z"})])], epsilon=0.5
    )
    with pytest.raises(ContractError, match="projector"):
        reduce_qsat(inst)


def test_reduction_preserves_verdicts_on_toy_instances():
    # two commuting projectors with a shared kernel: satisfiable
    p11 = LocalHamiltonian.from_signed(
        2, [(0.25, {}), (-0.25, {0: "Z"}), (-0.25, {1: "Z"}), (0.25, {0: "Z", 1: "Z"})]
    )
    p10 = LocalHamiltonian.from_signed(
        2, [(0.25, {}), (-0.25, {0: "Z"}), (0.25, {1: "Z"}), (-0.25, {0: "Z", 1: "Z"})]
    )
    sat = SatInstance.from_paulis([p11, p10], epsilon=0.5)
    assert decide_sat(sat).verdict == "YES"
    assert decide_sat(reduce_qsat(sat)).verdict == "YES"

    unsat = SatInstance.from_paulis([proj_zero(), proj_one()], epsilon=1.0)
    assert decide_sat(unsat).verdict == "NO"
    assert decide_sat(reduce_qsat(unsat)).verdict == "NO"
