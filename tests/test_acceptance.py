"""End-to-end acceptance checks: one test and one pass/fail line per criterion.

Each test accumulates every violation before failing so a red criterion
reports the full picture, not just the first bad tuple.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from stoqmap import (
    LocalHamiltonian,
    QuantumCircuit,
    SatInstance,
    acceptance_operator,
    add_ancilla_penalty,
    add_penalty_complex,
    antisym_projector,
    block_matrix,
    build_Hc,
    build_ff,
    build_matrix,
    build_stochastic_ff,
    classify,
    clock_state_index,
    cnot,
    decide_sat,
    eig_dense,
    evolve,
    ff_schedule_path,
    ff_term_hamiltonians,
    gap_formulas,
    history_state,
    lemma1_value,
    measure_and_decode,
    output_distribution,
    pauli_decompose,
    random_instance,
    reduce_qsat,
    rot,
    sector_leakage,
    sector_spectrum,
    sector_vector_z4,
    stochastize,
    stochastize_complex,
    stoquastic_interpolation_path,
    stoquastize,
)


def finish(num, label, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {num:2d} ({label}): {status}")
    if problems:
        pytest.fail(f"criterion {num}: " + " | ".join(problems), pytrace=False)


def spectrum_of(H):
    return eig_dense(build_matrix(H), compute_vectors=False).eigenvalues


def real_family(count, offset=0, max_n=5):
    out = []
    for k in range(count):
        n = 2 + (k % (max_n - 1))
        out.append(random_instance(n, locality=2, seed=offset + k))
    return out


def complex_family(count, min_gap):
    """Seeded complex instances (n <= 3) whose ground state is nondegenerate."""
    out = []
    seed = 0
    while len(out) < count:
        n = 1 + (len(out) % 3)
        H = random_instance(n, locality=min(2, n), seed=300 + seed, include_y=True)
        seed += 1
        vals = spectrum_of(H)
        if vals[1] - vals[0] > min_gap:
            out.append(H)
    return out


def test_criterion_01_sector_spectrum_preservation():
    problems = []
    start = time.perf_counter()
    for H in real_family(20):
        want = spectrum_of(H)
        stoq = sector_spectrum(stoquastize(H), "-")
        if np.max(np.abs(want - stoq)) > 1e-9:
            problems.append(f"stoquastic sector off by {np.max(np.abs(want - stoq)):.2e} (n={H.n})")
        mapped = stochastize(H)
        stoch = mapped.normalization * sector_spectrum(mapped, "-")
        if np.max(np.abs(want - stoch)) > 1e-9:
            problems.append(f"stochastic sector off by {np.max(np.abs(want - stoch)):.2e} (n={H.n})")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.1f} s exceeds 10 s")
    finish(1, "sector spectra preserved", problems)


def test_criterion_02_structural_flags():
    problems = []

    def stochastic_violation(A):
        worst_entry = float(A.min()) if A.size else 0.0
        col_err = float(np.max(np.abs(A.sum(axis=0) - 1.0)))
        if worst_entry < -1e-12:
            return f"entry {worst_entry:.2e}"
        if col_err > 1e-12:
            return f"column sums off by {col_err:.2e}"
        return None

    for k, H in enumerate(real_family(12, max_n=4)):
        A = stoquastize(H).realize().toarray()
        off = A - np.diag(np.diag(A))
        if off.size and float(off.max()) > 1e-12:
            problems.append(f"stoquastic off-diagonal {float(off.max()):.2e} (seed {k})")
        for name, mapped in (
            ("stochastic", stochastize(H)),
            ("penalized", add_ancilla_penalty(stochastize(H), 0.25)),
        ):
            bad = stochastic_violation(mapped.realize().toarray().real)
            if bad:
                problems.append(f"{name} map seed {k}: {bad}")
    for k, H in enumerate(complex_family(6, min_gap=0.0)):
        mapped = stochastize_complex(H)
        for name, out in (
            ("four-cycle", mapped),
            ("four-cycle penalized", add_penalty_complex(mapped, 0.25)),
        ):
            bad = stochastic_violation(out.realize().toarray().real)
            if bad:
                problems.append(f"{name} map seed {k}: {bad}")
    finish(2, "structural flags", problems)


def test_criterion_03_penalty_split():
    problems = []
    for p in (0.1, 0.25):
        for seed in range(10):
            n = 1 + seed % 4
            H = random_instance(n, locality=min(2, n), seed=40 + seed)
            mapped = add_ancilla_penalty(stochastize(H), p)
            vals = eig_dense(mapped.realize(), compute_vectors=False).eigenvalues
            low, high = vals[: 1 << n], vals[1 << n :]
            want = (p / mapped.normalization) * spectrum_of(H)
            err = np.max(np.abs(low - want))
            if err > 1e-9:
                problems.append(f"p={p} seed {seed}: lower block off by {err:.2e}")
            if not low[-1] < high[0]:
                problems.append(f"p={p} seed {seed}: halves overlap ({low[-1]} vs {high[0]})")
    finish(3, "penalty split", problems)


def test_criterion_04_gap_formulas():
    # The weight-1 closed form is the block's ground energy at s = 1/2 and a
    # strict lower bound below it; at L = 1 the block is [[1+s, -b], [-b, 1-s]]
    # with b = sqrt(s(1-s)), whose ground energy is exactly 1 - sqrt(s).
    problems = []
    for L in range(1, 7):
        gaps = {}
        for s in (0.1, 0.25, 0.5):
            block_want, full_want = gap_formulas(s, L)
            m0 = block_matrix(0, s, L).spectrum()
            m1 = block_matrix(1, s, L).spectrum()
            gaps[s] = min(m0[1], m1[0])
            if abs(m0[1] - block_want) > 1e-10:
                problems.append(
                    f"L={L} s={s}: weight-0 gap {m0[1]:.9f} vs formula {block_want:.9f}"
                )
            if s == 0.5 and abs(m1[0] - full_want) > 1e-10:
                problems.append(
                    f"L={L} s={s}: weight-1 ground {m1[0]:.9f} vs formula {full_want:.9f}"
                )
            if s < 0.5 and not m1[0] > full_want + 1e-6:
                problems.append(
                    f"L={L} s={s}: weight-1 ground {m1[0]:.9f} not strictly above bound {full_want:.9f}"
                )
            if L == 1 and abs(m1[0] - (1.0 - np.sqrt(s))) > 1e-10:
                problems.append(
                    f"L=1 s={s}: weight-1 ground {m1[0]:.9f} vs 1 - sqrt(s) {1.0 - np.sqrt(s):.9f}"
                )
        s_min = min(gaps, key=gaps.get)
        if s_min != 0.5:
            problems.append(f"L={L}: minimum gap at s={s_min}, not s=0.5")
    block_ref, full_ref = gap_formulas(0.5, 3)
    if abs(block_ref - 0.2928932) > 1e-7:
        problems.append(f"s=1/2 L=3 weight-0 value {block_ref:.7f} != 0.2928932")
    if abs(full_ref - 0.0761205) > 1e-7:
        problems.append(f"s=1/2 L=3 weight-1 value {full_ref:.7f} != 0.0761205")
    finish(4, "gap formulas", problems)


ROTCNOT_CIRCUITS = [
    QuantumCircuit(1, (rot(0, 0.3),)),
    QuantumCircuit(1, (rot(0, 0.3), rot(0, -0.7))),
    QuantumCircuit(2, (rot(0, 0.5), cnot(0, 1), rot(1, 0.9))),
    QuantumCircuit(2, (rot(0, 0.5), cnot(0, 1), rot(1, -0.2), cnot(1, 0))),
]


def test_criterion_05_frustration_free_history():
    problems = []
    for circuit in ROTCNOT_CIRCUITS:
        tag = f"n={circuit.n} L={circuit.L}"
        for s in (0.25, 0.5):
            ff = build_ff(circuit, s)
            for term in ff.terms:
                T = term.realize(ff.total_qubits).toarray()
                err = np.linalg.norm(T @ T - T)
                if err > 1e-10:
                    problems.append(f"{tag} s={s}: term {term.label} not a projector ({err:.2e})")
            vals, vecs = np.linalg.eigh(ff.realize().toarray())
            if vals[0] > 1e-10:
                problems.append(f"{tag} s={s}: ground energy {vals[0]:.2e}")
            if vals[1] <= 1e-8:
                problems.append(f"{tag} s={s}: ground state not unique")
                continue
            h = history_state(circuit, s)
            v = vecs[:, 0]
            if float(np.real(np.vdot(v, h))) < 0:
                v = -v
            err = np.linalg.norm(v - h)
            if err > 1e-8:
                problems.append(f"{tag} s={s}: ground differs from history state by {err:.2e}")
        h = history_state(circuit, 0.5)
        cdim = 1 << (circuit.L + 1)
        amps = h[clock_state_index(circuit.L, circuit.L) :: cdim]
        success = float(np.sum(np.abs(amps) ** 2))
        if abs(success - 1.0 / (circuit.L + 1)) > 1e-12:
            problems.append(f"{tag}: clock success {success} != 1/(L+1)")
    finish(5, "frustration-free history", problems)


def test_criterion_06_stochastic_ff_universality():
    problems = []
    cases = [
        (QuantumCircuit(1, (rot(0, 0.4), rot(0, -0.9))), 0.5, 0.25),
        (QuantumCircuit(2, (rot(0, 0.5), cnot(0, 1), rot(1, 0.3))), 0.5, 0.1),
    ]
    for circuit, s, p in cases:
        tag = f"n={circuit.n} L={circuit.L} p={p}"
        terms = build_stochastic_ff(circuit, s, p)
        for j, T in enumerate(terms):
            flags = classify(T)
            if not flags.psd:
                problems.append(f"{tag}: term {j} not psd")
            if not (flags.nonnegative_entries and flags.column_stochastic):
                problems.append(f"{tag}: term {j} not stochastic")
        total = terms[0]
        for T in terms[1:]:
            total = total + T
        out_vals = eig_dense(total, compute_vectors=False).eigenvalues
        if out_vals[0] > 1e-10:
            problems.append(f"{tag}: summed ground energy {out_vals[0]:.2e}")
        ff = build_ff(circuit, s)
        in_vals = eig_dense(ff.realize(), compute_vectors=False).eigenvalues
        N = sum(H.N for H in ff_term_hamiltonians(ff))
        want_gap = (p / N) * (in_vals[1] - in_vals[0])
        got_gap = out_vals[1] - out_vals[0]
        if abs(got_gap - want_gap) > 1e-9:
            problems.append(f"{tag}: gap {got_gap:.3e} vs (p/N) x input gap {want_gap:.3e}")
    finish(6, "stochastic frustration-free image", problems)


def test_criterion_07_four_cycle_doubling():
    problems = []
    for k, H in enumerate(complex_family(10, min_gap=1e-2)):
        tag = f"instance {k} (n={H.n})"
        mapped = stochastize_complex(H)
        N = mapped.normalization
        sector = mapped.sector_operator("v1").toarray()
        err = np.max(np.abs(sector - build_matrix(H).toarray() / N))
        if err > 1e-9:
            problems.append(f"{tag}: v1 sector off by {err:.2e}")
        penalized = add_penalty_complex(mapped, 0.25).realize().toarray()
        vals, vecs = np.linalg.eigh(penalized)
        if abs(vals[1] - vals[0]) > 1e-10:
            problems.append(f"{tag}: ground not doubled ({vals[1] - vals[0]:.2e})")
        if not vals[2] - vals[1] > 1e-6:
            problems.append(f"{tag}: no gap above the doubled pair ({vals[2] - vals[1]:.2e})")
        ground = vecs[:, :2]
        psi = eig_dense(build_matrix(H)).eigenvectors[:, 0]
        w = np.kron(psi, sector_vector_z4(1))
        for name, vec in (("state x v1", w), ("conjugate x v3", np.conj(w))):
            overlap = float(np.linalg.norm(ground.conj().T @ vec) ** 2)
            if overlap < 1.0 - 1e-8:
                problems.append(f"{tag}: {name} overlap with ground pair {overlap:.10f}")
    finish(7, "four-cycle map doubling", problems)


def random_projector_ham(n, rng, kill=None):
    d = 1 << n
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    if kill is not None:
        v = v - kill * np.vdot(kill, v)
    v = v / np.linalg.norm(v)
    return pauli_decompose(sp.csr_matrix(np.outer(v, v.conj())))


def test_criterion_08_sat_reduction():
    problems = []
    rng = np.random.default_rng(77)
    for case in range(8):
        n = 1 + case % 2
        satisfiable = case % 4 < 2
        if satisfiable:
            m = n + 1
            kill = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            kill = kill / np.linalg.norm(kill)
            hams = [random_projector_ham(n, rng, kill=kill) for _ in range(m)]
            epsilon = 0.5
        else:
            # fewer than 2^n + 1 rank-one terms always share a kernel vector
            m = (1 << n) + 1
            while True:
                hams = [random_projector_ham(n, rng) for _ in range(m)]
                total = sum(build_matrix(h).toarray() for h in hams)
                ground = float(np.linalg.eigvalsh(total)[0])
                if ground > 0.02:
                    break
            epsilon = ground
        inst = SatInstance.from_paulis(hams, epsilon=epsilon)
        before = decide_sat(inst)
        reduced = reduce_qsat(inst)
        after = decide_sat(reduced)
        tag = f"case {case} (n={n}, m={m})"
        if before.verdict != ("YES" if satisfiable else "NO"):
            problems.append(f"{tag}: original verdict {before.verdict}")
        if after.verdict != before.verdict:
            problems.append(f"{tag}: reduced verdict {after.verdict} != {before.verdict}")
        if not satisfiable:
            bound = inst.epsilon / (3.0 * inst.m * reduced.N_max)
            if abs(reduced.epsilon - bound) > 1e-12:
                problems.append(f"{tag}: rescaled promise {reduced.epsilon} != {bound}")
            if after.ground_energy < bound - 1e-10:
                problems.append(
                    f"{tag}: reduced ground {after.ground_energy:.3e} below bound {bound:.3e}"
                )
    finish(8, "satisfiability reduction", problems)


def test_criterion_09_excited_state_protocol():
    problems = []
    rng = np.random.default_rng(2024)
    combos = [(2, 4), (3, 6), (3, 8), (4, 6)]
    projectors = {(c, d): antisym_projector(d, c) for c, d in combos}
    for trial in range(100):
        c, d = combos[trial % len(combos)]
        raw = rng.standard_normal(d**c) + 1j * rng.standard_normal(d**c)
        phi = projectors[(c, d)] @ raw
        phi = phi / np.linalg.norm(phi)
        alpha = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        val = lemma1_value(phi, alpha)
        if val > 1.0 / c + 1e-12:
            problems.append(f"trial {trial} (c={c}, d={d}): value {val} above 1/c")

    spread = np.diag(np.arange(4.0))
    H2 = random_instance(2, seed=11)
    vals2 = spectrum_of(H2)
    yes_configs = [
        (spread, 2, 1.5),
        (spread, 3, 2.5),
        (spread, 2, 2.5),
        (H2, 2, 0.5 * (vals2[1] + vals2[2])),
    ]
    no_configs = [
        (spread, 2, 0.5),
        (spread, 3, 1.5),
        (spread, 4, 2.5),
        (H2, 2, 0.5 * (vals2[0] + vals2[1])),
    ]
    for H, c, thr in yes_configs:
        rep = acceptance_operator(H, c, thr)
        if abs(rep.probability - 1.0) > 1e-10:
            problems.append(f"accept c={c} thr={thr:.3f}: probability {rep.probability}")
    for H, c, thr in no_configs:
        rep = acceptance_operator(H, c, thr)
        if rep.probability > 1.0 - 1.0 / c + 1e-10:
            problems.append(f"reject c={c} thr={thr:.3f}: probability {rep.probability}")

    for c in range(1, 9):
        d = 0 if c == 1 else int(np.ceil(np.log2(c)))
        vals = spectrum_of(build_Hc(c, d + 1))
        negatives = int(np.sum(vals < -1e-12))
        lowest_nonneg = float(np.min(vals[vals > -1e-12]))
        if negatives != c:
            problems.append(f"c={c}: {negatives} negative eigenvalues")
        if abs(lowest_nonneg - 0.5) > 1e-12:
            problems.append(f"c={c}: lowest nonnegative eigenvalue {lowest_nonneg}")
    finish(9, "excited-state protocol", problems)


def test_criterion_10_adiabatic_end_to_end():
    problems = []
    circuit = QuantumCircuit(1, (rot(0, 0.4), rot(0, -0.8), rot(0, 0.3)))
    path = ff_schedule_path(circuit)
    psi0 = np.zeros(1 << (circuit.n + circuit.L + 1))
    psi0[clock_state_index(0, circuit.L)] = 1.0
    finals = []
    trace = None
    for T in (60.0, 120.0, 240.0):
        trace = evolve(path, T, max(64, int(1.5 * T)), psi0, target="ground")
        finals.append(float(trace.overlaps[-1]))
    if not all(a <= b + 1e-3 for a, b in zip(finals, finals[1:])):
        problems.append(f"overlap not increasing with T: {finals}")
    if finals[-1] < 0.99:
        problems.append(f"final history overlap {finals[-1]:.4f} below 0.99")

    report = measure_and_decode(trace.final_state, circuit, shots=10_000, seed=5)
    want = output_distribution(circuit)
    total = sum(report.decoded_counts.values())
    if total == 0:
        problems.append("no clock successes in 10^4 shots")
    else:
        keys = set(want) | set(report.decoded_counts)
        tv = 0.5 * sum(
            abs(report.decoded_counts.get(k, 0) / total - want.get(k, 0.0)) for k in keys
        )
        if tv > 0.05:
            problems.append(f"decoded distribution TV {tv:.3f} above 0.05")

    Ha = LocalHamiltonian.from_signed(1, [(1.0, {0: "X"})])
    Hb = LocalHamiltonian.from_signed(1, [(0.7, {0: "Z"}), (0.4, {0: "X"})])
    start = eig_dense(build_matrix(Ha)).eigenvectors[:, 0]
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    sector_trace = evolve(
        stoquastic_interpolation_path(Ha, Hb), 20.0, 200, np.kron(start, minus)
    )
    leak = sector_leakage(sector_trace)
    if leak > 1e-10:
        problems.append(f"stoquastized path sector leakage {leak:.2e}")
    finish(10, "adiabatic end to end", problems)
