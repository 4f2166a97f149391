"""Seeded job workloads for the stoqmap benchmark.

A workload writes its inputs from the seed into a scratch directory at
set-up, and a job is a fixed bundle of CLI subcommands run in-process
through ``stoqmap.cli.run_command`` plus a few library calls. References
for every check are computed at set-up with plain numpy from the input
files, never through the code path a job times.
"""

from __future__ import annotations

import csv
import importlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import stoqmap
from stoqmap import cli

# stoqmap.classify is rebound to the function by the package; fetch the modules.
_classify = importlib.import_module("stoqmap.classify")
_clock = importlib.import_module("stoqmap.clock")

# Single-qubit matrices, qubit 0 is the most significant bit (as in stoqmap).
_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_TOL = 1e-8


@dataclass
class JobResult:
    """What one job produced: CLI exit codes, output files, library values."""

    codes: dict[str, int] = field(default_factory=dict)
    outputs: dict[str, Path] = field(default_factory=dict)
    values: dict[str, object] = field(default_factory=dict)


class Problems(list):
    """Collects check failures as readable strings."""

    def close(self, what: str, got, want, tol: float = _TOL) -> None:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.append(f"{what}: shape {got.shape} != {want.shape}")
        elif got.size and float(np.max(np.abs(got - want))) > tol:
            self.append(f"{what}: off by {float(np.max(np.abs(got - want))):.3e}")

    def true(self, what: str, cond: bool) -> None:
        if not cond:
            self.append(what)


def _pauli_matrix(n: int, paulis: list[dict]) -> np.ndarray:
    ops = {p["qubit"]: _PAULI[p["op"]] for p in paulis}
    out = np.ones((1, 1), dtype=complex)
    for q in range(n):
        out = np.kron(out, ops.get(q, np.eye(2)))
    return out


def _dense_terms(n: int, terms: list[dict]) -> tuple[np.ndarray, np.ndarray, float]:
    """(H, entrywise-|.| companion, normalization N) from a term list."""
    dim = 1 << n
    H = np.zeros((dim, dim), dtype=complex)
    Habs = np.zeros((dim, dim))
    for t in terms:
        P = _pauli_matrix(n, t["paulis"])
        H += t["coeff"] * P
        Habs += abs(t["coeff"]) * np.abs(P)
    return H, Habs, float(sum(abs(t["coeff"]) for t in terms))


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _run(sw, result: JobResult, key: str, argv: list[str], out: Path) -> None:
    """Run one subcommand through the CLI entry point, as a user would, as one timed step."""
    result.outputs[key] = out
    # looked up on the module at call time so a traced run sees its wrapper
    result.codes[key] = sw.time(lambda: cli.run_command(argv + ["--out", str(out)]))


def _checks_passed(report: dict) -> bool:
    return all(c["passed"] for c in report["checks"])


def _circuit_unitary(n: int, gates: list[dict]) -> np.ndarray:
    """Full unitary of a ROT/CNOT circuit, built with explicit Kronecker products."""
    dim = 1 << n
    U = np.eye(dim)
    for g in gates:
        if g["name"] == "ROT":
            (q,) = g["qubits"]
            c, s = np.cos(g["angle"]), np.sin(g["angle"])
            G = np.ones((1, 1))
            for k in range(n):
                G = np.kron(G, np.array([[c, -s], [s, c]]) if k == q else np.eye(2))
        else:
            ctrl, tgt = g["qubits"]
            G = np.zeros((dim, dim))
            for i in range(dim):
                j = i ^ (1 << (n - 1 - tgt)) if (i >> (n - 1 - ctrl)) & 1 else i
                G[j, i] = 1.0
        U = G @ U
    return U


def _clock_block(weight: int, s: float, L: int) -> np.ndarray:
    """Tridiagonal restriction of H^FF(s) to one Hamming-weight block."""
    b = np.sqrt(s * (1.0 - s))
    M = np.diag([s + weight] + [1.0] * (L - 1) + [1.0 - s])
    M -= b * (np.eye(L + 1, k=1) + np.eye(L + 1, k=-1))
    return M


def _angles(rng: np.random.Generator, k: int) -> list[float]:
    return [float(a) for a in rng.uniform(0.2, 1.3, size=k)]


class Workload:
    """Base: inputs written at construction; job() times its steps on a Stopwatch."""

    name = ""

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.ref: dict = {}

    def out(self, name: str) -> Path:
        return self.dir / "out" / name

    def reference(self) -> None:
        raise NotImplementedError

    def job(self, sw) -> JobResult:
        raise NotImplementedError

    def check(self, r: JobResult) -> Problems:
        raise NotImplementedError


class ClockAdiabatic(Workload):
    """adiabatic run, clock build and clock gap-scan on one ROT-CNOT-ROT circuit."""

    name = "clock-adiabatic"
    T, STEPS, SHOTS, LMAX = 32.0, 64, 256, 6

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self.circuit_file = workdir / "circuit.json"
        a, b = _angles(self.rng, 2)
        circuit = stoqmap.QuantumCircuit(2, (stoqmap.rot(0, a), stoqmap.cnot(0, 1), stoqmap.rot(1, b)))
        stoqmap.save_circuit(circuit, str(self.circuit_file))

    def reference(self) -> None:
        data = _read_json(self.circuit_file)
        n, L = data["n"], len(data["gates"])
        final = _circuit_unitary(n, data["gates"])[:, 0]
        self.ref["distribution"] = {format(i, f"0{n}b"): float(abs(a) ** 2) for i, a in enumerate(final)}
        # Evolution restricted to the x=0 legal block, basis psi_j (x) |c_j>.
        phi = np.zeros(L + 1, dtype=complex)
        phi[0] = 1.0
        dt = self.T / self.STEPS
        for k in range(self.STEPS):
            vals, vecs = np.linalg.eigh(_clock_block(0, (k + 0.5) / self.STEPS / 2.0, L))
            phi = vecs @ (np.exp(-1j * vals * dt) * (vecs.T @ phi))
        self.ref["final_overlap"] = float(abs(phi.sum()) ** 2 / (L + 1))
        self.ref["success_probability"] = float(abs(phi[L]) ** 2)
        b0 = np.linalg.eigvalsh(_clock_block(0, 0.5, L))
        b1 = np.linalg.eigvalsh(_clock_block(1, 0.5, L))
        self.ref["L"] = L
        self.ref["block_gap"] = float(b0[1])
        self.ref["spectral_gap"] = float(min(b0[1], b1[0]))
        rows = []
        for Ls in range(1, self.LMAX + 1):
            for i in (1, 2, 3):
                s = 0.5 * i / 3
                rows.append((Ls, s, np.linalg.eigvalsh(_clock_block(0, s, Ls))[1],
                             np.linalg.eigvalsh(_clock_block(1, s, Ls))[0]))
        self.ref["scan"] = rows

    def job(self, sw) -> JobResult:
        r = JobResult()
        c = str(self.circuit_file)
        _run(sw, r, "adiabatic", ["adiabatic", "run", c, "--T", str(self.T), "--steps",
                              str(self.STEPS), "--shots", str(self.SHOTS), "--seed",
                              str(self.seed)], self.out("adiabatic.json"))
        _run(sw, r, "build", ["clock", "build", c, "--s", "0.5"], self.out("build.json"))
        _run(sw, r, "scan", ["clock", "gap-scan", "--Lmin", "1", "--Lmax", str(self.LMAX)],
             self.out("scan.csv"))
        return r

    def check(self, r: JobResult) -> Problems:
        p = Problems()
        p.true(f"exit codes {r.codes}", all(v == 0 for v in r.codes.values()))
        ref = self.ref
        ad = _read_json(r.outputs["adiabatic"])
        res = ad["results"]
        p.true("adiabatic checks failed", _checks_passed(ad))
        p.true("leakage above 1e-8", res["legal_sector_leakage"] <= 1e-8)
        exact = res["decoded_distribution_exact"]
        p.true("decoded outcomes differ", sorted(exact) == sorted(ref["distribution"]))
        if sorted(exact) == sorted(ref["distribution"]):
            keys = sorted(exact)
            p.close("decoded distribution", [exact[k] for k in keys],
                    [ref["distribution"][k] for k in keys])
        p.close("final overlap", res["final_overlap"], ref["final_overlap"])
        p.close("clock success probability", res["clock_success_probability"],
                ref["success_probability"])
        counts = sum(res["decoded_counts"].values())
        p.true("decoded counts do not match the success frequency",
               counts == round(res["clock_success_frequency"] * self.SHOTS))
        bd = _read_json(r.outputs["build"])
        res = bd["results"]
        p.true("clock build checks failed", _checks_passed(bd))
        p.close("ground energy", res["ground_energy"], 0.0)
        p.close("history state energy", res["history_state_energy"], 0.0)
        p.close("spectral gap", res["spectral_gap"], ref["spectral_gap"])
        p.close("block gap", res["block_gap_measured"], ref["block_gap"])
        p.close("clock success at s=1/2", res["clock_success_probability"], 1.0 / (ref["L"] + 1))
        with open(r.outputs["scan"], encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        p.true("gap-scan row count", len(rows) == len(ref["scan"]))
        if len(rows) == len(ref["scan"]):
            got = [(int(x["L"]), float(x["s"]), float(x["block_gap_measured"]),
                    float(x["full_gap_measured"])) for x in rows]
            p.close("gap-scan", got, ref["scan"])
        return p


class MapSpectral(Workload):
    """ham, map and protocol subcommands on two random Hamiltonians."""

    name = "map-spectral"
    N_BIG, N_Y, P_STOCH, P_COMPLEX, C = 8, 6, 0.25, 0.2, 3

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        s1, s2 = (int(x) for x in self.rng.integers(0, 2**31, size=2))
        self.big_file = workdir / "h_big.json"
        self.y_file = workdir / "h_y.json"
        stoqmap.save_hamiltonian(stoqmap.random_instance(self.N_BIG, seed=s1), str(self.big_file))
        stoqmap.save_hamiltonian(stoqmap.random_instance(self.N_Y, seed=s2, include_y=True),
                                 str(self.y_file))

    def reference(self) -> None:
        big = _read_json(self.big_file)
        H, Habs, N = _dense_terms(big["n"], big["terms"])
        spec, spec_abs = np.linalg.eigvalsh(H), np.linalg.eigvalsh(Habs)
        p = self.P_STOCH
        self.ref.update(
            big_terms=len(big["terms"]),
            big_N=N,
            spectrum=spec,
            stoquastic=np.sort(np.concatenate([spec, -spec_abs])),
            stochastic=np.sort(np.concatenate([p / N * spec, (1 - p) + p / N * spec_abs])),
        )
        hy = _read_json(self.y_file)
        Hy, _, Ny = _dense_terms(hy["n"], hy["terms"])
        spec_y = np.linalg.eigvalsh(Hy)
        self.ref["complex_low"] = np.repeat(self.P_COMPLEX / Ny * spec_y, 2)
        lam = self.ref["lambda_c"] = float(spec_y[self.C - 1])
        # The seed picks the verdict; thresholds keep a clear margin from lambda_c.
        self.ref["verdict"] = "YES" if self.seed % 2 else "NO"
        self.a = lam + 0.25 if self.seed % 2 else lam - 1.25
        self.b = self.a + 1.0

    def job(self, sw) -> JobResult:
        r = JobResult()
        big, hy = str(self.big_file), str(self.y_file)
        _run(sw, r, "check", ["ham", "check", big], self.out("check.json"))
        _run(sw, r, "spectrum", ["ham", "spectrum", big], self.out("spectrum.json"))
        _run(sw, r, "stoquastic", ["map", "stoquastic", big], self.out("stoquastic.json"))
        _run(sw, r, "stochastic", ["map", "stochastic", big, "--p", str(self.P_STOCH)],
             self.out("stochastic.json"))
        _run(sw, r, "complex", ["map", "complex", hy, "--p", str(self.P_COMPLEX)],
             self.out("complex.json"))
        _run(sw, r, "excited", ["protocol", "excited", hy, "--c", str(self.C), "--a", repr(self.a),
                            "--b", repr(self.b)], self.out("excited.json"))
        return r

    def check(self, r: JobResult) -> Problems:
        p = Problems()
        ref = self.ref
        want_codes = {k: 0 for k in r.codes} | {"excited": 0 if ref["verdict"] == "YES" else 1}
        p.true(f"exit codes {r.codes}", r.codes == want_codes)
        reps = {k: _read_json(v) for k, v in r.outputs.items()}
        for k, rep in reps.items():
            p.true(f"{k} checks failed", _checks_passed(rep))
        res = reps["check"]["results"]
        p.true("ham check not hermitian", res["flags"]["hermitian"])
        p.true("ham check term count", res["num_terms"] == ref["big_terms"])
        p.close("ham check normalization", res["normalization"], ref["big_N"])
        p.close("ham spectrum", reps["spectrum"]["results"]["spectral_report"]["eigenvalues"],
                ref["spectrum"])
        p.true("stoquastic flag", reps["stoquastic"]["results"]["flags"]["stoquastic"])
        p.close("stoquastic spectrum", reps["stoquastic"]["results"]["eigenvalues"],
                ref["stoquastic"])
        res = reps["stochastic"]["results"]
        p.true("stochastic map not doubly stochastic", res["flags"]["doubly_stochastic"])
        p.close("stochastic spectrum", res["eigenvalues"], ref["stochastic"])
        res = reps["complex"]["results"]
        p.true("complex map not doubly stochastic", res["flags"]["doubly_stochastic"])
        low = ref["complex_low"]
        p.close("complex low spectrum", res["eigenvalues"][: low.size], low)
        res = reps["excited"]["results"]
        p.close("lambda_c", res["lambda_c"], ref["lambda_c"])
        p.true("excited verdict", res["verdict"] == ref["verdict"])
        return p


class ClockSat(Workload):
    """sat decide, sat reduce and the stochastic clock map on s=1/2 clock projectors.

    The circuit is one qubit with two rotations (L=2): five clock
    projectors of 4 qubits, reduced to 6 qubits.
    """

    name = "clock-sat"
    S, P_FF, EPSILON, P_REDUCE = 0.5, 0.25, 0.1, 1.0 / 3.0

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self.circuit = stoqmap.QuantumCircuit(1, tuple(stoqmap.rot(0, a) for a in _angles(self.rng, 2)))
        ff = stoqmap.build_ff(self.circuit, self.S)
        instance = stoqmap.SatInstance.from_paulis(stoqmap.ff_term_hamiltonians(ff), self.EPSILON)
        self.sat_file = workdir / "sat.json"
        stoqmap.save_sat_instance(instance, str(self.sat_file))

    def reference(self) -> None:
        data = _read_json(self.sat_file)
        ops = data["operators"]
        N_max = max(sum(abs(t["coeff"]) for t in op["terms"]) for op in ops)
        self.ref.update(
            n=data["n"],
            m=len(ops),
            eps_reduced=self.P_REDUCE * data["epsilon"] / (len(ops) * N_max),
        )

    def job(self, sw) -> JobResult:
        r = JobResult()
        sat, red = str(self.sat_file), self.out("red.json")
        _run(sw, r, "decide", ["sat", "decide", sat], self.out("decide.json"))
        _run(sw, r, "reduce", ["sat", "reduce", sat], red)
        _run(sw, r, "decide_reduced", ["sat", "decide", str(red)], self.out("decide_red.json"))
        terms = sw.time(_clock.build_stochastic_ff, self.circuit, self.S, self.P_FF)
        r.values["ff_terms"] = terms
        r.values["ff_flags"] = sw.time(lambda: [_classify.classify(t) for t in terms])
        return r

    def check(self, r: JobResult) -> Problems:
        p = Problems()
        ref = self.ref
        p.true(f"exit codes {r.codes}", all(v == 0 for v in r.codes.values()))
        dec = _read_json(r.outputs["decide"])["results"]
        red = _read_json(r.outputs["decide_reduced"])["results"]
        p.true("input verdict", dec["verdict"] == "YES")
        p.true("reduced verdict", red["verdict"] == "YES")
        p.close("input ground energy", dec["ground_energy"], 0.0)
        p.close("reduced ground energy", red["ground_energy"], 0.0)
        p.true("reduced shape", (red["n"], red["m"], red["kind"]) == (ref["n"] + 2, ref["m"], "stochastic"))
        p.close("reduced epsilon", red["epsilon"], ref["eps_reduced"], tol=1e-12)
        p.true("reduced file missing", os.path.getsize(r.outputs["reduce"]) > 0)
        terms = r.values["ff_terms"]
        p.true("stochastic FF term count", len(terms) == ref["m"])
        for i, (T, flags) in enumerate(zip(terms, r.values["ff_flags"])):
            D = T.toarray()
            p.true(f"ff term {i} flags", flags.psd and flags.doubly_stochastic)
            p.true(f"ff term {i} not psd", np.linalg.eigvalsh(D)[0] >= -1e-9)
            p.true(f"ff term {i} negative entry", D.min() >= -1e-12)
            p.close(f"ff term {i} column sums", D.sum(axis=0), np.ones(D.shape[0]))
            p.close(f"ff term {i} row sums", D.sum(axis=1), np.ones(D.shape[0]))
        return p


WORKLOADS = {w.name: w for w in (ClockAdiabatic, MapSpectral, ClockSat)}
