"""Command-line surface.

Every subcommand is a thin wrapper over the library: it parses files,
calls one or two library operations, and emits a deterministic JSON
report (or CSV for scans). Exit codes encode decision verdicts so the
tool can be scripted: 0 for success or YES, 1 for NO (and for verdicts
that are neither YES nor NO), 2 for usage or runtime errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np
import scipy.sparse as sp

from . import io as fmt
from .adiabatic import ff_schedule_path, evolve, measure_and_decode, sector_leakage
from .classify import _as_csr, classify
from .clock import block_matrix, build_ff, clock_state_index, gap_formulas, gap_scan, history_state
from .errors import ContractError, ConvergenceError, ResourceError
from .mapping import add_ancilla_penalty, add_penalty_complex, stochastize, stochastize_complex, stoquastize
from .pauli import DEFAULT_TOL, DENSE_CAP, MAX_QUBITS, _max_abs, build_matrix
from .protocols import ExcitedEnergyProblem, _verdict, decide_sat, reduce_qsat
from .spectra import _flags_and_spectrum, eig_dense, spectral_report


def _dense_cap(text: str) -> int:
    """--dense-cap: no dense solve is larger than the largest register anything realizes."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 1 <= cap <= 1 << MAX_QUBITS:
        raise argparse.ArgumentTypeError(f"must lie in [1, 2^{MAX_QUBITS}], got {cap}")
    return cap


def _tol(text: str) -> float:
    """--tol: a finite float of at least 0 (argparse names the value when float() refuses it)."""
    if not 0.0 <= float(text) < np.inf:  # false for nan too
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return float(text)


def _finite(text: str) -> float:
    """--a, --b: a finite float (argparse names the value when float() refuses it)."""
    if not abs(float(text)) < np.inf:  # false for nan too
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return float(text)


def _out_flag(parser: argparse.ArgumentParser):
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")


def _common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=_tol, default=DEFAULT_TOL)
    parser.add_argument("--dense-cap", type=_dense_cap, default=DENSE_CAP)
    _out_flag(parser)


@functools.cache  # built once per process: parsing never changes the parser
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stoqmap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ham = sub.add_parser("ham", help="inspect a Hamiltonian file")
    ham.set_defaults(run=_cmd_ham)
    ham_sub = ham.add_subparsers(dest="action", required=True)
    for action in ("check", "spectrum"):
        p = ham_sub.add_parser(action)
        p.add_argument("hamiltonian")
        _common_flags(p)

    mp = sub.add_parser("map", help="apply a sign- or phase-elimination map")
    mp.set_defaults(run=_cmd_map)
    mp_sub = mp.add_subparsers(dest="action", required=True)
    for action in ("stoquastic", "stochastic", "complex"):
        p = mp_sub.add_parser(action)
        p.add_argument("hamiltonian")
        if action != "stoquastic":
            p.add_argument(
                "--p",
                type=float,
                default=0.25,
                help="ancilla penalty weight; 0 maps without the penalty",
            )
        _common_flags(p)

    clock = sub.add_parser("clock", help="clock-construction Hamiltonians")
    clock_sub = clock.add_subparsers(dest="action", required=True)
    p = clock_sub.add_parser("build")
    p.set_defaults(run=_cmd_clock_build)
    p.add_argument("circuit")
    p.add_argument("--s", type=float, default=0.5)
    _common_flags(p)
    p = clock_sub.add_parser("gap-scan")
    p.set_defaults(run=_cmd_clock_scan)
    p.add_argument("--Lmin", type=int, required=True)
    p.add_argument("--Lmax", type=int, required=True)
    p.add_argument("--s-samples", type=int, default=3, dest="s_samples")
    _out_flag(p)

    ad = sub.add_parser("adiabatic", help="schedule a clock Hamiltonian and sample the result")
    ad.set_defaults(run=_cmd_adiabatic)
    ad_sub = ad.add_subparsers(dest="action", required=True)
    p = ad_sub.add_parser("run")
    p.add_argument("circuit")
    p.add_argument("--T", type=float, default=64.0)
    p.add_argument("--steps", type=int, default=512)
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--padded", action="store_true")
    _common_flags(p)

    proto = sub.add_parser("protocol", help="eigenvalue-threshold decision protocols")
    proto.set_defaults(run=_cmd_protocol)
    proto_sub = proto.add_subparsers(dest="action", required=True)
    p = proto_sub.add_parser("excited")
    p.add_argument("hamiltonian")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--a", type=_finite, required=True)
    p.add_argument("--b", type=_finite, required=True)
    _common_flags(p)

    sat = sub.add_parser("sat", help="satisfiability instances")
    sat.set_defaults(run=_cmd_sat)
    sat_sub = sat.add_subparsers(dest="action", required=True)
    p = sat_sub.add_parser("reduce")
    p.add_argument("instance")
    _out_flag(p)
    p = sat_sub.add_parser("decide")
    p.add_argument("instance")
    _common_flags(p)

    return parser


def _emit(args, results: dict, checks: list[dict], argv: list[str]) -> None:
    report = fmt.make_report(argv, args.seed, args.tol, results, checks)
    fmt.write_report(report, args.out)


def _check(name: str, passed: bool, value=None) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    if value is not None:
        entry["value"] = value
    return entry


def _cmd_ham(args, argv) -> int:
    H = fmt.load_hamiltonian(args.hamiltonian)
    M = build_matrix(H)
    if args.action == "check":
        flags = classify(M, tol=args.tol, dense_cap=args.dense_cap).as_dict()
        results = {
            "n": H.n,
            "num_terms": H.num_terms,
            "normalization": H.N,
            "locality": H.locality,
            "flags": flags,
        }
        checks = [_check("hermitian", flags["hermitian"])]
    else:
        report = spectral_report(M, tol=args.tol, dense_cap=args.dense_cap, seed=args.seed)
        results = {"n": H.n, "spectral_report": fmt.spectral_report_to_data(report)}
        checks = [_check("hermitian", report.flags.hermitian)]
    _emit(args, results, checks, argv)
    return 0


def _sector_residual(block, H, scale: float) -> float:
    return _max_abs(sp.csr_matrix(block) - build_matrix(H).multiply(scale))


def _cmd_map(args, argv) -> int:
    H = fmt.load_hamiltonian(args.hamiltonian)
    p = getattr(args, "p", None)
    if args.action == "stoquastic":
        mapped = stoquastize(H)
        sector = "-"
    elif args.action == "stochastic":
        mapped = stochastize(H)
        if p:
            mapped = add_ancilla_penalty(mapped, p)
        sector = "-"
    else:
        mapped = stochastize_complex(H)
        if p:
            mapped = add_penalty_complex(mapped, p)
        sector = "v1"
    realized = _as_csr(mapped.realize())  # already canonical: only checked
    flags, spec, blocks = _flags_and_spectrum(realized, args.tol, args.dense_cap, compute_vectors=False,
                                              sectors=mapped)
    flags = flags.as_dict()
    checks = [_check("hermitian", flags["hermitian"])]
    if args.action == "stoquastic":
        checks.append(_check("stoquastic", flags["stoquastic"]))
    else:
        checks.append(_check("nonnegative_entries", flags["nonnegative_entries"]))
        checks.append(_check("doubly_stochastic", flags["doubly_stochastic"]))
    if args.action == "stoquastic" or not p:
        if blocks is None:
            block = mapped.sector_operator(sector, realized)
        else:
            block = blocks[mapped.sector_labels.index(sector)]
        scale = 1.0 if args.action == "stoquastic" else 1.0 / mapped.normalization
        residual = _sector_residual(block, H, scale)
        checks.append(_check("sector_preserves_input", residual <= args.tol, residual))
    results = {
        "n": mapped.n,
        "ancilla_count": mapped.ancilla_count,
        "kind": mapped.kind,
        "normalization": mapped.normalization,
        "p": mapped.p,
        "warnings": list(mapped.warnings),
        "flags": flags,
    }
    if spec is not None:
        results["eigenvalues"] = np.real(spec.eigenvalues).tolist()
    _emit(args, results, checks, argv)
    return 0 if all(c["passed"] for c in checks) else 1


def _cmd_clock_build(args, argv) -> int:
    circuit = fmt.load_circuit(args.circuit)
    ff = build_ff(circuit, args.s)
    realized = ff.realize()
    vals = eig_dense(realized, dense_cap=args.dense_cap, compute_vectors=False).eigenvalues
    hist = history_state(circuit, args.s)
    hist_energy = float(np.real(np.vdot(hist, realized @ hist)))
    block_formula, full_formula = gap_formulas(args.s, ff.L)
    block_measured = float(block_matrix(0, args.s, ff.L).spectrum()[1])
    results = {
        "n": circuit.n,
        "L": ff.L,
        "s": args.s,
        "total_qubits": ff.total_qubits,
        "ground_energy": float(vals[0]),
        "spectral_gap": float(vals[1] - vals[0]),
        "block_gap_formula": block_formula,
        "block_gap_measured": block_measured,
        "full_gap_formula": full_formula,
        "history_state_energy": hist_energy,
        "clock_success_probability": float(
            sum(abs(hist[clock_state_index(ff.L, ff.L)::realized.shape[0] // (1 << circuit.n)]) ** 2)
        ),
    }
    checks = [
        _check("frustration_free_ground", vals[0] <= args.tol, float(vals[0])),
        _check("history_state_has_zero_energy", abs(hist_energy) <= args.tol, hist_energy),
        _check(
            "block_gap_matches_formula",
            abs(block_measured - block_formula) <= args.tol,
            abs(block_measured - block_formula),
        ),
    ]
    _emit(args, results, checks, argv)
    return 0 if all(c["passed"] for c in checks) else 1


def _cmd_clock_scan(args, argv) -> int:
    rows = [dict(zip(fmt.GAP_SCAN_COLUMNS, map(repr, row))) for row in gap_scan(args.Lmin, args.Lmax, args.s_samples)]
    fmt.write_text([fmt.gap_scan_csv(rows)], args.out)
    return 0


def _cmd_adiabatic(args, argv) -> int:
    circuit = fmt.load_circuit(args.circuit)
    evolved = circuit.padded() if args.padded else circuit
    path = ff_schedule_path(evolved)
    initial = np.zeros(path.dim)
    initial[clock_state_index(0, evolved.L)] = 1.0
    target = history_state(evolved, 0.5)
    trace = evolve(path, T=args.T, steps=args.steps, initial=initial, target=target,
                   dense_cap=args.dense_cap)
    # decoded against the loaded circuit: padded success is any clock time >= its depth
    measurement = measure_and_decode(trace.final_state, circuit, shots=args.shots,
                                     seed=args.seed, padded=args.padded)
    leakage = sector_leakage(trace)
    tv = 0.0
    support = set(measurement.decoded_distribution_exact) | set(measurement.decoded_counts)
    denom = max(measurement.clock_success_count, 1)
    for key in sorted(support):
        emp = measurement.decoded_counts.get(key, 0) / denom
        tv += abs(emp - measurement.decoded_distribution_exact.get(key, 0.0))
    tv *= 0.5
    results = {
        "n": circuit.n,
        "L": evolved.L,
        "T": args.T,
        "steps": args.steps,
        "shots": args.shots,
        "final_overlap": trace.overlaps[-1],
        "legal_sector_leakage": leakage,
        "clock_success_probability": measurement.clock_success_probability,
        "clock_success_frequency": measurement.clock_success_frequency,
        "decoded_counts": measurement.decoded_counts,  # report_to_json sorts keys
        "decoded_distribution_exact": measurement.decoded_distribution_exact,
        "decoded_total_variation": tv,
        "max_norm_drift": float(np.max(np.abs(trace.norms - 1.0))),
    }
    checks = [
        _check("sector_leakage_small", leakage <= 1e-8, leakage),
        _check("final_overlap_reported", True, trace.overlaps[-1]),
    ]
    _emit(args, results, checks, argv)
    return 0


def _cmd_protocol(args, argv) -> int:
    H = fmt.load_hamiltonian(args.hamiltonian)
    problem = ExcitedEnergyProblem(H=H, c=args.c, a=args.a, b=args.b)
    lam = problem.lambda_c(args.dense_cap)
    verdict = _verdict(lam, problem.a, problem.b)
    results = {
        "n": H.n,
        "c": args.c,
        "a": args.a,
        "b": args.b,
        "lambda_c": lam,
        "verdict": verdict,
    }
    _emit(args, results, [_check("decided", verdict != "AMBIGUOUS", verdict)], argv)
    return 0 if verdict == "YES" else 1


def _cmd_sat(args, argv) -> int:
    instance = fmt.load_sat_instance(args.instance)
    if args.action == "reduce":
        reduced = reduce_qsat(instance)
        fmt.write_report(fmt.sat_instance_to_data(reduced), args.out)
        return 0
    decision = decide_sat(instance, tol=args.tol, dense_cap=args.dense_cap)
    results = {
        "n": instance.n,
        "m": instance.m,
        "kind": instance.kind,
        "epsilon": instance.epsilon,
        "ground_energy": decision.ground_energy,
        "verdict": decision.verdict,
    }
    _emit(args, results, [_check("decided", decision.verdict != "AMBIGUOUS", decision.verdict)], argv)
    return 0 if decision.verdict == "YES" else 1


def run_command(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.run(args, argv)  # the handler the parsed subcommand's parser set
    except (ContractError, ResourceError, ConvergenceError) as exc:
        best = getattr(exc, "best_residual", None)
        print(f"error: {exc}" + ("" if best is None else f" (best residual {best:.3e})"), file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":  # `python -m stoqmap.cli` runs a second copy of this module beside the package's
    print("error: run the command-line interface as `python -m stoqmap`", file=sys.stderr)
    sys.exit(2)
