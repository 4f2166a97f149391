"""The iterative path above the dense cap, against the dense answers under the default cap.

Above dense_cap, ham check, ham spectrum, classify and spectral_report
reach ARPACK through classify._eigsh. Each call here runs once with a cap
below the register and once with the default cap; flags must be equal
and every reported value must agree to 1e-9. ARPACK is counted, so a
test cannot pass by never leaving the dense path.
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from stoqmap import (
    LocalHamiltonian,
    ResourceError,
    build_matrix,
    classify,
    eig_extremal,
    random_instance,
    run_command,
    save_hamiltonian,
    spectral_report,
    stochastize,
)

CAPS = ("8", "4096")  # below a 5-qubit register, and the default
FIELDS = ("ground_energy", "spectral_gap", "top_eigenvalue", "second_largest_magnitude", "perron_uniform_overlap")


def counted_arpack(monkeypatch):
    calls = []
    real = spla.eigsh

    def counted(*args, **kwargs):
        calls.append(kwargs.get("k"))
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", counted)
    return calls


def run_report(tmp_path, argv):
    out = tmp_path / "r.json"
    assert run_command(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))["results"]


def report_fields(report):
    return {name: getattr(report, name) for name in FIELDS + ("perron_top_is_one", "flags")}


def assert_reports_agree(iterative, dense):
    assert iterative["flags"] == dense["flags"]
    assert iterative["perron_top_is_one"] is dense["perron_top_is_one"]
    for name in FIELDS:
        if dense[name] is None:
            assert iterative[name] is None, name
        else:
            assert abs(iterative[name] - dense[name]) <= 1e-9, name


@pytest.mark.parametrize("seed", [1, 4])
def test_ham_commands_above_the_cap_match_the_default_cap(tmp_path, monkeypatch, seed):
    # 1 + H/N has a nonnegative diagonal, so ham check needs the lowest eigenvalue too
    H = random_instance(5, seed=seed, include_y=True)
    shifted = LocalHamiltonian.from_signed(5, [(1.0, {})]) + H.scaled(1.0 / H.N)
    for i, ham in enumerate((H, shifted)):
        path = tmp_path / f"h{i}.json"
        save_hamiltonian(ham, str(path))
        calls = counted_arpack(monkeypatch)
        reports = [run_report(tmp_path, ["ham", "spectrum", str(path), "--dense-cap", cap]) for cap in CAPS]
        assert calls == [2, 2]
        iterative, dense = (report["spectral_report"] for report in reports)
        assert (iterative["method"], dense["method"]) == ("iterative", "dense")
        assert iterative["eigenvalues"] is None
        assert_reports_agree(iterative, dense)
        calls.clear()
        checks = [run_report(tmp_path, ["ham", "check", str(path), "--dense-cap", cap]) for cap in CAPS]
        assert calls == ([1] if ham is shifted else [])
        assert checks[0] == checks[1]
    assert checks[0]["flags"]["psd"]


def test_spectral_report_above_the_cap_on_a_doubly_stochastic_image(monkeypatch):
    M = stochastize(random_instance(3, locality=2, seed=4)).realize()
    flags = classify(M)
    assert flags.symmetric and flags.doubly_stochastic
    calls = counted_arpack(monkeypatch)
    iterative, dense = spectral_report(M, dense_cap=8), spectral_report(M)
    assert calls == [2, 2] and iterative.method == "iterative"
    assert iterative.perron_top_is_one and dense.perron_top_is_one
    assert_reports_agree(report_fields(iterative), report_fields(dense))


@pytest.mark.parametrize("shift, psd", [(1.0, True), (0.5, False)])
def test_classify_above_the_cap_matches_the_dense_flags(monkeypatch, shift, psd):
    # shift + X0 on 3 qubits: the diagonal is shift > 0 and the lowest eigenvalue shift - 1
    M = build_matrix(LocalHamiltonian.from_signed(3, [(shift, {}), (1.0, {0: "X"})]))
    calls = counted_arpack(monkeypatch)
    iterative = classify(M, dense_cap=4)
    assert calls == [1]
    assert iterative == classify(M) and iterative.psd is psd


def test_ham_check_above_the_cap_reports_the_best_residual(tmp_path, capsys, monkeypatch):
    H = LocalHamiltonian.from_signed(3, [(1.0, {}), (1.0, {0: "X"})])
    path = tmp_path / "h.json"
    save_hamiltonian(H, str(path))
    A = build_matrix(H)
    vals, vecs = np.linalg.eigh(A.toarray())
    part_vals, part_vecs = vals[:1] + 1e-3, vecs[:, :1]  # one eigenpair, slightly off
    best = float(np.linalg.norm(A @ part_vecs[:, 0] - part_vals[0] * part_vecs[:, 0]))

    def stalled(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", part_vals, part_vecs)

    monkeypatch.setattr(spla, "eigsh", stalled)
    argv = ["ham", "check", str(path), "--dense-cap", "4", "--out", str(tmp_path / "r.json")]
    assert run_command(argv) == 2
    assert f"eigsh failed to converge for k=1, which='lowest' (best residual {best:.3e})" in capsys.readouterr().err


def test_spectral_report_names_the_general_solver():
    # column-stochastic, not symmetric: eig_dense runs np.linalg.eig
    rng = np.random.default_rng(3)
    M = rng.random((6, 6))
    M /= M.sum(axis=0)
    report = spectral_report(sp.csr_matrix(M))
    assert report.flags.column_stochastic and not report.flags.symmetric
    assert report.method == "dense_general"
    assert abs(report.top_eigenvalue - 1.0) <= 1e-12


def test_small_register_above_the_cap_is_refused(tmp_path, capsys):
    """With k >= dim - 1, eig_extremal solves densely, so it honours the caller's cap: above the cap,
    a register of dim <= 3 has no iterative answer, and Z + 1/2 (dim 2) exits 2 at --dense-cap 1."""
    H = LocalHamiltonian.from_signed(1, [(1.0, {0: "Z"}), (0.5, {})])
    with pytest.raises(ResourceError, match="dimension 2 exceeds the dense cap 1"):
        eig_extremal(build_matrix(H), k=1, dense_cap=1)
    assert eig_extremal(build_matrix(H), k=1).eigenvalues.tolist() == [-0.5]
    path = tmp_path / "z.json"
    save_hamiltonian(H, str(path))
    assert run_command(["ham", "spectrum", str(path), "--dense-cap", "1", "--out", str(tmp_path / "r.json")]) == 2
    assert "error: dimension 2 exceeds the dense cap 1" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()
    assert run_report(tmp_path, ["ham", "spectrum", str(path)])["spectral_report"]["method"] == "dense"
