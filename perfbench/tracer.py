"""Span tracing of stoqmap's modules from outside the package.

The tracer wraps the public functions of each package module, a few
methods, and numpy's dense eigensolvers, at every place they are looked
up (each module namespace that holds the function object), so calls
between modules and lambdas resolving names at call time are traced
too. Spans are kept in memory and summarized into per-layer metrics
per job; nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

LAYERS = ("cli", "io", "pauli", "mapping", "clock", "classify", "spectra", "adiabatic", "protocols")
# Called once per matrix entry or basis index; a span there would only measure the tracer.
_SKIP = {"io.complex_to_json", "io.json_to_complex", "pauli.bit_of", "clock.clock_state_index",
         "mapping.sector_vector_z4"}
# Methods traced as spans, by (module, class, method) -> span name.
_METHODS = {
    ("clock", "FFHamiltonian", "realize"): "clock.realize",
    ("mapping", "MappedHamiltonian", "realize"): "mapping.realize",
    ("mapping", "MappedHamiltonian", "sector_operator"): "mapping.sector_operator",
    ("protocols", "ExcitedEnergyProblem", "lambda_c"): "protocols.lambda_c",
}
_LINALG = ("eigh", "eigvalsh", "eig", "eigvals")
_IO_LOAD = ("io.load_hamiltonian", "io.load_circuit", "io.load_sat_instance")
_REBUILD = ("clock.build_ff", "clock.realize")
_MAP = ("mapping.stoquastize", "mapping.stochastize", "mapping.stochastize_complex")


@dataclass
class Span:
    name: str
    parent: int | None
    job: int
    start: float = 0.0
    end: float = 0.0
    child: float = 0.0  # time covered by child spans and tracer bookkeeping
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child


def _fingerprint(a) -> str:
    """Identity of a matrix's contents, to count repeated diagonalizations."""
    arr = np.ascontiguousarray(a)
    digest = hashlib.blake2b(arr.view(np.uint8).ravel(), digest_size=16).hexdigest()
    return f"{digest}{arr.dtype.str}{arr.shape}"


class Tracer:
    """Context manager: installs wrappers on enter, restores originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job: int | None = None
        self.job_wall: dict[int, float] = {}
        self.job_slowdown: dict[int, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- jobs
    def begin_job(self, job: int) -> None:
        self.job = job
        self.stack.clear()

    def end_job(self, raw_s: float, corrected_s: float) -> None:
        """Close the job; its slowdown (raw over corrected) scales its span times."""
        self.job_wall[self.job] = raw_s
        self.job_slowdown[self.job] = raw_s / corrected_s if corrected_s > 0 else 1.0
        self.job = None

    # ------------------------------------------------------------- wrapping
    def _wrap(self, name: str, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            span = Span(name, tracer.stack[-1] if tracer.stack else None, tracer.job)
            tracer.spans.append(span)
            tracer.stack.append(len(tracer.spans) - 1)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer.stack.pop()
                parent = tracer.spans[span.parent] if span.parent is not None else None
                if parent is not None:
                    parent.child += span.dur
                if note is not None:
                    t0 = perf_counter()
                    note(span, args, kwargs)
                    if parent is not None:
                        parent.child += perf_counter() - t0

        return traced

    def _replace_everywhere(self, original, wrapped) -> None:
        """Rebind every module-level name that refers to `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "stoqmap" or mod_name.startswith("stoqmap.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def __enter__(self) -> "Tracer":
        for layer in LAYERS:
            mod = importlib.import_module(f"stoqmap.{layer}")
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in _SKIP or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                note = _note_load if name in _IO_LOAD else None
                self._replace_everywhere(fn, self._wrap(name, fn, note))
        for (layer, cls_name, meth), name in _METHODS.items():
            cls = getattr(importlib.import_module(f"stoqmap.{layer}"), cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original))
        for attr in _LINALG:
            original = getattr(np.linalg, attr)
            self._patches.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self._wrap(f"linalg.{attr}", original, _note_diag))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -------------------------------------------------------------- summary
    def per_job(self) -> dict[int, dict[str, float]]:
        """Per-layer metrics for every traced job, times speed-corrected."""
        jobs: dict[int, list[Span]] = {}
        for sp in self.spans:
            jobs.setdefault(sp.job, []).append(sp)
        out = {}
        for job, spans in jobs.items():
            m = _job_metrics(spans, self.spans, self.job_wall[job])
            out[job] = {k: v / self.job_slowdown[job] if k.endswith("_s") else v for k, v in m.items()}
        return out

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "job": s.job, **s.info} for s in self.spans]


def _note_load(span: Span, args, kwargs) -> None:
    path = args[0] if args else kwargs.get("path")
    span.info["bytes"] = os.path.getsize(path)


def _note_diag(span: Span, args, kwargs) -> None:
    a = args[0] if args else kwargs.get("a")
    span.info["dim"] = int(np.shape(a)[0])
    span.info["input"] = _fingerprint(a)


def _job_metrics(spans: list[Span], all_spans: list[Span], wall_s: float) -> dict[str, float]:
    def count(*names):
        return float(sum(1 for s in spans if s.name in names))

    def self_of(pred):
        return float(sum(s.self_s for s in spans if pred(s.name)))

    def named(*names):
        return lambda n: n in names

    def layer(prefix):
        return lambda n: n.startswith(prefix + ".")

    io_load = lambda n: n in _IO_LOAD or n.endswith("_from_data") or n == "io.json_to_matrix"
    diags = [s for s in spans if s.name.startswith("linalg.")]
    rebuilds = [s for s in spans
                if s.name in _REBUILD and s.parent is not None
                and all_spans[s.parent].name == "adiabatic.evolve"]
    top = sum(s.dur for s in spans if s.parent is None)
    return {
        "cli.run_command.calls": count("cli.run_command"),
        "cli.self_s": self_of(layer("cli")),
        "io.load.self_s": self_of(io_load),
        "io.write.self_s": self_of(lambda n: n.startswith("io.") and not io_load(n)),
        "io.bytes_read": float(sum(s.info.get("bytes", 0) for s in spans)),
        "pauli.build_matrix.calls": count("pauli.build_matrix"),
        "pauli.build_matrix.self_s": self_of(named("pauli.build_matrix")),
        "pauli.realize_string.calls": count("pauli.realize_string"),
        "pauli.embed.calls": count("pauli.embed"),
        "pauli.embed.self_s": self_of(named("pauli.embed")),
        "pauli.pauli_decompose.self_s": self_of(named("pauli.pauli_decompose")),
        "mapping.map.calls": count(*_MAP),
        "mapping.map.self_s": self_of(named(*_MAP)),
        "mapping.realize.calls": count("mapping.realize"),
        "mapping.realize.self_s": self_of(named("mapping.realize")),
        "mapping.sector_operator.self_s": self_of(named("mapping.sector_operator")),
        "mapping.stochastize_ff.self_s": self_of(named("mapping.stochastize_ff")),
        "clock.build_ff.calls": count("clock.build_ff"),
        "clock.realize.calls": count("clock.realize"),
        "clock.realize.self_s": self_of(named("clock.realize")),
        "clock.history_state.self_s": self_of(named("clock.history_state")),
        "clock.legal_basis.self_s": self_of(named("clock.legal_basis")),
        "adiabatic.evolve.self_s": self_of(named("adiabatic.evolve")),
        "adiabatic.rebuilds": float(len(rebuilds)),
        "adiabatic.rebuild_s": float(sum(s.dur for s in rebuilds)),
        "adiabatic.measure_and_decode.self_s": self_of(named("adiabatic.measure_and_decode")),
        "classify.calls": count("classify.classify"),
        "classify.self_s": self_of(layer("classify")),
        "spectra.eig_dense.calls": count("spectra.eig_dense"),
        "spectra.eig_dense.self_s": self_of(named("spectra.eig_dense")),
        "spectra.spectral_report.self_s": self_of(named("spectra.spectral_report")),
        "protocols.decide_sat.self_s": self_of(named("protocols.decide_sat")),
        "protocols.reduce_qsat.self_s": self_of(named("protocols.reduce_qsat")),
        "protocols.lambda_c.self_s": self_of(named("protocols.lambda_c")),
        "linalg.dense_diag.calls": float(len(diags)),
        "linalg.dense_diag.self_s": float(sum(s.self_s for s in diags)),
        "linalg.dense_diag.max_dim": float(max((s.info["dim"] for s in diags), default=0)),
        "linalg.dense_diag.flops_computed": float(sum(s.info["dim"] ** 3 for s in diags)),
        "_distinct_diag_inputs": float(len({s.info["input"] for s in diags})),
        "trace.coverage": top / wall_s if wall_s > 0 else 0.0,
    }


def unit(metric: str) -> str:
    """Unit of a per-layer metric; every metric is a per-job figure."""
    for suffix, u in ((".calls", "count"), ("_s", "s"), ("bytes_read", "B"), ("bytes_written", "B"),
                      (".max_dim", "dim"), (".flops_computed", "flop"), (".rebuilds", "count")):
        if metric.endswith(suffix):
            return u
    return "ratio"


def summarize(per_job: dict[int, dict[str, float]], bytes_written: list[float],
              overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics over a traced run: medians of times, means of counts."""
    rows = list(per_job.values())
    out: dict[str, float] = {}
    for key in rows[0]:
        if key.startswith("_"):
            continue
        values = [r[key] for r in rows]
        out[key] = statistics.median(values) if key.endswith("_s") else statistics.fmean(values)
    calls = sum(r["linalg.dense_diag.calls"] for r in rows)
    distinct = sum(r["_distinct_diag_inputs"] for r in rows)
    out["linalg.dense_diag.duplicate_ratio"] = calls / distinct if distinct else 1.0
    out["io.bytes_written"] = statistics.fmean(bytes_written)
    out["trace.overhead_ratio"] = overhead_ratio
    return out
