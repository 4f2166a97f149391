"""Closed-loop benchmark of stoqmap verification jobs.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload clock-adiabatic --seed 1 --seconds 30 --trace 0

One client in one process runs seeded jobs back to back (a closed loop)
for --seconds, checks every job's output against references computed at
set-up, and prints the end-to-end metrics (--trace 0) or, from a
separate traced run, the per-layer metrics (--trace 1). Times are
corrected for the host's speed state as speed.py describes; raw times
are printed alongside. The last line of standard output is the JSON
result; the environment and the per-job and span records also go to
.bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import Stopwatch

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# BLAS threads are pinned before numpy loads; one thread keeps runs steady
# on a shared machine and stays within nproc everywhere.
BLAS_THREADS = 1
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
MIN_JOBS = 20  # the tail percentile needs at least ten jobs beyond it
MIN_TRACED_JOBS = 10  # half of them traced
TAIL_BEYOND = 10

UNITS = {"jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB", "failed_ratio": "ratio"}
REPORTED = ("jobs_per_s", "job_p50_s", "job_tail_s", "setup_s", "peak_rss_mb")


def _pin_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_program():
    """Import stoqmap from this checkout's src/ only, never from elsewhere."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import stoqmap

    if Path(stoqmap.__file__).resolve().parent != (src / "stoqmap").resolve():
        raise SystemExit(f"error: imported stoqmap from {stoqmap.__file__}, not {src}")
    import workloads

    return workloads


def _setup(name: str, seed: int, scratch: Path):
    """Import, input generation and one warm-up job, timed; references off the clock.

    Returns the workload, the warm-up job's result and the set-up time as
    (raw seconds, corrected seconds).
    """
    sw = Stopwatch()
    workloads = sw.time(_import_program)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    (workdir / "out").mkdir()
    w = sw.time(workloads.WORKLOADS[name], workdir, seed)
    w.reference()
    sw.pause()
    warm = w.job(sw)
    return w, warm, sw.totals()


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND jobs beyond it, and that percentile."""
    xs = sorted(latencies)
    k = len(xs) - 1 - TAIL_BEYOND
    if k < 0:  # too few jobs for the rule; fall back to the maximum
        return xs[-1], 100.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def measure(w, seconds: float, min_jobs: int, tracer=None) -> dict:
    """Closed loop: run jobs back to back, check each one, collect latencies.

    With a tracer, every second job runs traced, so traced and untraced
    jobs interleave and share whatever the host was doing meanwhile.
    """
    jobs, failures, bytes_written = [], [], []
    sw = Stopwatch()
    deadline = time.perf_counter() + seconds
    hard_stop = time.perf_counter() + max(3 * seconds, 60.0)
    while (time.perf_counter() < deadline or len(jobs) < min_jobs) and (
            not jobs or time.perf_counter() < hard_stop):
        job = len(jobs) + 1
        tracing = tracer is not None and job % 2 == 0
        first = len(sw.steps)
        with tracer if tracing else contextlib.nullcontext():
            if tracing:
                tracer.begin_job(job)
            try:
                result, error = w.job(sw), None
            except Exception as exc:  # a job that raises is a failed job, not a crash
                result, error = None, f"{type(exc).__name__}: {exc}"
            raw, corrected = sw.totals(first)
            if tracing:
                tracer.end_job(raw, corrected)
        jobs.append({"job": job, "raw_s": raw, "s": corrected, "traced": tracing})
        problems = [error] if error else list(w.check(result))
        if problems:
            failures.append(f"job {job}: {problems[:3]}")
        else:
            bytes_written.append(float(sum(os.path.getsize(p) for p in result.outputs.values())))
        sw.pause()
    return {"jobs": jobs, "failures": failures, "bytes_written": bytes_written}


def end_to_end(loop: dict, setups: list[tuple[float, float]]) -> dict:
    import resource

    lat = [j["s"] for j in loop["jobs"]]
    raw = [j["raw_s"] for j in loop["jobs"]]
    ok = len(lat) - len(loop["failures"])
    tail, pct = _tail(lat)
    metrics = {
        "jobs_per_s": ok / sum(lat),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail,
        "setup_s": statistics.median(s for _, s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_ratio": len(loop["failures"]) / len(lat),
    }
    notes = {
        "jobs_per_s": f"raw {ok / sum(raw):.4g}",
        "job_p50_s": f"median of {len(lat)} jobs, raw {statistics.median(raw):.4g}",
        "job_tail_s": f"p{pct:.1f} of {len(lat)} jobs, raw {_tail(raw)[0]:.4g}",
        "setup_s": f"median of {len(setups)} set-ups, raw "
                   f"{statistics.median(r for r, _ in setups):.4g}",
    }
    for key, value in metrics.items():
        print(f"  {key:<13} {value:<22.6g} {UNITS[key]:<6} {notes.get(key, '')}")
    return metrics


def _probe_setups(args) -> list[tuple[float, float]]:
    """Set-up times of fresh interpreters, each waited for before the next starts."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
        out.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time one set-up and print it (used for the setup_s samples)")
    args = ap.parse_args(argv)
    _pin_threads()
    if not (ROOT / "src" / "stoqmap" / "__init__.py").is_file():
        raise SystemExit(f"error: no stoqmap sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        w, warm, setup = _setup(args.workload, args.seed, scratch)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup}))
            return 0
        return _bench(args, w, warm, setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _bench(args, w, warm, setup: tuple[float, float]) -> int:
    import envinfo
    import tracer as tracing

    env = envinfo.record(ROOT, BLAS_THREADS)
    print("env " + json.dumps(env, sort_keys=True))
    warm_problems = list(w.check(warm))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: closed loop, 1 client")
    if args.trace == 0:
        setups = [setup] + _probe_setups(args)
        loop = measure(w, args.seconds, MIN_JOBS)
        metrics = end_to_end(loop, setups)
        reported = {k: {"value": metrics[k], "unit": UNITS[k]} for k in REPORTED}
        spans = []
    else:
        tr = tracing.Tracer()
        loop = measure(w, args.seconds, MIN_TRACED_JOBS, tracer=tr)
        p50 = {flag: statistics.median(j["s"] for j in loop["jobs"] if j["traced"] == flag)
               for flag in (False, True)}
        layers = tracing.summarize(tr.per_job(), loop["bytes_written"] or [0.0],
                                   p50[True] / p50[False])
        for key, value in layers.items():
            print(f"  {key:<38} {value:.6g}")
        reported = {k: {"value": v, "unit": tracing.unit(k)} for k, v in layers.items()}
        spans = tr.dump()
    for line in warm_problems + loop["failures"]:
        print(f"  FAILED {line}")
    result = {
        "correct": not warm_problems and not loop["failures"],
        "attempted": len(loop["jobs"]),
        "failed": len(loop["failures"]),
        "metrics": reported,
    }
    dump = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    dump.write_text(json.dumps({"env": env, "result": result, "setup": setup,
                                "jobs": loop["jobs"], "spans": spans}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
