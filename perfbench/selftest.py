"""Self-test of the benchmark's checks: a wrong reference must fail jobs.

    python3 perfbench/selftest.py

For every workload, two jobs checked against the true references must
pass (failed_ratio 0) and two jobs checked against references shifted
by 1e-3 must fail (failed_ratio 1). Exits 0 when both hold everywhere.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run


def _shift(value):
    """The same reference with every float moved by 1e-3."""
    if isinstance(value, dict):
        return {k: _shift(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_shift(v) for v in value)
    if isinstance(value, float) or hasattr(value, "dtype"):
        return value + 1e-3
    return value


def main() -> int:
    run._pin_threads()
    run.OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    ok = True
    try:
        for name in run._import_program().WORKLOADS:
            w, _, _ = run._setup(name, 1, scratch)
            good = run.measure(w, 0.0, 2)
            w.ref = _shift(w.ref)
            bad = run.measure(w, 0.0, 2)
            ratios = [len(x["failures"]) / len(x["jobs"]) for x in (good, bad)]
            passed = ratios == [0.0, 1.0]
            ok &= passed
            print(f"{name}: failed_ratio {ratios[0]} with true references, "
                  f"{ratios[1]} with shifted ones -> {'ok' if passed else 'WRONG'}")
            if bad["failures"]:
                print(f"  e.g. {bad['failures'][0]}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
