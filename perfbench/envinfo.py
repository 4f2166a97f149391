"""Environment record written with every benchmark run."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path


def _git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(root: Path) -> str:
    """Digest of the program sources, identifying the code when there is no git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas(config: dict) -> str:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def record(root: Path, blas_threads: int) -> dict:
    import numpy as np
    import scipy

    return {
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
    }
