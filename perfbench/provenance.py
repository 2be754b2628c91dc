"""Where and on what a result was measured."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def blas() -> dict:
    """numpy's BLAS library and the thread count it runs with."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"),
           "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS") if k in os.environ}}
    # numpy's bundled OpenBLAS exports its thread query under a prefixed name
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return out
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def git(root: Path) -> dict:
    """HEAD and dirty flag; both None outside a git work tree (no search upward)."""
    if not (root / ".git").exists():
        return {"revision": None, "dirty": None}

    def run(*argv):
        return subprocess.run(["git", *argv], cwd=root, capture_output=True, text=True,
                              check=True).stdout

    try:
        return {"revision": run("rev-parse", "HEAD").strip(),
                "dirty": bool(run("status", "--porcelain", "--untracked-files=no").strip())}
    except (OSError, subprocess.CalledProcessError):
        return {"revision": None, "dirty": None}


def src_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))


def collect(root: Path, src: Path) -> dict:
    import scipy

    return dict(
        nproc=len(os.sched_getaffinity(0)),
        cpu_model=cpu_model(),
        python=platform.python_version(),
        numpy=np.__version__,
        scipy=scipy.__version__,
        blas=blas(),
        git=git(root),
        src_lines=src_lines(src),
    )
