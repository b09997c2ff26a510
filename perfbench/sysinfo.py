"""The machine and software a result was measured on."""

from __future__ import annotations

import hashlib
import platform
from pathlib import Path

import numpy as np


CACHE_TYPES = {"Data": "d", "Instruction": "i", "Unified": ""}


def cache_sizes() -> dict:
    """CPU cache sizes of cpu0 as the kernel reports them, e.g. {"L1d": "48K"}."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / f).read_text().strip() for f in ("level", "type", "size")
            )
        except OSError:
            continue
        out[f"L{level}{CACHE_TYPES.get(kind, kind)}"] = size
    return out


def git_commit(root: Path):
    """HEAD commit read from .git without running git; None outside a clone."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ")[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """sha256 over src/zenosim/*.py, which identifies the code measured in
    a checkout that is not a git clone."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "zenosim").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def describe(root: Path, blas_threads: int, nproc: int) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "caches": cache_sizes(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
    }
