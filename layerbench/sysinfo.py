"""Environment pinning, provenance and memory measurement."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from typing import Dict, Iterable, Optional

#: environment switches that change the program being measured; each is
#: read when ``repro`` is imported, so they are removed before that
PINNED_ENV = (
    "REPRO_OBS",
    "REPRO_FREEZE",
    "REPRO_TSAN",
    "REPRO_LEAKTRACK",
    "REPRO_JOBS",
    "REPRO_CHECK_INVARIANTS",
)


def pin_environment(environ: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Unset every :data:`PINNED_ENV` variable; return what was set."""
    env = os.environ if environ is None else environ
    return {name: env.pop(name) for name in PINNED_ENV if name in env}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def git_commit(root: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root: str) -> str:
    """sha256 over ``src/**/*.py`` — identifies the code when git is absent."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def environment(root: str, seed: int, unset: Dict[str, str]) -> Dict[str, object]:
    import numpy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
        "unset_env": unset,
    }


def pss_mb(pids: Iterable[int]) -> float:
    """Proportional set size summed over ``pids``, in MiB.

    Pages shared between the processes (the shard tier's shared-memory
    segments) are split between their mappers, so they count once.
    """
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0
