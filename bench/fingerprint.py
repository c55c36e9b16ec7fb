"""Machine fingerprint and the load-average noise guard.

Every record says what it ran on, so two records are only compared as
like with like — the previous performance file moved 1.5-1.9x between
runners with no code change and nothing in it said so.
"""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Any, Dict

#: Thread-pool pins exported before numpy loads (one compute thread, so
#: a run's wall-clock does not depend on how many cores BLAS finds).
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cores() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


def loadavg() -> float:
    """1-minute load average."""
    return os.getloadavg()[0]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git(*args: str) -> str:
    try:
        done = subprocess.run(
            ("git", *args),
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def fingerprint() -> Dict[str, Any]:
    """Where and on what commit this record was measured."""
    import numpy

    sha = _git("rev-parse", "HEAD")
    return {
        "cores": cores(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # Outside a git checkout (the benchmark driver's copy) both are unknown.
        "git_sha": sha or "unknown",
        "git_dirty": bool(_git("status", "--porcelain")) if sha else None,
        "thread_pins": {key: os.environ.get(key) for key in THREAD_PINS},
    }
