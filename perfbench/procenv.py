"""Process environment shared by the benchmark and every process it starts.

Stdlib only: the launcher imports this before anything loads numpy.
"""

from __future__ import annotations

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = "1"


def pin(environ=os.environ) -> None:
    """One BLAS/OpenMP thread, and the checkout's ``src`` first on the path.

    Takes effect for numpy only if set before numpy is first imported.
    """
    for var in THREAD_VARS:
        environ[var] = BLAS_THREADS
    rest = environ.get("PYTHONPATH")
    environ["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")


def package_present() -> bool:
    return (SRC / "oscdamp" / "__init__.py").is_file()
