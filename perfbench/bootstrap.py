"""Process preparation shared by the benchmark entry points.

Must be imported before numpy: it pins the BLAS thread pools to one
thread and puts the checkout's own ``src/`` first on ``sys.path``, so the
benchmark always measures the source tree it was started from.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS to one thread and import ``stabsparse`` from ``ROOT/src``.

    Exits with status 2 when the checkout holds no ``src/stabsparse``.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "stabsparse" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no stabsparse package under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import stabsparse

    if Path(stabsparse.__file__).resolve().parent != SRC / "stabsparse":
        sys.stderr.write(f"perfbench: imported stabsparse from {stabsparse.__file__}\n")
        raise SystemExit(2)
