"""Where the qsim sources are, and what machine the benchmark runs on.

The benchmark runs against the sources of the checkout it sits in
(``<root>/src/qsim``), never against an installed copy, so every commit is
measured as it stands.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSources(RuntimeError):
    """The checkout has no qsim sources to benchmark."""


def use_checkout_sources() -> None:
    """Put ``<root>/src`` first on the import path, or raise MissingSources."""
    if not (SRC / "qsim" / "__init__.py").is_file():
        raise MissingSources(f"no qsim sources at {SRC / 'qsim'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qsim

    if Path(qsim.__file__).resolve().parent != (SRC / "qsim").resolve():
        raise MissingSources(f"imported qsim from {qsim.__file__}, not from {SRC}")


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(str(index / "level"))
        kind = _read(str(index / "type"))
        size = _read(str(index / "size"))
        if level in ("2", "3") and size:
            out[f"L{level}"] = f"{size} ({kind})"
    return out


def _blas_threads() -> str:
    """Thread count of the loaded OpenBLAS, asked through its own C API."""
    maps = _read("/proc/self/maps") or ""
    libs = {ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def machine_info() -> dict[str, str]:
    """nproc, CPU model, L2/L3 sizes, Python, numpy, BLAS and its threads."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    info = {
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu_model": _cpu_model(),
        **{f"cache_{k}": v for k, v in _caches().items()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
    }
    return info
