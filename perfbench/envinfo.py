"""The environment a result was measured in, recorded with every result."""

import ctypes
import glob
import os
import platform

import numpy as np

# Residual bits depend on these, so a reference recorded under one
# fingerprint is compared bit for bit only under the same fingerprint.
FINGERPRINT_KEYS = ("numpy", "blas", "blas_version", "blas_core", "blas_threads")


def _openblas_runtime():
    """(threads, core name) from the OpenBLAS that numpy loaded, or Nones."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                core = getattr(lib, f"{prefix}get_corename{suffix}", None)
                if threads is not None and core is not None:
                    threads.restype = ctypes.c_int
                    threads.argtypes = []
                    core.restype = ctypes.c_char_p
                    core.argtypes = []
                    return int(threads()), core().decode()
    return None, None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _source_lines(src: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(src, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def environment(src: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, core = _openblas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": core,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "src_loc": _source_lines(src),
    }


def fingerprint(env: dict) -> dict:
    return {key: env[key] for key in FINGERPRINT_KEYS}
