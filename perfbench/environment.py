"""Print the environment a benchmark run measured in, as one JSON object.

usage: python3 perfbench/environment.py

Reads the BLAS thread count of every OpenBLAS library that numpy and scipy
loaded, through the library's own getter; it never sets it.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import re
import sys

_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads")
_CONFIGS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
            "openblas_get_config64_", "openblas_get_config")


def _symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def blas_libraries() -> list:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({
            line.split()[-1] for line in fh if re.search(r"openblas|mkl|blis", line, re.I)
        })
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        config = _symbol(lib, _CONFIGS, ctypes.c_char_p)
        out.append({
            "library": os.path.basename(path),
            "config": config.decode() if config else None,
            "threads": _symbol(lib, _GETTERS, ctypes.c_int),
        })
    return out


def main() -> int:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)
    import scipy.sparse.linalg  # noqa: F401
    import wehrlflux

    record = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "wehrlflux": wehrlflux.__file__,
        "blas": blas_libraries(),
        "blas_env": {
            k: v for k, v in sorted(os.environ.items())
            if re.match(r"(OPENBLAS|OMP|MKL|GOTO|BLIS|VECLIB)_", k)
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
