"""One BLAS thread for the duration of a call.

A Kerr solve gains nothing from BLAS threads: its sparse LU, gap
eigensolve and Husimi products run faster on one, and near the transition the LU
result moves in its last digits with the thread count.  ``one_blas_thread``
sets every OpenBLAS copy the process has loaded (numpy's and scipy's wheels
each bundle their own) to one thread while the call runs, then gives each
copy back the count it had.  The copies are found through /proc/self/maps
at each call, never at import, so a copy loaded after the first call is
pinned too; where none is loaded the call runs unchanged.  The count is
process-wide: the package calls its pinned functions from one thread per
process, and callers that run them from several threads at once may see
each other's setting.
"""

from __future__ import annotations

import ctypes
import functools

# (getter, setter) pairs: the scipy-openblas wheels with 64- and 32-bit
# integers, then a plain OpenBLAS build.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _libraries() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS copy loaded now.

    The maps are read on every call, since a copy can be loaded after the
    first pinned call: the Gaussian models import numpy alone, and scipy
    loads its copy when a Kerr module is first imported.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # the path is the sixth field and may itself hold spaces
            paths = sorted({
                line.split(maxsplit=5)[5].rstrip("\n")
                for line in fh if "openblas" in line.lower()
            })
    except OSError:
        return ()
    return tuple(filter(None, map(_thread_functions, paths)))


@functools.cache
def _thread_functions(path: str):
    """(get, set) of the OpenBLAS at ``path``, or None if it has neither."""
    lib = ctypes.CDLL(path)
    for get_name, set_name in _SYMBOLS:
        get = getattr(lib, get_name, None)
        set_ = getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def one_blas_thread(fn):
    """Run ``fn`` with every loaded OpenBLAS on one thread, then restore
    each copy's previous thread count, also when ``fn`` raises."""

    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        libs = _libraries()
        saved = [get() for get, _ in libs]
        for _, set_ in libs:
            set_(1)
        try:
            return fn(*args, **kwargs)
        finally:
            for (_, set_), count in zip(libs, saved):
                set_(count)

    return pinned
