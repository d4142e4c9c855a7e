import logging
import os

import numpy as np
import pytest

from wehrlflux.budget import KerrParams
from wehrlflux.fock_algebra import DensityMatrix
from wehrlflux.kerr_state import recommended_cutoff
from wehrlflux.liouvillian import build_kerr_liouvillian, steady_state

FIG2 = dict(delta=-2.0, u=1.0, kappa=0.5)
# criterion 4's drives at N=10, across the transition
BALANCE_DRIVES = [0.86, 0.88, 0.90, 0.92, 0.94, 0.95, 0.96, 0.98, 1.00, 1.05]


def kerr_params(eps, N, **overrides):
    base = dict(FIG2)
    base.update(overrides)
    return KerrParams(base["delta"], base["u"], base["kappa"], eps, N)


@pytest.fixture(autouse=True)
def blas_environment_restored():
    """``cli.main`` sets OPENBLAS_NUM_THREADS for its process when unset;
    a test calling it in-process gets the caller's value back afterwards,
    so later subprocesses start with the environment the suite began with."""
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    yield
    if saved is None:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = saved


@pytest.fixture(autouse=True)
def no_unexpected_log_warning(request):
    """Fail a test in which a ``wehrlflux`` logger emits WARNING or above,
    unless it is marked ``logs_warning``.  ``filterwarnings = error`` turns
    Python warnings into errors, but log records pass it by."""
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("wehrlflux")
    logger.addHandler(handler)
    yield
    logger.removeHandler(handler)
    if records and request.node.get_closest_marker("logs_warning") is None:
        pytest.fail(
            "unexpected log warning: "
            + "; ".join(f"{r.name}: {r.getMessage()}" for r in records),
            pytrace=False,
        )


@pytest.fixture(scope="session")
def ness_cache():
    """Session cache of Kerr steady states keyed by (delta, u, kappa, eps, N).

    Only rho is kept; each call returns it with a freshly built generator,
    so the LU a generator factors for its solves never outlives the test.
    """
    cache = {}

    def get(p: KerrParams, n_max=None):
        n = recommended_cutoff(p) if n_max is None else n_max
        L = build_kerr_liouvillian(p, n, enforce_cutoff=n_max is None)
        key = (p.delta, p.u, p.kappa, p.eps, p.N, n_max)
        if key not in cache:
            cache[key] = steady_state(L)
        return cache[key], L

    return get


def random_density_matrix(dim: int, rng) -> DensityMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(dim, rho)
