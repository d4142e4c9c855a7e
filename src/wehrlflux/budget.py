"""The entropy budget record shared by the Kerr and Gaussian pipelines,
their common rule for the size N, and the Kerr mode's parameters.

It imports nothing beyond the standard library, so a budget or a
``KerrParams`` loads neither numpy nor the generator's scipy.  Every
module takes the record from here; ``liouvillian`` re-exports the
parameters, which the benchmark's photon-number reference reads there.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


def positive_size(N) -> int:
    """N as an int: an integer >= 1, or a finite real number equal to one
    (10.0 gives 10).  Anything else, a bool included, raises ``ValueError``;
    int(True) == 1 and int(2.5) == 2, so a conversion alone would let both
    through."""
    integral = isinstance(N, numbers.Integral) or (
        isinstance(N, numbers.Real) and math.isfinite(N) and N == int(N)
    )
    if isinstance(N, bool) or not integral or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    return int(N)


@dataclass(frozen=True)
class KerrParams:
    """Parameters of the driven Kerr mode.

    delta: detuning; u > 0: nonlinearity; kappa > 0: loss rate;
    eps >= 0: intensive pump amplitude (physical pump is eps * sqrt(N));
    N >= 1: thermodynamic scale parameter.
    """

    delta: float
    u: float
    kappa: float
    eps: float
    N: int

    def __post_init__(self):
        vals = (self.delta, self.u, self.kappa, self.eps)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("Kerr parameters must be finite")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if self.u <= 0:
            raise ValueError(f"u must be > 0, got {self.u}")
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        object.__setattr__(self, "N", positive_size(self.N))

    @property
    def pump(self) -> float:
        """Extensive pump amplitude eps * sqrt(N)."""
        return self.eps * math.sqrt(self.N)


@dataclass(frozen=True)
class EntropyBudget:
    """Entropy bookkeeping of one steady state.

    All rates are in nats per unit time.  ``Pi_ext`` is by construction the
    same number as ``Phi_ext`` (mean-field production flows straight to the
    environment), so it is exposed as an alias of the stored value.  The
    optional b-channel entries carry the stabilizer-mode contributions of
    two-mode Gaussian budgets; they are None for single-mode states.
    ``dSdt`` and ``balance_rel`` are derived from the stored rates, so the
    Kerr and Gaussian budgets evaluate the balance with one formula.
    """

    S: float
    Phi_ext: float
    Phi_q: float
    Pi_u: float
    Pi_d: float
    alpha: complex
    mass: float = 1.0
    Phi_q_b: float | None = None
    Pi_d_b: float | None = None

    @property
    def Pi_ext(self) -> float:
        return self.Phi_ext

    @property
    def dSdt(self) -> float:
        """Pi_u + Pi_d - Phi_q summed over the modes, zero at a steady state."""
        phi_q = self.Phi_q + (self.Phi_q_b or 0.0)
        return self.Pi_u + self.Pi_d + (self.Pi_d_b or 0.0) - phi_q

    @property
    def balance_rel(self) -> float:
        """|dSdt| relative to the total fluctuation flux."""
        return abs(self.dSdt) / max(self.Phi_q + (self.Phi_q_b or 0.0), 1e-12)
