"""The entropy budget record shared by the Kerr and Gaussian pipelines.

It imports nothing beyond the standard library, so the Gaussian models
can build budgets without loading the Kerr layers; ``phase_space``
re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass


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
    N: int
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

    @property
    def Pi_total(self) -> float:
        extra = (self.Pi_d_b or 0.0)
        return self.Pi_ext + self.Pi_u + self.Pi_d + extra
