"""Residuals of the Dicke mean-field fixed-point equations, the check on
``dicke_gaussian.mean_field_fixed_point``'s closed forms."""

from wehrlflux.dicke_gaussian import DickeParams, MeanFieldState


def mean_field_residuals(mf: MeanFieldState, p: DickeParams) -> tuple[float, float, float]:
    """Absolute residuals of the alpha and beta fixed-point equations
    and of the spin-length constraint w^2 + beta^2 = 1/4."""
    r_alpha = -(p.kappa + 1j * p.omega) * mf.alpha - 1j * p.lam * (
        mf.beta + mf.beta
    )
    r_beta = -1j * p.omega0 * mf.beta + 2j * p.lam * (
        mf.alpha + mf.alpha.conjugate()
    ) * mf.w
    r_w = mf.w ** 2 + mf.beta ** 2 - 0.25
    return abs(r_alpha), abs(r_beta), abs(r_w)
