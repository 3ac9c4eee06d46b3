"""Closed-form integral bounds and the matrix-square jacobian.

The central object is the integral over positive definite T of

    |T|^(nu - (p+1)/2) / |I + sqrt(2) T^(1/2) M|^alpha

for a symmetric positive definite p x p matrix M. Substituting T = X^2
(whose jacobian is 2^p |X| prod_{i<j}(l_i + l_j)) and conjugating by
(2 M^2)^(-1/4) turns it into a zonal polynomial series with
partition-shifted gamma weights; at p = 1 the series collapses to a Beta
function. The series value feeds the factored upper bound on joint
inverse-minor moments.
"""

from __future__ import annotations

from math import exp, lgamma, log, sqrt

import numpy as np

from .errors import DivergentIntegral, NotPositiveDefinite
from .linalg import as_symmetric, sym_eigenvalues
from .special import (
    log_mvgamma,
    log_partition_gamma_lower,
    log_partition_gamma_upper,
    zonal_expansion_coefficients,
    zonal_polynomial,
)

__all__ = [
    "integral_window",
    "minor_bound_integral",
    "log_minor_bound_integral",
    "bound_integral_beta_1d",
    "integral_quadrature_1d",
    "matrix_square_jacobian",
    "lyapunov_operator_determinant",
]

_LOG_2 = log(2.0)


def integral_window(p: int, alpha: float) -> tuple[float, float, str]:
    """Allowed exponent window (lo, hi) for the bound integral, and the rule used.

    For p = 1 the window (0, alpha/2) is exact (the integral is a Beta
    function). For p >= 2 the conservative window
    ((p-1)/2, alpha/2 - p(p+1)/4) is enforced; it keeps every gamma
    argument of the series positive with margin.
    """
    p = int(p)
    if p == 1:
        return 0.0, alpha / 2.0, "exact"
    return (p - 1) / 2.0, alpha / 2.0 - p * (p + 1) / 4.0, "conservative"


def log_minor_bound_integral(M, alpha: float, nu: float) -> float:
    """Log of the bound integral for symmetric PD M (zonal series, all p).

    The series runs over the partitions of p(p-1)/2 in at most p parts:

        2^p |2M^2|^(-nu + (p-1)/4) * sum_kappa a_kappa
            * Gamma_p(2nu - (p-1)/2, kappa) * Gamma_p(alpha - 2nu + (p-1)/2, -kappa)
            / Gamma_p(alpha) * C_kappa(M^-1 / sqrt(2))

    where a_kappa expands prod_{i<j}(x_i + x_j) in zonal polynomials.
    Gamma ratios are combined in log space per term so the value survives
    large alpha.
    """
    M = as_symmetric(M)
    p = M.shape[0]
    lam = sym_eigenvalues(M)
    if lam[-1] <= 0.0:
        raise NotPositiveDefinite("bound integral needs a positive definite M")
    lo, hi, rule = integral_window(p, alpha)
    if not lo < nu < hi:
        raise DivergentIntegral(
            f"nu={nu} outside the {rule} convergence window ({lo}, {hi}) for p={p}, alpha={alpha}"
        )
    logdet_m = float(np.sum(np.log(lam)))
    # |2 M^2| = 2^p |M|^2
    log_front = p * _LOG_2 + (-nu + (p - 1) / 4.0) * (p * _LOG_2 + 2.0 * logdet_m)
    a_up = 2.0 * nu - (p - 1) / 2.0
    b_down = alpha - 2.0 * nu + (p - 1) / 2.0
    lg_alpha = log_mvgamma(p, alpha)
    inv_spectrum = 1.0 / (sqrt(2.0) * lam)
    total = 0.0
    for kappa, a_k in zonal_expansion_coefficients(p).items():
        if a_k == 0.0:
            continue
        lg = (
            log_partition_gamma_upper(p, a_up, kappa)
            + log_partition_gamma_lower(p, b_down, kappa)
            - lg_alpha
        )
        total += a_k * exp(lg) * zonal_polynomial(kappa, inv_spectrum)
    if not total > 0.0:
        raise ArithmeticError(f"bound integral series summed to {total}; expected positive")
    return log_front + log(total)


def minor_bound_integral(M, alpha: float, nu: float) -> float:
    """Bound integral on the linear scale; see log_minor_bound_integral."""
    return exp(log_minor_bound_integral(M, alpha, nu))


def bound_integral_beta_1d(m: float, alpha: float, nu: float) -> float:
    """Scalar closed form 2^(1-nu) m^(-2 nu) B(2 nu, alpha - 2 nu)."""
    if m <= 0.0:
        raise NotPositiveDefinite(f"scale m must be positive, got {m}")
    if not 0.0 < nu < alpha / 2.0:
        raise DivergentIntegral(f"nu={nu} outside (0, {alpha / 2.0})")
    a, b = 2.0 * nu, alpha - 2.0 * nu
    return exp((1.0 - nu) * _LOG_2 - 2.0 * nu * log(m) + lgamma(a) + lgamma(b) - lgamma(a + b))


def integral_quadrature_1d(m: float, alpha: float, nu: float) -> float:
    """Numerical oracle: integral over t > 0 of t^(nu-1) (1 + sqrt(2) m sqrt(t))^(-alpha).

    Substitutes t = u^2 to tame the endpoint and integrates adaptively;
    accurate to well under 1e-8 relative inside the convergence window.
    It is the package's only use of scipy, which is therefore imported
    here rather than with the package.
    """
    from scipy.integrate import quad

    if m <= 0.0:
        raise NotPositiveDefinite(f"scale m must be positive, got {m}")
    if not 0.0 < nu < alpha / 2.0:
        raise DivergentIntegral(f"nu={nu} outside (0, {alpha / 2.0})")
    c = sqrt(2.0) * m

    def f(u):
        return 2.0 * u ** (2.0 * nu - 1.0) * (1.0 + c * u) ** (-alpha)

    cut = 1.0 / c  # scale where the denominator turns over
    head, _ = quad(f, 0.0, cut, epsabs=0.0, epsrel=1e-11, limit=300)
    tail, _ = quad(f, cut, np.inf, epsabs=0.0, epsrel=1e-11, limit=300)
    return head + tail


def matrix_square_jacobian(X) -> float:
    """Jacobian determinant of T = X^2 on symmetric PD matrices.

    Equals 2^p |X| prod_{i<j} (l_i + l_j) over the eigenvalues l of X.
    """
    lam = sym_eigenvalues(X)
    if lam[-1] <= 0.0:
        raise NotPositiveDefinite("jacobian formula requires positive definite X")
    p = len(lam)
    iu, ju = np.triu_indices(p, k=1)
    return float(2.0**p * np.prod(lam) * np.prod(lam[iu] + lam[ju]))


def lyapunov_operator_determinant(X) -> float:
    """Determinant of H -> XH + HX on the p(p+1)/2-dimensional symmetric space.

    Independent route to matrix_square_jacobian (the derivative of X^2 is
    exactly this operator): build the operator matrix in the elementary
    symmetric basis and take its determinant.
    """
    X = as_symmetric(X)
    p = X.shape[0]
    pairs = [(i, j) for i in range(p) for j in range(i, p)]
    op = np.empty((len(pairs), len(pairs)))
    for col, (i, j) in enumerate(pairs):
        H = np.zeros((p, p))
        H[i, j] = H[j, i] = 1.0
        Y = X @ H + H @ X
        op[:, col] = [Y[a, b] for a, b in pairs]
    return float(np.linalg.det(op))
