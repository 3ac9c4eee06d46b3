import os
import subprocess
import sys
from math import exp, sqrt

import numpy as np
import pytest
from scipy.integrate import quad

import wishartgpi
from wishartgpi.bounds import (
    bound_integral_beta_1d,
    integral_quadrature_1d,
    integral_window,
    log_minor_bound_integral,
    lyapunov_operator_determinant,
    matrix_square_jacobian,
    minor_bound_integral,
)
from wishartgpi.errors import DivergentIntegral, NotPositiveDefinite

rng = np.random.default_rng(2024)


def random_pd(p, jitter=0.5):
    g = rng.standard_normal((p, p + 1))
    return g @ g.T + jitter * np.eye(p)


# ---------------------------------------------------------------- windows


def test_integral_window_rules():
    lo, hi, rule = integral_window(1, 5.0)
    assert (lo, hi, rule) == (0.0, 2.5, "exact")
    lo, hi, rule = integral_window(2, 9.0)
    assert (lo, hi, rule) == (0.5, 3.0, "conservative")
    lo, hi, rule = integral_window(3, 14.0)
    assert (lo, hi, rule) == (1.0, 4.0, "conservative")


def test_out_of_window_raises():
    with pytest.raises(DivergentIntegral):
        log_minor_bound_integral(np.eye(1), 4.0, 2.0)  # nu = alpha/2
    with pytest.raises(DivergentIntegral):
        log_minor_bound_integral(np.eye(2), 9.0, 0.5)  # nu at lower edge
    with pytest.raises(DivergentIntegral):
        bound_integral_beta_1d(1.0, 4.0, -0.1)
    with pytest.raises(DivergentIntegral):
        integral_quadrature_1d(1.0, 4.0, 2.0)
    with pytest.raises(NotPositiveDefinite):
        bound_integral_beta_1d(0.0, 4.0, 1.0)
    with pytest.raises(NotPositiveDefinite):
        log_minor_bound_integral(np.diag([1.0, -1.0]), 20.0, 1.0)


# ---------------------------------------------------------------- p = 1


def test_scalar_closed_form_values():
    # m=1, alpha=4, nu=1: 2^0 * B(2,2) = 1/6; m=2 rescales by m^(-2nu)
    assert bound_integral_beta_1d(1.0, 4.0, 1.0) == pytest.approx(1 / 6, rel=1e-14)
    assert bound_integral_beta_1d(2.0, 4.0, 1.0) == pytest.approx(1 / 24, rel=1e-14)


def test_scalar_m_scaling():
    for _ in range(10):
        alpha = rng.uniform(2.5, 18.0)
        nu = rng.uniform(0.05, 0.95) * alpha / 2
        m = rng.uniform(0.2, 4.0)
        base = bound_integral_beta_1d(1.0, alpha, nu)
        assert bound_integral_beta_1d(m, alpha, nu) == pytest.approx(
            m ** (-2 * nu) * base, rel=1e-12
        )


def test_scalar_trio_agreement():
    # closed form, the p=1 collapse of the zonal series, and quadrature
    for _ in range(20):
        alpha = rng.uniform(2.0, 20.0)
        nu = rng.uniform(0.05, 0.95) * alpha / 2
        m = rng.uniform(0.3, 3.0)
        beta = bound_integral_beta_1d(m, alpha, nu)
        series = minor_bound_integral(np.array([[m]]), alpha, nu)
        quadr = integral_quadrature_1d(m, alpha, nu)
        assert series == pytest.approx(beta, rel=1e-10)
        assert quadr == pytest.approx(beta, rel=1e-6)


# ---------------------------------------------------------------- p = 2 oracle


def isotropic_2x2_oracle(m, alpha, nu):
    """Nested quadrature for the p=2 integral at M = m I.

    Spectral decomposition of the domain: the integral over 2x2 PD T
    becomes pi * iint_{l1 > l2 > 0} (l1 l2)^(nu - 3/2) (l1 - l2)
    prod_i (1 + sqrt(2) m sqrt(l_i))^(-alpha) dl2 dl1; substituting
    l_i = u_i^2 removes the endpoint singularity.
    """
    c = sqrt(2.0) * m

    def g(u):
        return 2.0 * u ** (2.0 * nu - 2.0) * (1.0 + c * u) ** (-alpha)

    def inner(u1):
        f = lambda u2: g(u2) * (u1**2 - u2**2)
        v, _ = quad(f, 0.0, u1, epsabs=0.0, epsrel=1e-10, limit=200)
        return g(u1) * v

    cut = 1.0 / c
    head, _ = quad(inner, 0.0, cut, epsabs=0.0, epsrel=1e-9, limit=200)
    tail, _ = quad(inner, cut, np.inf, epsabs=0.0, epsrel=1e-9, limit=200)
    return np.pi * (head + tail)


@pytest.mark.parametrize("m,alpha,nu", [(0.8, 14.0, 1.1), (1.6, 20.0, 2.0)])
def test_zonal_series_matches_2x2_quadrature(m, alpha, nu):
    got = minor_bound_integral(m * np.eye(2), alpha, nu)
    want = isotropic_2x2_oracle(m, alpha, nu)
    assert got == pytest.approx(want, rel=1e-6)


def test_series_is_orthogonally_invariant():
    M = random_pd(3, jitter=1.0)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = Q @ M @ Q.T
    a = log_minor_bound_integral(M, 22.0, 1.5)
    b = log_minor_bound_integral(rotated, 22.0, 1.5)
    assert a == pytest.approx(b, rel=1e-10)


def test_minor_bound_integral_exp_consistency():
    M = random_pd(2, jitter=1.0)
    lg = log_minor_bound_integral(M, 15.0, 1.2)
    assert minor_bound_integral(M, 15.0, 1.2) == pytest.approx(exp(lg), rel=1e-14)


# ---------------------------------------------------------------- jacobian


def test_jacobian_known_values():
    assert matrix_square_jacobian(np.array([[3.0]])) == pytest.approx(6.0)
    assert matrix_square_jacobian(np.diag([1.0, 2.0])) == pytest.approx(24.0)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_jacobian_matches_lyapunov_determinant(p):
    for _ in range(25):
        X = random_pd(p, jitter=0.3)
        a = matrix_square_jacobian(X)
        b = lyapunov_operator_determinant(X)
        assert a == pytest.approx(b, rel=1e-8)
    with pytest.raises(NotPositiveDefinite):
        matrix_square_jacobian(np.diag([-1.0] * p))


def test_package_import_leaves_scipy_unloaded():
    # scipy costs more than the rest of the import; only the quadrature
    # oracle uses it, and it loads it when called.
    src = os.path.dirname(os.path.dirname(wishartgpi.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, wishartgpi, wishartgpi.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
