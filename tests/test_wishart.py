from math import exp, lgamma, log

import numpy as np
import pytest
import scipy.stats

from wishartgpi.errors import CapExceeded, DomainError, NotPositiveDefinite
from wishartgpi.linalg import BlockSpec, direct_sum
from wishartgpi.special import hyp2f1_series, partitions_of, zonal_polynomial
from wishartgpi.wishart import (
    RngStream,
    WishartModel,
    laplace_transform,
    log_density,
    log_det_moment,
    log_laplace_transform,
    log_minor_moment,
    minor_moment,
    pair_moment,
    random_correlation,
    sample,
    sphere_batch,
)


def pd_matrix(p, seed, jitter=0.4):
    g = np.random.default_rng(seed).standard_normal((p, p + 1))
    return g @ g.T + jitter * np.eye(p)


# ---------------------------------------------------------------- streams


def test_rngstream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, 2**64)


def test_rngstream_determinism_and_independence():
    a = RngStream(42, 1).generator().standard_normal(8)
    b = RngStream(42, 1).generator().standard_normal(8)
    c = RngStream(42, 2).generator().standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------- model


def test_model_validation():
    with pytest.raises(NotPositiveDefinite):
        WishartModel(5.0, np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(DomainError):
        WishartModel(1.0, np.eye(2))  # needs alpha > 1
    with pytest.raises(ValueError):
        WishartModel(5.0, np.eye(3), BlockSpec((2, 2)))
    m = WishartModel(5.0, np.eye(3), BlockSpec((1, 2)))
    assert m.p == 3 and m.d == 2
    assert np.array_equal(m.sigma_block(1), np.eye(2))
    sub = m.standalone(1)
    assert sub.p == 2 and sub.alpha == 5.0


def test_sigma_is_frozen():
    m = WishartModel(4.0, np.eye(2))
    with pytest.raises(ValueError):
        m.sigma[0, 0] = 2.0


# ---------------------------------------------------------------- sampling


def test_sample_shapes_and_symmetry():
    m = WishartModel(6.5, pd_matrix(4, 0))
    one = sample(m, RngStream(1))
    assert one.shape == (4, 4)
    batch = sample(m, RngStream(1), size=10)
    assert batch.shape == (10, 4, 4)
    assert np.array_equal(one, batch[0]) is False or True  # independent call layouts
    assert np.allclose(batch, np.swapaxes(batch, 1, 2))
    assert np.all(np.linalg.eigvalsh(batch)[:, 0] > 0)


def test_sample_is_stream_deterministic():
    m = WishartModel(4.2, pd_matrix(3, 1))
    a = sample(m, RngStream(9, 5), size=6)
    b = sample(m, RngStream(9, 5), size=6)
    c = sample(m, RngStream(9, 6), size=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_mean_matches_alpha_sigma():
    sigma = pd_matrix(3, 2)
    m = WishartModel(5.7, sigma)
    draws = sample(m, RngStream(11), size=60000)
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(mean - 5.7 * sigma) < 5 * se)


def test_sample_zonal_moment_identity():
    # E C_kappa(W) = 2^k (alpha/2)_kappa C_kappa(Sigma) with the half-step
    # generalized rising factorial; exercised for kappa = (2,) and (1, 1).
    sigma = pd_matrix(2, 3)
    alpha = 6.3
    m = WishartModel(alpha, sigma)
    draws = sample(m, RngStream(21), size=120000)
    lam = np.linalg.eigvalsh(draws)
    lam_sigma = np.linalg.eigvalsh(sigma)
    for kappa in [(2,), (1, 1)]:
        vals = zonal_polynomial(kappa, lam)
        got = vals.mean()
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        poch = 1.0
        for j, kj in enumerate(kappa):
            poch *= exp(lgamma(alpha / 2 - 0.5 * j + kj) - lgamma(alpha / 2 - 0.5 * j))
        want = 2 ** sum(kappa) * poch * zonal_polynomial(kappa, lam_sigma)
        assert abs(got - want) < 4.5 * se


# ---------------------------------------------------------------- density


def test_log_density_scalar_is_gamma():
    # W_1(alpha, s) is Gamma(alpha/2, scale 2s)
    m = WishartModel(5.0, np.array([[0.7]]))
    for x in (0.3, 1.9, 6.0):
        want = scipy.stats.gamma.logpdf(x, a=2.5, scale=1.4)
        assert log_density(m, np.array([[x]])) == pytest.approx(want, rel=1e-12)


def test_log_density_matches_scipy_wishart():
    sigma = pd_matrix(3, 4)
    m = WishartModel(7.3, sigma)
    frozen = scipy.stats.wishart(df=7.3, scale=sigma)
    for seed in range(5):
        X = pd_matrix(3, 100 + seed, jitter=1.0)
        assert log_density(m, X) == pytest.approx(frozen.logpdf(X), rel=1e-10)


def test_log_density_rejects_non_pd_argument():
    m = WishartModel(5.0, np.eye(2))
    with pytest.raises(DomainError):
        log_density(m, np.array([[1.0, 2.0], [2.0, 1.0]]))


# ------------------------------------------------------------- transforms


def test_laplace_transform_identity_case():
    # Sigma = I, T = t I: |I + 2tI|^{-alpha/2} = (1+2t)^{-p alpha/2}
    m = WishartModel(6.0, np.eye(3))
    for t in (0.1, 0.7, 2.0):
        want = (1 + 2 * t) ** (-9.0)
        assert laplace_transform(m, t * np.eye(3)) == pytest.approx(want, rel=1e-12)
    assert log_laplace_transform(m, np.zeros((3, 3))) == 0.0


def test_laplace_transform_matches_monte_carlo():
    sigma = pd_matrix(3, 5)
    m = WishartModel(5.5, sigma)
    g = np.random.default_rng(6).standard_normal((3, 3))
    T = 0.05 * (g @ g.T)
    draws = sample(m, RngStream(31), size=120000)
    vals = np.exp(-np.einsum("ij,nji->n", T, draws))
    got, se = vals.mean(), vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(laplace_transform(m, T) - got) < 4 * se


def test_laplace_transform_domain_follows_spectrum():
    # defined exactly when I + 2 T Sigma is PD, so mildly negative T is fine
    m = WishartModel(5.0, np.eye(2))
    assert log_laplace_transform(m, np.diag([1.0, -0.2])) == pytest.approx(
        -2.5 * (np.log(3.0) + np.log(0.6))
    )
    with pytest.raises(DomainError):
        log_laplace_transform(m, np.diag([1.0, -0.6]))


# ---------------------------------------------------------------- moments


def test_log_det_moment_scalar_reduction():
    # p=1: E x^nu = (2s)^nu Gamma(a/2+nu)/Gamma(a/2)
    a, s, nu = 6.0, 0.7, 1.3
    want = nu * log(2 * s) + lgamma(a / 2 + nu) - lgamma(a / 2)
    assert log_det_moment(a, 1, log(s), nu) == pytest.approx(want, rel=1e-13)


def test_log_det_moment_integer_identity():
    # E|W| for W_2(alpha, I) = alpha(alpha-1) via the duplication of
    # gamma arguments: 2^2 * (a/2)(a/2 - 1/2) = alpha(alpha-1)
    a = 7.0
    got = exp(log_det_moment(a, 2, 0.0, 1.0))
    assert got == pytest.approx(a * (a - 1), rel=1e-12)


def test_log_det_moment_domain():
    with pytest.raises(DomainError):
        log_det_moment(4.0, 2, 0.0, -1.8)  # needs alpha/2 + nu > (p-1)/2


def test_minor_moment_blocks_and_monte_carlo():
    sigma = pd_matrix(5, 7)
    spec = BlockSpec((2, 3))
    m = WishartModel(8.0, sigma, spec)
    draws = sample(m, RngStream(41), size=80000)
    for i, sl in ((0, slice(0, 2)), (1, slice(2, 5))):
        for nu in (0.8, -0.5):
            vals = np.linalg.det(draws[:, sl, sl]) ** nu
            got, se = vals.mean(), vals.std(ddof=1) / np.sqrt(vals.size)
            want = minor_moment(m, i, nu)
            assert want == pytest.approx(exp(log_minor_moment(m, i, nu)), rel=1e-12)
            assert abs(want - got) < 4 * se


def _rho2(m: WishartModel) -> float:
    # squared multiple correlation of the 1x1 block on the other
    s, o = (0, 1) if m.spec.sizes[0] == 1 else (1, 0)
    rs, ro = m.spec.range(s), m.spec.range(o)
    cross = m.sigma[ro, rs][:, 0]
    return float(cross @ np.linalg.solve(m.sigma[ro, ro], cross) / m.sigma[rs, rs][0, 0])


def test_pair_moment_is_the_product_of_marginals_at_zero_correlation():
    for sizes in ((1, 1), (1, 3), (2, 1), (2, 2), (3, 2)):
        sigma = direct_sum(*(pd_matrix(p, 20 + p) for p in sizes))
        m = WishartModel(7.5, sigma, BlockSpec(sizes))
        for h, k in ((-0.7, 1.3), (0.4, -1.1), (2.0, 2.5)):
            # the series is exactly 1 at rho^2 = 0
            assert pair_moment(m, 0, 1, h, k) == exp(log_minor_moment(m, 0, h) + log_minor_moment(m, 1, k))


def test_pair_moment_series_terminates_at_integer_exponents():
    # 2F1(-h, -k; c; x) is a polynomial of degree h in x at integer h
    assert hyp2f1_series(-2.0, 1.7, 3.5, 0.6) == pytest.approx(1 - 2 * 1.7 / 3.5 * 0.6 + 1.7 * 2.7 / (3.5 * 4.5) * 0.36, rel=1e-15)
    m = WishartModel(6.0, pd_matrix(3, 31), BlockSpec((1, 2)))
    # E X_11 |X_22|^k = E X_11 E|X_22|^k (1 + 2 k rho^2 / alpha)
    rho2 = _rho2(m)
    for k in (-0.9, 0.5, 2.0):
        want = minor_moment(m, 0, 1.0) * minor_moment(m, 1, k) * (1.0 + k * rho2 / 3.0)
        assert pair_moment(m, 0, 1, 1.0, k) == pytest.approx(want, rel=1e-14)


def test_pair_moment_matches_scipy_hyp2f1():
    from scipy.special import hyp2f1

    param = np.random.default_rng(4711)
    for case in range(40):
        sizes = ((1, 1), (1, 2), (2, 1), (1, 3))[case % 4]
        p = sum(sizes)
        alpha = float(param.uniform(p + 1.0, p + 10.0))
        m = WishartModel(alpha, random_correlation(p, RngStream(77, case)), BlockSpec(sizes))
        # inverted powers inside the finite window, with a margin
        h = float(param.uniform(-(alpha - sizes[0] + 1) / 2 + 0.3, 3.0))
        k = float(param.uniform(-(alpha - sizes[1] + 1) / 2 + 0.3, 3.0))
        series = pair_moment(m, 0, 1, h, k) / exp(log_minor_moment(m, 0, h) + log_minor_moment(m, 1, k))
        assert series == pytest.approx(hyp2f1(-h, -k, alpha / 2.0, _rho2(m)), rel=1e-13)


def test_pair_moment_refusals():
    m = WishartModel(9.0, pd_matrix(6, 5), BlockSpec((3, 3)))
    with pytest.raises(DomainError):
        pair_moment(m, 0, 1, 0.5, 0.5)  # no block of at most 2 rows
    m = WishartModel(5.0, pd_matrix(2, 5), BlockSpec((1, 1)))
    with pytest.raises(DomainError):
        pair_moment(m, 0, 1, -2.6, 0.5)  # E X_11^-2.6 diverges at alpha = 5
    with pytest.raises(CapExceeded):
        hyp2f1_series(0.5, 0.5, 1.0, 1.0 - 1e-9)  # converges too slowly


@pytest.mark.parametrize(
    "sizes, alpha, h, k",
    [
        ((1, 1), 7.0, -0.8, 1.3),
        ((1, 1), 9.0, -1.0, -0.8),
        ((1, 2), 8.0, 0.7, -0.9),
        ((2, 1), 8.0, -0.9, 0.7),
        ((1, 3), 9.0, 1.5, 1.1),
    ],
)
def test_pair_moment_matches_monte_carlo(sizes, alpha, h, k):
    p = sum(sizes)
    # equicorrelated at 0.5, with unequal scales
    scale = np.linspace(0.8, 1.4, p)
    m = WishartModel(alpha, np.outer(scale, scale) * (0.5 + 0.5 * np.eye(p)), BlockSpec(sizes))
    X = sample(m, RngStream(43, p), size=100000)
    r0, r1 = m.spec.range(0), m.spec.range(1)
    vals = np.linalg.det(X[:, r0, r0]) ** h * np.linalg.det(X[:, r1, r1]) ** k
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - pair_moment(m, 0, 1, h, k)) < 4 * se


def _canonical_sigma(rho, sizes, seed):
    # canonical correlations rho between blocks of sizes (2, p2), behind a
    # random block-diagonal congruence, which leaves them unchanged
    p2 = sizes[1]
    cross = np.zeros((2, p2))
    cross[0, 0], cross[1, 1] = rho
    core = np.block([[np.eye(2), cross], [cross.T, np.eye(p2)]])
    gen = np.random.default_rng(seed)
    D = direct_sum(*(np.tril(gen.uniform(-0.5, 0.5, (p, p)), -1) + np.diag(gen.uniform(0.7, 1.4, p)) for p in sizes))
    return D @ core @ D.T


def test_pair_moment_reduces_to_the_scalar_series_at_rank_one():
    # one nonzero canonical correlation: the slices past k2 = 0 vanish
    from scipy.special import hyp2f1

    for sizes, h, k in (((2, 2), -0.8, 1.2), ((2, 3), 1.4, -0.6)):
        m = WishartModel(7.5, _canonical_sigma((0.7, 0.0), sizes, 5), BlockSpec(sizes))
        series = pair_moment(m, 0, 1, h, k) / exp(log_minor_moment(m, 0, h) + log_minor_moment(m, 1, k))
        assert series == pytest.approx(hyp2f1(-h, -k, 7.5 / 2.0, 0.49), rel=1e-13)


def test_pair_moment_terminates_at_integer_exponents_for_two_by_two_blocks():
    # E|X_11| |X_22|^k: (-1)_kappa vanishes past kappa = (1, 1), so the
    # series is 1 + 2 k tr(P^2) / alpha + 2 k (2 k + 1) x1 x2 / (alpha (alpha - 1))
    rho = (0.8, 0.5)
    x1, x2 = rho[0] ** 2, rho[1] ** 2
    for sizes in ((2, 2), (2, 3)):
        m = WishartModel(8.0, _canonical_sigma(rho, sizes, 9), BlockSpec(sizes))
        for k in (-1.3, 0.6, 2.0):
            poly = 1.0 + 2.0 * k * (x1 + x2) / 8.0 + 2.0 * k * (2.0 * k + 1.0) * x1 * x2 / (8.0 * 7.0)
            want = minor_moment(m, 0, 1.0) * minor_moment(m, 1, k) * poly
            assert pair_moment(m, 0, 1, 1.0, k) == pytest.approx(want, rel=1e-13)
            assert pair_moment(m, 1, 0, k, 1.0) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize(
    "sizes, alpha, h, k",
    [
        ((2, 2), 7.0, -0.9, 1.2),
        ((2, 2), 8.0, 1.3, 0.7),
        ((2, 3), 8.0, 0.8, -1.1),
        ((2, 3), 9.0, -1.2, -0.7),
    ],
)
def test_pair_moment_matches_monte_carlo_at_rank_two(sizes, alpha, h, k):
    m = WishartModel(alpha, _canonical_sigma((0.75, 0.45), sizes, 17), BlockSpec(sizes))
    X = sample(m, RngStream(47, sum(sizes)), size=100000)
    r0, r1 = m.spec.range(0), m.spec.range(1)
    vals = np.linalg.det(X[:, r0, r0]) ** h * np.linalg.det(X[:, r1, r1]) ** k
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - pair_moment(m, 0, 1, h, k)) < 4 * se


# ---------------------------------------------------------------- helpers


def test_random_correlation_properties():
    for p in (1, 2, 5):
        C = random_correlation(p, RngStream(3, p))
        assert np.allclose(np.diag(C), 1.0)
        assert np.array_equal(C, C.T)
        assert np.linalg.eigvalsh(C)[0] > 0


def test_sphere_batch_unit_norm_and_mean():
    u = sphere_batch(RngStream(8).generator(), 20000, 4)
    assert u.shape == (20000, 4)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)
    assert np.all(np.abs(u.mean(axis=0)) < 4 / np.sqrt(20000))
