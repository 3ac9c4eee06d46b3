from math import exp, inf, lgamma, log

import numpy as np
import pytest

from wishartgpi.checks import (
    STATEMENTS,
    BernsteinSpec,
    RadialSpec,
    bernstein_pair_check,
    eigen_gpi_check,
    elliptical_gpi_check,
    gpi_sandwich,
    lt_order_gap,
    opposite_gpi_lower,
    opposite_gpi_upper,
    product_moment_conjecture_check,
    proved_status,
    radial_moment_ratio,
    split_model,
    tail_probability_conjecture_check,
    verdict_from,
)
from wishartgpi.errors import (
    DomainError,
    InfiniteMoment,
    UpperBoundUnavailable,
)
from wishartgpi.linalg import BlockSpec, direct_sum
from wishartgpi.montecarlo import (
    ExponentVector,
    Finiteness,
    MCEstimate,
    StreamPlan,
    finiteness_classify,
    mc_product_moment,
)
from wishartgpi.wishart import RngStream, WishartModel, minor_moment, pair_moment, random_correlation, sample


def corr2(rho):
    return np.array([[1.0, rho], [rho, 1.0]])


def scalar_moment(alpha, s, nu):
    # E x^nu for W_1(alpha, s)
    return exp(nu * log(2 * s) + lgamma(alpha / 2 + nu) - lgamma(alpha / 2))


# ---------------------------------------------------------------- verdicts


def test_verdict_from_classification():
    holds = verdict_from(MCEstimate(1.5, 0.1, 100), 1.0)
    assert holds.verdict == "Holds"
    assert holds.margin == pytest.approx(0.5)
    assert holds.z == pytest.approx(5.0)
    weak = verdict_from(MCEstimate(1.1, 0.1, 100), 1.0)
    assert weak.verdict == "Inconclusive"
    bad = verdict_from(MCEstimate(0.5, 0.1, 100), 1.0)
    assert bad.verdict == "Violated"
    assert bad.z == pytest.approx(-5.0)


def test_verdict_from_direction_flip():
    v = verdict_from(MCEstimate(0.5, 0.1, 100), 1.0, direction="<=")
    assert v.verdict == "Holds"
    assert v.margin == pytest.approx(0.5)
    v = verdict_from(MCEstimate(1.5, 0.1, 100), 1.0, direction="<=")
    assert v.verdict == "Violated"


def test_verdict_from_exact_path():
    tie = verdict_from(2.0, 2.0 + 1e-12)
    assert tie.verdict == "Holds" and tie.z == inf
    broken = verdict_from(2.0, 2.1)
    assert broken.verdict == "Violated" and broken.z == -inf
    # the tolerance is relative only: tiny sides compare at their own scale
    assert verdict_from(1e-20, 2e-20).verdict == "Violated"
    assert verdict_from(1e-20, 1e-20 * (1.0 + 1e-12)).verdict == "Holds"
    assert verdict_from(0.0, 0.0).verdict == "Holds"
    with pytest.raises(ValueError):
        verdict_from(1.0, 1.0, direction="==")


def test_verdict_pools_both_stderrs():
    v = verdict_from(MCEstimate(2.0, 0.3, 50), MCEstimate(1.0, 0.4, 80))
    assert v.z == pytest.approx(1.0 / 0.5)
    assert v.n == 80
    assert v.lhs_se == 0.3 and v.rhs_se == 0.4


def test_verdict_from_margin_stderr_replaces_pooling():
    v = verdict_from(MCEstimate(2.0, 0.3, 50), MCEstimate(1.0, 0.4, 80), margin_se=0.1)
    assert v.z == pytest.approx(10.0) and v.verdict == "Holds"
    assert v.lhs_se == 0.3 and v.rhs_se == 0.4
    tie = verdict_from(MCEstimate(2.0, 0.3, 50), MCEstimate(2.0, 0.3, 50), margin_se=0.0)
    assert tie.verdict == "Holds" and tie.z == inf


def test_proved_status_table():
    assert proved_status("sandwich", 5, (2, 2, 1)) == "proved"
    assert proved_status("conj11", 2, (3, 1)) == "proved"
    assert proved_status("conj11", 3, (1, 1, 1)) == "open"
    assert proved_status("conj36", 4, (1, 1, 1, 1)) == "proved"
    assert proved_status("conj36", 2, (2, 1)) == "open"
    assert proved_status("opp_lower", 2, (2, 2)) == "proved"
    assert proved_status("opp_lower", 3, (1, 1, 1)) == "conditional"
    assert proved_status("elliptical", 2, (1, 1), RadialSpec("chisq")) == "proved"
    assert proved_status("elliptical", 2, (1, 1), RadialSpec("chisq", dof=2)) == "proved"
    assert proved_status("elliptical", 1, (1,), RadialSpec("chisq", dof=1.0)) == "proved"
    # another dof is a different elliptical law, not the Gaussian theorem
    assert proved_status("elliptical", 2, (1, 1), RadialSpec("chisq", dof=1e6)) == "open"
    assert proved_status("elliptical", 2, (1, 1), RadialSpec("chisq", dof=3)) == "open"
    assert proved_status("elliptical", 3, (1, 1, 1), RadialSpec("chisq")) == "open"
    assert proved_status("elliptical", 2, (1, 1), RadialSpec("point", value=1.0)) == "open"
    assert proved_status("elliptical", 2, (1, 1)) == "open"
    with pytest.raises(KeyError):
        proved_status("nope", 2, (1, 1))


# ---------------------------------------------------------------- transform order


def test_split_model_zeroes_cross_block():
    sigma = np.array(
        [
            [1.0, 0.5, 0.3],
            [0.5, 1.0, 0.2],
            [0.3, 0.2, 1.0],
        ]
    )
    m = WishartModel(5.0, sigma, BlockSpec((1, 1, 1)))
    star = split_model(m, 2)
    assert star.sigma[0, 1] == 0.0 and star.sigma[0, 2] == 0.0
    assert star.sigma[1, 2] == 0.2  # within-group coupling survives
    with pytest.raises(ValueError):
        split_model(m, 1)
    with pytest.raises(ValueError):
        split_model(m, 4)


def test_lt_order_gap_is_nonnegative_and_zero_cases():
    m = WishartModel(3.0, corr2(0.6), BlockSpec((1, 1)))
    t = [np.array([[0.5]]), np.array([[0.5]])]
    gap = lt_order_gap(m, 2, t)
    assert gap > 0.0
    # exact zero when T = 0 or the coupling is absent
    assert lt_order_gap(m, 2, [np.zeros((1, 1))] * 2) == 0.0
    flat = WishartModel(3.0, np.eye(2), BlockSpec((1, 1)))
    assert abs(lt_order_gap(flat, 2, t)) <= 1e-15


def test_lt_order_gap_value_2x2():
    # scalar blocks: lhs = |I + 2T Sigma|^(-a/2) with the coupling,
    # rhs without; both closed form
    rho, a, t = 0.6, 3.0, 0.5
    m = WishartModel(a, corr2(rho), BlockSpec((1, 1)))
    lhs = ((1 + 2 * t) ** 2 - 4 * t * t * rho * rho) ** (-a / 2)
    rhs = (1 + 2 * t) ** (-a)
    got = lt_order_gap(m, 2, [np.array([[t]])] * 2)
    assert got == pytest.approx(lhs - rhs, rel=1e-12)


def test_lt_order_gap_validates_blocks():
    m = WishartModel(5.0, np.eye(3), BlockSpec((2, 1)))
    with pytest.raises(ValueError):
        lt_order_gap(m, 2, [np.zeros((1, 1))])
    with pytest.raises(ValueError):
        lt_order_gap(m, 2, [np.zeros((1, 1)), np.zeros((1, 1))])
    with pytest.raises(DomainError):
        lt_order_gap(m, 2, [np.diag([1.0, -0.5]), np.eye(1)])


def test_lt_order_gap_random_sweep_nonnegative():
    rng = np.random.default_rng(17)
    for trial in range(60):
        d = rng.integers(2, 4)
        sizes = tuple(int(x) for x in rng.integers(1, 3, size=d))
        p = sum(sizes)
        sigma = random_correlation(p, RngStream(900 + trial))
        m = WishartModel(p + rng.uniform(0.5, 3.0), sigma, BlockSpec(sizes))
        ts = []
        for s in sizes:
            g = rng.standard_normal((s, s))
            ts.append(0.3 * g @ g.T)
        k = int(rng.integers(2, d + 1))
        assert lt_order_gap(m, k, ts) >= -1e-12


# ---------------------------------------------------------------- sandwich


def test_gpi_sandwich_holds_and_detail():
    sigma = random_correlation(3, RngStream(51))
    m = WishartModel(6.0, sigma, BlockSpec((1, 1, 1)))
    exps = ExponentVector((0.4, 0.4, 0.4), (-1, -1, -1))
    out = gpi_sandwich(m, exps, (2,), 40000, RngStream(1001))
    assert list(out) == [(2, "lower"), (2, "upper")]
    lower, upper = out[2, "lower"], out[2, "upper"]
    assert lower.verdict != "Violated"
    assert upper.verdict != "Violated"
    assert lower.direction == ">=" and upper.direction == "<="
    assert lower.detail["split"] == 2 and lower.detail["shared_splits"] == [2]
    assert upper.detail["window_rules"] == ["exact"] * 3
    assert lower.statement == STATEMENTS["sandwich"]


def test_gpi_sandwich_block_diagonal_is_tight():
    # independent blocks: the two sides are the same number, exact at
    # blocks (1, 1) and estimated from one sample at (1, 1, 1)
    m = WishartModel(7.0, np.eye(2), BlockSpec((1, 1)))
    exps = ExponentVector((0.5, 0.5), (-1, -1))
    v = gpi_sandwich(m, exps, (2,), 40000, RngStream(1002), bounds=("lower",))[2, "lower"]
    assert v.verdict == "Holds" and v.n == 1 and v.lhs == pytest.approx(v.rhs, rel=1e-14)
    m3 = WishartModel(7.0, np.eye(3), BlockSpec((1, 1, 1)))
    exps3 = ExponentVector((0.5, 0.5, 0.5), (-1, -1, -1))
    v3 = gpi_sandwich(m3, exps3, (2,), 40000, RngStream(1002), bounds=("lower",))[2, "lower"]
    assert v3.n == 40000 and abs(v3.z) < 4.0


def test_gpi_sandwich_zero_exponent_group_is_exact_one():
    m = WishartModel(7.0, corr2(0.4), BlockSpec((1, 1)))
    exps = ExponentVector((0.5, 0.0), (-1, -1))
    lower = gpi_sandwich(m, exps, (2,), 3000, RngStream(1030), bounds=("lower",))[2, "lower"]
    # E[L * 1] >= E[L] * 1 is an identity, whatever the sample; L is a
    # single block, so its control makes both sides its closed-form moment
    assert lower.verdict == "Holds" and lower.z == inf
    assert lower.lhs == lower.rhs == minor_moment(m, 0, -0.5)
    assert lower.lhs_se == lower.rhs_se == 0.0


def test_gpi_sandwich_rejects_wrong_signs_and_window():
    m = WishartModel(8.0, np.eye(4), BlockSpec((2, 2)))
    with pytest.raises(ValueError):
        gpi_sandwich(m, ExponentVector((0.5, 0.5), (1, -1)), (2,), 100, RngStream(0))
    # nu = 3.0 is finite (< alpha/2 - 1/2 = 3.5) but outside the
    # conservative integral window (hi = alpha/2 - 3/2 = 2.5)
    exps = ExponentVector((3.0, 1.0), (-1, -1))
    with pytest.raises(UpperBoundUnavailable):
        gpi_sandwich(m, exps, (2,), 100, RngStream(0), bounds=("upper",))


# ---------------------------------------------------------------- conjectures


def test_product_moment_check_block_diagonal_and_open_status():
    m2 = WishartModel(5.0, np.eye(3), BlockSpec((2, 1)))
    v = product_moment_conjecture_check(
        m2, ExponentVector((0.7, 1.1), (1, 1)), 30000, RngStream(1003)
    )
    # blocks (2, 1): the joint moment is the exact pair moment, here the
    # product of the marginals
    assert v.status == "proved" and v.n == 1 and v.lhs == pytest.approx(v.rhs, rel=1e-14)
    m3 = WishartModel(5.0, random_correlation(3, RngStream(52)), BlockSpec((1, 1, 1)))
    v3 = product_moment_conjecture_check(
        m3, ExponentVector((0.5, 0.5, 0.5), (1, 1, 1)), 30000, RngStream(1004)
    )
    assert v3.status == "open"
    assert v3.verdict != "Violated"
    with pytest.raises(ValueError):
        product_moment_conjecture_check(
            m3, ExponentVector((0.5, 0.5, 0.5), (1, -1, 1)), 100, RngStream(0)
        )


def test_product_moment_check_zero_exponents_exact():
    m = WishartModel(5.0, np.eye(2), BlockSpec((1, 1)))
    v = product_moment_conjecture_check(
        m, ExponentVector((0.0, 0.0), (1, 1)), 100, RngStream(1005)
    )
    assert v.verdict == "Holds" and v.z == inf


def test_tail_probability_check_pilot_and_explicit():
    sigma = random_correlation(2, RngStream(53))
    m = WishartModel(6.0, sigma, BlockSpec((1, 1)))
    v = tail_probability_conjecture_check(m, None, (2,), 20000, RngStream(1006))[2]
    assert v.status == "proved"
    assert v.verdict != "Violated"
    assert len(v.detail["thresholds"]) == 2
    # pilot medians put each marginal near probability 1/2
    assert 0.15 < v.lhs < 0.6
    explicit = tail_probability_conjecture_check(
        m, (6.0, 7.0), (2,), 20000, RngStream(1007)
    )[2]
    assert explicit.detail["thresholds"] == (6.0, 7.0)
    with pytest.raises(ValueError):
        tail_probability_conjecture_check(m, (6.0,), (2,), 100, RngStream(0))
    with pytest.raises(ValueError):
        tail_probability_conjecture_check(m, (6.0, -1.0), (2,), 100, RngStream(0))


def test_tail_probability_strong_positive_dependence_holds():
    m = WishartModel(4.0, corr2(0.85), BlockSpec((1, 1)))
    v = tail_probability_conjecture_check(m, None, (2,), 60000, RngStream(1008))[2]
    assert v.verdict == "Holds"


# ---------------------------------------------------------------- eigen


def test_eigen_check_zero_powers_exact_and_variants():
    m = WishartModel(5.0, np.eye(2))
    v = eigen_gpi_check(m, (0.0, 0.0), (2,), 100, RngStream(1009))[2]
    assert v.verdict == "Holds" and v.z == inf
    with pytest.raises(ValueError):
        eigen_gpi_check(m, (1.0, 1.0), (3,), 100, RngStream(0))
    with pytest.raises(ValueError):
        eigen_gpi_check(m, (1.0,), (2,), 100, RngStream(0))


def test_eigen_check_zero_power_group_is_exact_one():
    m = WishartModel(5.0, random_correlation(2, RngStream(58)))
    for nus in ((1.0, 0.0), (0.0, 1.0)):
        v = eigen_gpi_check(m, nus, (2,), 3000, RngStream(1031))[2]
        assert v.verdict == "Holds" and v.z == inf
        assert v.lhs == v.rhs and v.lhs_se > 0


def test_eigen_check_power_product_holds():
    sigma = random_correlation(3, RngStream(54))
    m = WishartModel(6.0, sigma)
    v = eigen_gpi_check(m, (1.5, 0.8, 0.3), (2,), 50000, RngStream(1010))[2]
    assert v.verdict != "Violated"
    assert v.detail["variant"] == "power"


def test_eigen_check_determinant_identity():
    # all powers 1: the eigenvalue product is the determinant, so the
    # joint side must agree with the closed-form determinant moment
    m = WishartModel(7.0, random_correlation(3, RngStream(55)))
    v = eigen_gpi_check(m, (1.0, 1.0, 1.0), (2,), 120000, RngStream(1011))[2]
    want = minor_moment(m, 0, 1.0)
    assert abs(v.lhs - want) < 4.5 * v.lhs_se


def test_eigen_check_functional_variant():
    m = WishartModel(6.0, random_correlation(2, RngStream(56)))
    g = lambda L: np.where(L[:, 0] > 6.0, 1.0, 0.0)
    h = lambda L: np.where(L[:, 0] > 1.0, 1.0, 0.0)
    v = eigen_gpi_check(m, None, (2,), 50000, RngStream(1012), fns=(g, h))[2]
    assert v.detail["variant"] == "increasing-functional"
    assert v.verdict != "Violated"
    bad = lambda L: L[:, 0] - 100.0  # takes negative values
    with pytest.raises(ValueError):
        eigen_gpi_check(m, None, (2,), 1000, RngStream(1013), fns=(g, bad))


# ---------------------------------------------------------------- bernstein


def test_bernstein_spec_validation():
    with pytest.raises(DomainError):
        BernsteinSpec(np.array([[-1.0]]))
    with pytest.raises(DomainError):
        BernsteinSpec(np.eye(1), ((0.0, np.eye(1)),))
    with pytest.raises(DomainError):
        BernsteinSpec(np.eye(1), ((1.0, np.zeros((1, 1))),))
    with pytest.raises(ValueError):
        BernsteinSpec(np.eye(1), ((1.0, np.eye(2)),))
    f = BernsteinSpec(0.5 * np.eye(2), ((1.5, np.eye(2)),))
    assert f.dim == 2


def test_bernstein_expectation_matches_transform():
    m = WishartModel(6.0, np.array([[0.8]]))
    f = BernsteinSpec(np.array([[0.3]]), ((2.0, np.array([[0.4]])),))
    # E f = 0.3 + 2 (1 - (1 + 2*0.4*0.8)^(-3))
    want = 0.3 + 2.0 * (1.0 - (1.0 + 2 * 0.4 * 0.8) ** -3.0)
    assert f.expectation(m) == pytest.approx(want, rel=1e-12)


def test_bernstein_constants_short_circuit():
    # no atoms: both sides are tr(A1) tr(A2) and the gap sum is empty
    m = WishartModel(5.0, corr2(0.4), BlockSpec((1, 1)))
    f = BernsteinSpec(np.array([[1.5]]))
    g = BernsteinSpec(np.array([[0.7]]))
    v = bernstein_pair_check(m, f, g)
    assert v.verdict == "Holds" and v.z == inf and v.n == 1
    assert v.lhs == v.rhs == 1.5 * 0.7 and v.detail["gap"] == 0.0


def test_bernstein_positive_coupling_holds():
    m = WishartModel(5.0, corr2(0.6), BlockSpec((1, 1)))
    f = BernsteinSpec(np.zeros((1, 1)), ((1.0, np.array([[0.7]])),))
    g = BernsteinSpec(np.zeros((1, 1)), ((1.0, np.array([[0.3]])),))
    v = bernstein_pair_check(m, f, g)
    assert v.verdict == "Holds" and v.z == inf and v.n == 1
    assert v.lhs_se == v.rhs_se == 0.0 and v.detail["gap"] > 0.0


def test_bernstein_independent_blocks_centered():
    # block-diagonal scale matrix: every transform gap, and so the margin, is exactly 0
    m = WishartModel(5.0, np.eye(2), BlockSpec((1, 1)))
    f = BernsteinSpec(np.zeros((1, 1)), ((1.0, np.array([[0.7]])),))
    g = BernsteinSpec(np.zeros((1, 1)), ((1.0, np.array([[0.3]])),))
    v = bernstein_pair_check(m, f, g)
    assert v.margin == 0.0 and v.detail["gap"] == 0.0 and v.verdict == "Holds"
    with pytest.raises(ValueError):
        bernstein_pair_check(WishartModel(5.0, np.eye(3), BlockSpec((1, 1, 1))), f, g)
    with pytest.raises(ValueError):
        bernstein_pair_check(WishartModel(5.0, np.eye(3), BlockSpec((2, 1))), g, g)


def _bernstein_values(spec, X):
    # tr(A) + sum_j c_j (1 - etr(-S_j X)) on a (m, p, p) batch
    out = np.full(len(X), np.trace(spec.trace_offset))
    for c, S in spec.atoms:
        out += c * (1.0 - np.exp(-np.einsum("ij,nji->n", S, X)))
    return out


@pytest.mark.parametrize("sizes", [(1, 1), (1, 2), (2, 2)])
def test_bernstein_identity_matches_monte_carlo(sizes):
    # the exact left side against a plain mean of f(X_11) g(X_22) over draws
    p1, p = sizes[0], sum(sizes)
    m = WishartModel(p + 2.0, random_correlation(p, RngStream(1030, p1 + p)), BlockSpec(sizes))
    param = np.random.default_rng(1030 + p)

    def spec(q):
        atoms = []
        for _ in range(2):
            G = param.standard_normal((q, q))
            atoms.append((float(param.uniform(0.5, 2.0)), 0.05 * (G @ G.T) + 0.01 * np.eye(q)))
        return BernsteinSpec(0.4 * np.eye(q), tuple(atoms))

    f, g = spec(sizes[0]), spec(sizes[1])
    v = bernstein_pair_check(m, f, g)
    X = sample(m, RngStream(1031, p), size=200000)
    fg = _bernstein_values(f, X[:, :p1, :p1]) * _bernstein_values(g, X[:, p1:, p1:])
    z = (fg.mean() - v.lhs) / (fg.std() / np.sqrt(len(fg)))
    assert abs(z) < 4.0
    # the draws resolve the coupling that the margin measures
    assert v.verdict == "Holds" and v.margin > 4.0 * fg.std() / np.sqrt(len(fg))


def test_bernstein_margin_agrees_with_mpmath():
    # a weakly coupled (2, 2) shape whose margin is below 1e-5 of its sides:
    # lhs - rhs = sum_jk c_j d_k [L(S_j + T_k) - L*(S_j + T_k)], with
    # L(T) = |I + 2 T Sigma|^(-alpha/2), in 50-digit arithmetic
    mpmath = pytest.importorskip("mpmath")
    sigma = np.eye(4)
    sigma[:2, 2:] = [[0.02, -0.01], [0.015, 0.01]]
    sigma[2:, :2] = sigma[:2, 2:].T
    m = WishartModel(5.0, sigma, BlockSpec((2, 2)))
    site = lambda off: np.array([[1.0, off], [off, 1.0]])
    f = BernsteinSpec(np.zeros((2, 2)), ((0.5, site(0.2)),))
    g = BernsteinSpec(np.zeros((2, 2)), ((1.5, site(-0.3)), (0.7, 0.4 * np.eye(2))))
    v = bernstein_pair_check(m, f, g)

    def lt(S, T, cross):
        full = mpmath.matrix(sigma.tolist())
        if not cross:
            for i in range(2):
                for j in range(2, 4):
                    full[i, j] = full[j, i] = 0
        arg = mpmath.matrix(direct_sum(S, T).tolist())
        return mpmath.det(mpmath.eye(4) + 2 * arg * full) ** (-mpmath.mpf(5) / 2)

    with mpmath.workdps(50):
        want = sum(
            mpmath.mpf(c) * mpmath.mpf(d) * (lt(S, T, True) - lt(S, T, False))
            for c, S in f.atoms for d, T in g.atoms
        )
    assert 0.0 < v.detail["gap"] < 1e-5 * v.rhs
    assert abs(v.detail["gap"] - float(want)) <= 1e-10 * float(want)
    assert v.verdict == "Holds" and v.n == 1


# ---------------------------------------------------------------- opposite pair


def test_opposite_lower_rhs_closed_form_2x2():
    rho, a, nu1, nu2 = 0.5, 6.0, 0.6, 0.9
    m = WishartModel(a, corr2(rho), BlockSpec((1, 1)))
    v = opposite_gpi_lower(m, (nu1, nu2), 50000, RngStream(1017))
    want = (
        (1 - rho * rho) ** nu2
        * scalar_moment(a, 1.0, -nu1)
        * scalar_moment(a, 1.0, nu2)
    )
    assert v.rhs == pytest.approx(want, rel=1e-10)
    assert v.rhs_se == 0.0
    assert v.status == "proved"
    assert v.verdict != "Violated"


def test_opposite_lower_block_diagonal_equality():
    # no coupling: shrink factor 1 and the sides share one value; blocks
    # (2, 2) are an exact row, (2, 2, 1) draws
    m = WishartModel(8.0, np.eye(4), BlockSpec((2, 2)))
    v = opposite_gpi_lower(m, (1.0, 1.0), 50000, RngStream(1018))
    assert v.n == 1 and v.lhs == pytest.approx(v.rhs, rel=1e-14)
    m5 = WishartModel(8.0, np.eye(5), BlockSpec((2, 2, 1)))
    v5 = opposite_gpi_lower(m5, (1.0, 1.0, 1.0), 50000, RngStream(1018))
    assert v5.n == 50000 and abs(v5.z) < 4.0


def test_opposite_lower_validation_and_finiteness():
    m = WishartModel(6.0, corr2(0.3), BlockSpec((1, 1)))
    with pytest.raises(ValueError):
        opposite_gpi_lower(m, (0.5,), 100, RngStream(0))
    with pytest.raises(ValueError):
        opposite_gpi_lower(m, (-0.5, 1.0), 100, RngStream(0))
    with pytest.raises(InfiniteMoment):
        opposite_gpi_lower(m, (3.0, 1.0), 100, RngStream(0))  # nu1 >= alpha/2


def test_opposite_upper_holds_and_direction():
    sigma = random_correlation(2, RngStream(57))
    m = WishartModel(6.0, sigma, BlockSpec((1, 1)))
    v = opposite_gpi_upper(m, (0.6, 1.0), 50000, RngStream(1019))
    assert v.direction == "<="
    assert v.status == "proved"
    assert v.verdict != "Violated"


def test_opposite_upper_block_diagonal_centered():
    # blocks (2, 1) and (2, 2) are exact rows; (2, 1, 2) draws
    for sizes in ((2, 1), (2, 2)):
        m = WishartModel(9.0, np.eye(sum(sizes)), BlockSpec(sizes))
        v = opposite_gpi_upper(m, (1.0, 1.2), 50000, RngStream(1020))
        assert v.n == 1 and v.lhs == pytest.approx(v.rhs, rel=1e-14)
    m5 = WishartModel(9.0, np.eye(5), BlockSpec((2, 1, 2)))
    v5 = opposite_gpi_upper(m5, (1.0, 1.0, 1.2), 50000, RngStream(1020))
    assert v5.n == 50000 and abs(v5.z) < 4.0


# ---------------------------------------------------------------- elliptical


def test_elliptical_q_values():
    chisq = lambda d, alphas: radial_moment_ratio(RadialSpec("chisq"), alphas, d)
    assert chisq(2, (1.0, 1.0)) == 0.5
    assert chisq(1, (2.5,)) == 1.0
    assert chisq(3, ()) == 1.0
    # one active exponent is exactly 1; the full gamma ratio read 1 + 1 ulp here
    assert chisq(3, (0.018356446164189282, 0.0, 0.0)) == 1.0
    # Q <= 1 always, also where every exponent is tiny and the rounded
    # gamma ratio reads up to 3072 ulps above 1
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = int(rng.integers(1, 6))
        alphas = rng.uniform(0.0, 3.0, size=rng.integers(1, 5))
        assert chisq(d, alphas) <= 1.0
    for d in (3, 31, 32):
        for a in (1e-13, 3e-11, 1e-10):
            assert chisq(d, (a,) * d) <= 1.0
    # 32 coordinates: Gamma(16)^31 overflows, so the ratio goes through log space
    assert chisq(32, (0.1,) * 32) == pytest.approx(
        exp(32 * lgamma(16.1) - lgamma(19.2) - 31 * lgamma(16.0)), rel=1e-12
    )
    with pytest.raises(ValueError):
        chisq(2, (-0.5, 1.0))


def test_chisq_ratio_in_log_space_keeps_its_digits():
    # dof = 2h = 1e6: the log-space branch read 0.99999799952 against h/(h+1)
    h = 5e5
    got = radial_moment_ratio(RadialSpec("chisq", dof=2 * h), (1.0, 1.0), 2)
    assert got == pytest.approx(h / (h + 1.0), rel=1e-15)


def test_chisq_ratio_in_log_space_matches_mpmath():
    # from h = dof/2 = 1000 on, |log Gamma(h)| > 5000 puts every ratio in log space
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(26)
    with mpmath.workdps(50):
        for _ in range(200):
            h = float(10.0 ** rng.uniform(3.0, 9.0))
            alphas = [float(a) for a in rng.uniform(0.01, 4.0, size=rng.integers(2, 6))]
            got = radial_moment_ratio(RadialSpec("chisq", dof=2 * h), alphas, len(alphas))
            H, A = mpmath.mpf(h), [mpmath.mpf(a) for a in alphas]
            log_want = (
                sum(mpmath.loggamma(H + a) for a in A) - mpmath.loggamma(H + sum(A)) - (len(A) - 1) * mpmath.loggamma(H)
            )
            assert abs(got / mpmath.exp(log_want) - 1) < 1e-13


def test_radial_moment_ratio_exact_kinds():
    assert radial_moment_ratio(RadialSpec("chisq", dof=2), (1.0, 1.0), 2) == pytest.approx(0.5)
    assert radial_moment_ratio(RadialSpec("point", value=3.0), (1.0, 2.0), 2) == 1.0


def test_radial_moment_ratio_lognormal_closed_form():
    # E R^a = exp(a mu + a^2 s^2/2) gives Q = exp(-s^2 sum_{i<j} a_i a_j)
    for mu, s, alphas in [(0.1, 0.4, (1.0, 1.0)), (-0.3, 1.2, (0.5, 0.0, 1.5, 0.25)), (0.0, 0.1, (1.0, 1.0, 1.0))]:
        cross = sum(a * b for i, a in enumerate(alphas) for b in alphas[i + 1 :])
        got = radial_moment_ratio(RadialSpec("lognormal", mu=mu, sigma=s), alphas, len(alphas))
        assert abs(got - exp(-s * s * cross)) <= 1e-15


def test_radial_spec_validation_and_scaling():
    with pytest.raises(ValueError):
        RadialSpec("gamma")
    with pytest.raises(ValueError):
        RadialSpec("point", value=-1.0)
    with pytest.raises(ValueError):
        RadialSpec("chisq", dof=0.0)
    sc = RadialSpec("point", value=2.0).scaled(3.0)
    assert sc.value == 6.0
    ln = RadialSpec("lognormal", mu=0.5, sigma=1.0).scaled(2.0)
    assert ln.mu == pytest.approx(0.5 + log(2.0))
    with pytest.raises(NotImplementedError):
        RadialSpec("chisq", dof=2).scaled(2.0)


def test_elliptical_gaussian_2d_holds_with_known_ratio():
    rho = 0.5
    A = np.linalg.cholesky(corr2(rho))
    v = elliptical_gpi_check(A, (1.0, 1.0), RadialSpec("chisq", dof=2), 120000, RngStream(1022))
    assert v.status == "proved"
    assert v.verdict == "Holds"
    assert v.rhs == 0.5
    # the underlying Gaussian moment ratio is 1 + 2 rho^2
    assert v.detail["lhs_over_q"] == pytest.approx(1.0 + 2 * rho * rho, rel=0.02)


def test_elliptical_point_radial_genuinely_fails():
    # point-mass radial at strong correlation: the statement is about
    # that specific law and the sphere ratio 0.75 sits below Q = 1
    rho = 0.5
    A = np.linalg.cholesky(corr2(rho))
    v = elliptical_gpi_check(A, (1.0, 1.0), RadialSpec("point", value=2.0), 120000, RngStream(1023))
    assert v.status == "open"
    assert v.verdict == "Violated"
    assert v.rhs == 1.0
    assert v.detail["candidate_rerun"]["first_n"] == 120000
    assert v.n == 1200000


def test_elliptical_validation():
    with pytest.raises(ValueError):
        elliptical_gpi_check(np.array([[1.0, 0.5], [0.0, 1.0]]), (1, 1), RadialSpec("chisq"), 100, RngStream(0))
    with pytest.raises(ValueError):
        elliptical_gpi_check(np.eye(2), (1.0,), RadialSpec("chisq"), 100, RngStream(0))
    with pytest.raises(ValueError):
        elliptical_gpi_check(np.eye(2), (-1.0, 1.0), RadialSpec("chisq"), 100, RngStream(0))


def test_elliptical_zero_exponents_exact():
    v = elliptical_gpi_check(np.eye(3), (0.0, 0.0, 0.0), RadialSpec("chisq", dof=3), 100, RngStream(1024))
    assert v.verdict == "Holds" and v.lhs == 1.0 and v.rhs == 1.0


def test_elliptical_one_active_coordinate_keeps_the_radial_anchor(monkeypatch):
    import wishartgpi.checks as checks

    # one active coordinate: the sphere side is exactly 1, and so is Q_R,
    # whose numerator and denominator are the same moment; neither side
    # runs an estimator or takes a stream of the plan
    calls = []
    original = checks.mc_mean

    def recording(draw, n, rng, columns=None):
        calls.append((rng.seed, rng.stream_id))
        return original(draw, n, rng, columns)

    monkeypatch.setattr(checks, "mc_mean", recording)
    A = np.linalg.cholesky(random_correlation(3, RngStream(1029, 9)))
    alphas, rspec = (0.0, 1.5, 0.0), RadialSpec("lognormal", mu=0.2, sigma=0.6)
    plan = StreamPlan(1029, 4 * 1024)
    v = elliptical_gpi_check(A, alphas, rspec, 2000, plan)
    assert calls == [] and plan.allocated == 0
    assert radial_moment_ratio(rspec, alphas, 3) == 1.0
    assert v.lhs == 1.0 and v.rhs == 1.0 and v.rhs_se == 0.0 and v.detail["q_r"] == 1.0
    assert v.verdict == "Holds" and v.n == 1


def test_elliptical_one_active_power_never_refuses_a_cancelled_moment():
    # E R^3 with sigma = 4 is dominated by single draws, but it divides
    # itself out: both sides are exactly 1 and nothing is sampled
    v = elliptical_gpi_check(
        np.eye(2), (0.0, 3.0), RadialSpec("lognormal", sigma=4.0), 5000, RngStream(3)
    )
    assert v.verdict == "Holds" and v.lhs == 1.0 and v.rhs == 1.0 and v.n == 1


def test_elliptical_lognormal_heavy_tail_is_exact():
    # every lognormal moment is finite, however spread the law, and so is Q_R
    assert radial_moment_ratio(RadialSpec("lognormal", sigma=4.0), (3.0, 3.0), 2) == exp(-144.0)
    # exp(-1600) underflows to 0: the row holds, with the ratio to Q_R infinite
    v = elliptical_gpi_check(
        np.eye(2), (10.0, 10.0), RadialSpec("lognormal", sigma=4.0), 5000, RngStream(1025)
    )
    assert v.rhs == 0.0 and v.rhs_se == 0.0 and v.verdict == "Holds"
    assert v.detail["q_r"] == 0.0 and v.detail["lhs_over_q"] == inf


# ---------------------------------------------------------------- calibration


def _first_z(v) -> float:
    # the first pass's z, where a rerun replaced the row
    return v.detail.get("candidate_rerun", {"first_z": v.z})["first_z"]


def _assert_exact(v):
    # two blocks, one of them at most 2x2: every column has a closed-form mean
    assert v.n == 1 and v.lhs_se == v.rhs_se == 0.0 and abs(v.z) == inf


def _assert_calibrated(zs: dict):
    from scipy.stats import binom

    for kind, z in zs.items():
        assert 0.85 < np.std(z) < 1.15, f"{kind}: sd(z) = {np.std(z):.3f}"
    z = np.concatenate(list(zs.values()))
    rate = 2 * 0.0013499  # P(|N(0, 1)| > 3)
    lo, hi = binom.ppf(5e-4, z.size, rate), binom.isf(5e-4, z.size, rate)
    assert lo <= np.sum(np.abs(z) > 3) <= hi


def test_split_z_is_calibrated_where_the_statement_is_an_equality():
    # Scale matrix block-diagonal across the split: the blocks are
    # independent, every split statement below holds with equality, and
    # its z must be standard normal. At blocks (1, 1) the sandwich and
    # opp_upper are exact rows, so they run at (1, 1, 1), where the tilt
    # and the pair controls are in play.
    m = WishartModel(10.0, np.diag([1.0, 1.5]), BlockSpec((1, 1)))
    m3 = WishartModel(10.0, np.diag([1.0, 1.5, 0.8]), BlockSpec((1, 1, 1)))
    inverted = ExponentVector((0.5, 0.5), (-1, -1))
    inverted3 = ExponentVector((0.5, 0.5, 0.5), (-1, -1, -1))
    _assert_exact(gpi_sandwich(m, inverted, (2,), 2000, RngStream(1100, 0), bounds=("lower",))[2, "lower"])
    _assert_exact(opposite_gpi_upper(m, (0.5, 1.0), 2000, RngStream(1102, 0)))
    # the fourth moment is finite, so the sample variance behind z is steady
    quad = ExponentVector(tuple(4 * v for v in inverted3.values), inverted3.signs)
    assert finiteness_classify(m3.alpha, (1, 1, 1), quad) is Finiteness.FINITE_GUARANTEED
    seeds, n = 400, 2000
    zs = {"sandwich": [], "conj36": [], "opp_upper": []}
    for s in range(seeds):
        verdicts = {
            "sandwich": gpi_sandwich(m3, inverted3, (2,), n, RngStream(1100, s), bounds=("lower",))[2, "lower"],
            "conj36": tail_probability_conjecture_check(m, (9.3, 14.0), (2,), n, RngStream(1101, s))[2],
            "opp_upper": opposite_gpi_upper(m3, (0.5, 0.5, 1.0), n, RngStream(1102, s)),
        }
        for kind, v in verdicts.items():
            zs[kind].append(_first_z(v))
    _assert_calibrated(zs)


def test_controlled_z_is_calibrated_where_the_statement_is_an_equality():
    # Block-diagonal scale matrix: conj11, opp_lower, opp_upper and the
    # lower sandwich hold with equality. At blocks (1, 1) all four are
    # exact rows; at (1, 1, 1) every single-block and pair control is in
    # play, and so is the tilt weight wherever a power is inverted, so the
    # controlled z must still be standard normal.
    m = WishartModel(10.0, np.diag([1.0, 1.5]), BlockSpec((1, 1)))
    m3 = WishartModel(10.0, np.diag([1.0, 1.5, 0.8]), BlockSpec((1, 1, 1)))
    # inverted powers stay in the guaranteed window at four times their size
    for quad in (ExponentVector((2.0, 4.0, 4.0), (-1, 1, 1)), ExponentVector((2.0, 2.0, 2.0), (-1, -1, -1))):
        assert finiteness_classify(m3.alpha, (1, 1, 1), quad) is Finiteness.FINITE_GUARANTEED
    seeds, n = 400, 2000
    checks = {
        "conj11": lambda m, rng: product_moment_conjecture_check(m, ExponentVector((0.7, 1.3, 1.0)[: m.d], (1,) * m.d), n, rng),
        "opp_lower": lambda m, rng: opposite_gpi_lower(m, (0.5, 1.0, 1.0)[: m.d], n, rng),
        "opp_upper": lambda m, rng: opposite_gpi_upper(m, ((0.5, 1.0), (0.5, 0.5, 1.0))[m.d - 2], n, rng),
        "sandwich": lambda m, rng: gpi_sandwich(
            m, ExponentVector((0.5,) * m.d, (-1,) * m.d), (2,), n, rng, bounds=("lower",)
        )[2, "lower"],
    }
    pairs = [[1, 2], [1, 3], [2, 3]]
    zs = {}
    for j, (kind, check) in enumerate(checks.items()):
        _assert_exact(check(m, RngStream(1103 + j, 0)))
        verdicts = [check(m3, RngStream(1103 + j, s)) for s in range(seeds)]
        tilted = kind != "conj11"
        for v in verdicts:
            assert v.detail["controls"]["groups"] == [[1], [2], [3]] + pairs + [[]] * tilted
            assert v.detail["tilt"] == (0.5 if tilted else 0.0)
        zs[kind] = [_first_z(v) for v in verdicts]
    _assert_calibrated(zs)


def test_tilted_z_is_calibrated_at_a_correlated_scale_matrix():
    # Blocks (1, 1), alpha = 6, nu = (-2, -2): the plain estimator's second
    # moment is infinite (2 nu >= alpha/2), the tilted one's is bounded,
    # and the pair moment gives the true value at a correlated Sigma.
    sigma = np.array([[1.0, 0.6 * 1.5**0.5], [0.6 * 1.5**0.5, 1.5]])
    m = WishartModel(6.0, sigma, BlockSpec((1, 1)))
    exps = ExponentVector((2.0, 2.0), (-1, -1))
    exact = pair_moment(m, 0, 1, -2.0, -2.0)
    seeds, n = 400, 2000
    z = []
    for s in range(seeds):
        est = mc_product_moment(m, exps, n, RngStream(1110, s))
        z.append((est.mean - exact) / est.stderr)
    _assert_calibrated({"product moment": z})


def test_tilted_z_is_calibrated_for_two_by_two_blocks_at_rank_two():
    # Blocks (2, 2), alpha = 7, nu = (-1.5, -1.5): the plain estimator's
    # second moment is infinite (2 nu >= alpha/2 - 1/2), the tilted one's
    # bounded. Sigma has canonical correlations 0.6 and 0.3, so P^2 has
    # rank 2, and the two-eigenvalue pair moment is the true value.
    core = np.block([[np.eye(2), np.diag([0.6, 0.3])], [np.diag([0.6, 0.3]), np.eye(2)]])
    D = direct_sum(np.array([[1.0, 0.0], [0.5, 1.2]]), np.array([[0.9, 0.3], [0.0, 1.1]]))
    m = WishartModel(7.0, D @ core @ D.T, BlockSpec((2, 2)))
    exps = ExponentVector((1.5, 1.5), (-1, -1))
    exact = pair_moment(m, 0, 1, -1.5, -1.5)
    seeds, n = 400, 2000
    z = []
    for s in range(seeds):
        est = mc_product_moment(m, exps, n, RngStream(1111, s))
        z.append((est.mean - exact) / est.stderr)
    _assert_calibrated({"product moment": z})
