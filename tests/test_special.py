from fractions import Fraction
from itertools import permutations
from math import exp, factorial, lgamma, prod

import numpy as np
import pytest
from scipy.special import multigammaln

from wishartgpi.errors import CapExceeded, DomainError
from wishartgpi.special import (
    _hyp2f1_factors,
    hyp2f1_series,
    log_mvgamma,
    log_partition_gamma_lower,
    log_partition_gamma_upper,
    partitions_of,
    zonal_expansion_coefficients,
    zonal_polynomial,
    zonal_table,
)

rng = np.random.default_rng(99)


# ---------------------------------------------------------------- mvgamma


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_log_mvgamma_matches_scipy(p):
    for nu in (0.5 * (p - 1) + 0.3, p + 0.25, 2 * p, 17.5):
        assert log_mvgamma(p, nu) == pytest.approx(multigammaln(nu, p), rel=1e-13)


def test_log_mvgamma_domain():
    with pytest.raises(DomainError):
        log_mvgamma(3, 1.0)
    with pytest.raises(DomainError):
        log_mvgamma(0, 1.0)
    # boundary is excluded
    with pytest.raises(DomainError):
        log_mvgamma(2, 0.5)


def gen_pochhammer(a, kappa):
    # prod_j (a - (j-1)/2)_{k_j} with rising factorials
    out = 0.0
    for j, k in enumerate(kappa):
        base = a - 0.5 * j
        out += lgamma(base + k) - lgamma(base)
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_partition_gamma_upper_is_pochhammer_shift(m):
    # Gamma_m(a, kappa) = (a)_kappa * Gamma_m(a) with the half-step
    # generalized rising factorial.
    for kappa in [(1,), (2,), (2, 1), (3, 2, 1)]:
        if len(kappa) > m:
            continue
        for a in (0.5 * (m - 1) + 0.4, m + 1.3, 9.0):
            got = log_partition_gamma_upper(m, a, kappa) - log_mvgamma(m, a)
            assert got == pytest.approx(gen_pochhammer(a, kappa), abs=1e-11)


def test_partition_gamma_lower_unshifts_to_mvgamma():
    for m in (1, 2, 3):
        assert log_partition_gamma_lower(m, 4.7, ()) == pytest.approx(
            log_mvgamma(m, 4.7), rel=1e-14
        )
        assert log_partition_gamma_upper(m, 4.7, (0,) * m) == pytest.approx(
            log_mvgamma(m, 4.7), rel=1e-14
        )


def test_partition_gamma_lower_scalar_case():
    # m=1: Gamma(b - k) directly
    assert log_partition_gamma_lower(1, 5.0, (2,)) == pytest.approx(lgamma(3.0))
    assert log_partition_gamma_upper(1, 5.0, (2,)) == pytest.approx(lgamma(7.0))


def test_partition_gamma_domain_errors():
    with pytest.raises(DomainError):
        log_partition_gamma_lower(2, 2.0, (2,))  # needs b > k_1 + 1/2
    with pytest.raises(DomainError):
        log_partition_gamma_upper(2, 0.1, (0, 0))
    with pytest.raises(DomainError):
        log_partition_gamma_upper(2, 3.0, (1, 2))  # not a partition
    with pytest.raises(DomainError):
        log_partition_gamma_upper(1, 3.0, (1, 1))  # too many parts


# ---------------------------------------------------------------- partitions


def test_partition_counts():
    want = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11}
    for k, n in want.items():
        assert len(partitions_of(k)) == n


def test_partitions_reverse_lex_and_max_parts():
    parts = partitions_of(4)
    assert parts[0] == (4,)
    assert parts[-1] == (1, 1, 1, 1)
    assert parts == sorted(parts, reverse=True)
    assert partitions_of(4, max_parts=2) == [(4,), (3, 1), (2, 2)]
    with pytest.raises(DomainError):
        partitions_of(-1)


# ---------------------------------------------------------------- zonal


def test_zonal_weight2_table_frozen():
    t = zonal_table(2, 2)
    assert t.coeffs[(2,)] == {(2,): Fraction(1), (1, 1): Fraction(2, 3)}
    assert t.coeffs[(1, 1)] == {(1, 1): Fraction(4, 3)}


def test_zonal_weight3_table_frozen():
    t = zonal_table(3, 3)
    assert t.coeffs[(3,)] == {
        (3,): Fraction(1),
        (2, 1): Fraction(3, 5),
        (1, 1, 1): Fraction(2, 5),
    }
    assert t.coeffs[(2, 1)] == {(2, 1): Fraction(12, 5), (1, 1, 1): Fraction(18, 5)}
    assert t.coeffs[(1, 1, 1)] == {(1, 1, 1): Fraction(2)}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_zonal_normalization_sums_to_trace_power(k, p):
    x = rng.uniform(0.2, 3.0, size=(40, p))
    total = np.zeros(40)
    for kappa in partitions_of(k, max_parts=p):
        total += zonal_polynomial(kappa, x)
    want = np.sum(x, axis=1) ** k
    assert np.allclose(total, want, rtol=1e-8)


def test_zonal_scalar_and_batch_agree():
    x = rng.uniform(0.5, 2.0, size=(7, 3))
    batch = zonal_polynomial((2, 1), x)
    assert batch.shape == (7,)
    for i in range(7):
        assert zonal_polynomial((2, 1), x[i]) == pytest.approx(batch[i], rel=1e-12)


def test_zonal_too_many_parts_and_cap():
    with pytest.raises(DomainError):
        zonal_polynomial((1, 1, 1), np.ones(2))
    with pytest.raises(CapExceeded):
        zonal_table(13, 2)
    with pytest.raises(DomainError):
        zonal_table(-1, 2)
    with pytest.raises(DomainError):
        zonal_table(2, 0)


@pytest.mark.parametrize("k", range(1, 11))
def test_zonal_table_in_m_variables_is_the_full_table_restricted(k):
    # rows with at most m parts depend only on each other, exactly
    full = zonal_table(k, k)
    for m in range(1, 6):
        table = zonal_table(k, m)
        assert table.order == tuple(lam for lam in full.order if len(lam) <= m)
        assert table.coeffs == {
            kappa: {lam: c for lam, c in row.items() if len(lam) <= m}
            for kappa, row in full.coeffs.items()
            if len(kappa) <= m
        }
    assert zonal_table(k, k + 2).coeffs == full.coeffs


def test_zonal_laplace_beltrami_eigenfunction():
    """Every table row solves the defining symmetric eigenproblem.

    C_kappa must satisfy D C = (rho_kappa + k(p-1)) C for the operator
    D = sum_i x_i^2 d^2/dx_i^2 + sum_{i != j} x_i^2/(x_i - x_j) d/dx_i
    with rho_kappa = sum_i k_i(k_i - i). Together with unitriangularity
    in the monomial basis and the trace-power sum rule this pins the
    polynomials down uniquely, so it is an independent oracle for the
    recurrence-built table. The check is exact polynomial arithmetic over
    the rationals: the i, j and j, i terms pair into
    (x_i^2 dC/dx_i - x_j^2 dC/dx_j) / (x_i - x_j), a polynomial because C
    is symmetric, so each pair is divided out with zero remainder.
    """
    sympy = pytest.importorskip("sympy")
    for k in (2, 3, 4):
        p = k
        xs = sympy.symbols(f"x0:{p}")
        table = zonal_table(k, k)
        for kappa in partitions_of(k, max_parts=p):
            terms = {}
            for lam, c in table.coeffs[kappa].items():
                lam_p = tuple(lam) + (0,) * (p - len(lam))
                for perm in set(permutations(lam_p)):
                    terms[perm] = sympy.Rational(c.numerator, c.denominator)
            poly = sympy.Poly.from_dict(terms, *xs, domain="QQ")
            grads = [poly.diff(x) for x in xs]
            applied = sum(
                (sympy.Poly(x**2, *xs, domain="QQ") * g.diff(x) for x, g in zip(xs, grads)),
                sympy.Poly(0, *xs, domain="QQ"),
            )
            for i in range(p):
                for j in range(i + 1, p):
                    num = (
                        sympy.Poly(xs[i] ** 2, *xs, domain="QQ") * grads[i]
                        - sympy.Poly(xs[j] ** 2, *xs, domain="QQ") * grads[j]
                    )
                    quotient, remainder = num.div(sympy.Poly(xs[i] - xs[j], *xs, domain="QQ"))
                    assert remainder.is_zero
                    applied += quotient
            rho = sum(ki * (ki - idx) for idx, ki in enumerate(kappa, start=1))
            eig = rho + k * (p - 1)
            assert applied == poly * eig


# ------------------------------------------------- pair-product expansion


def test_expansion_coefficients_small_p_frozen():
    assert zonal_expansion_coefficients(1) == {(): 1.0}
    c2 = zonal_expansion_coefficients(2)
    assert set(c2) == {(1,)}
    with pytest.raises(TypeError):  # the memoized mapping is shared, so read-only
        c2[(1,)] = 0.0
    assert c2[(1,)] == pytest.approx(1.0, abs=1e-10)
    c3 = zonal_expansion_coefficients(3)
    assert c3[(3,)] == pytest.approx(0.0, abs=1e-10)
    assert c3[(2, 1)] == pytest.approx(5 / 12, abs=1e-10)
    assert c3[(1, 1, 1)] == pytest.approx(0.25, abs=1e-10)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_expansion_reconstructs_pair_product(p):
    coeffs = zonal_expansion_coefficients(p)
    x = rng.uniform(0.3, 2.7, size=(30, p))
    iu, ju = np.triu_indices(p, k=1)
    want = np.prod(x[:, iu] + x[:, ju], axis=1)
    got = np.zeros(30)
    for kappa, a in coeffs.items():
        if a != 0.0:
            got += a * zonal_polynomial(kappa, x)
    assert np.allclose(got, want, rtol=1e-8)


def test_expansion_cap():
    with pytest.raises(CapExceeded):
        zonal_expansion_coefficients(6)


# ------------------------------------------------------------- exactness


def _pair_product(x):
    x = np.asarray(x, dtype=float)
    iu, ju = np.triu_indices(len(x), k=1)
    return float(np.prod(x[iu] + x[ju]))


@pytest.mark.parametrize("p", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "spectrum", [(0.01, 0.1, 1.0, 10.0, 100.0), (1e-3, 2e-3, 5e-3, 1.0, 3.0)]
)
def test_expansion_is_exact_on_wide_spectra(p, spectrum):
    # Far outside any fitting range: spread over four decades, and three
    # tiny eigenvalues next to two of order one.
    x = np.array(spectrum[-p:])
    got = sum(a * zonal_polynomial(kappa, x) for kappa, a in zonal_expansion_coefficients(p).items())
    assert got == pytest.approx(_pair_product(x), rel=1e-12)


P5_EXPANSION = {
    (4, 3, 2, 1): Fraction(55, 145152),
    (4, 3, 1, 1, 1): Fraction(1, 5120),
    (4, 2, 2, 2): Fraction(11, 35840),
    (4, 2, 2, 1, 1): Fraction(1, 4200),
    (3, 3, 3, 1): Fraction(1, 2560),
    (3, 3, 2, 2): Fraction(1, 2240),
    (3, 3, 2, 1, 1): Fraction(5, 14336),
    (3, 2, 2, 2, 1): Fraction(61, 215040),
    (2, 2, 2, 2, 2): Fraction(1, 3072),
}


def _monomial_fractions(x, k):
    """m_lam at a rational spectrum x, exactly, for every partition of k with <= len(x) parts."""
    p = len(x)
    out = {}
    for lam in partitions_of(k, max_parts=p):
        total = Fraction(0)
        for e in set(permutations(lam + (0,) * (p - len(lam)))):
            term = Fraction(1)
            for xi, ei in zip(x, e):
                term *= xi**ei
            total += term
        out[lam] = total
    return out


def _zonal_fraction(kappa, mono):
    return sum(c * mono[lam] for lam, c in zonal_table(sum(kappa), 5).coeffs[kappa].items() if lam in mono)


def test_p5_expansion_coefficients_are_exact_rationals():
    coeffs = zonal_expansion_coefficients(5)
    assert set(coeffs) == set(partitions_of(10, max_parts=5))
    assert coeffs[(2, 2, 2, 2, 2)] == 1 / 3072
    assert coeffs[(5, 5)] == 0.0 and coeffs[(10,)] == 0.0
    for kappa, a in coeffs.items():
        assert a == float(P5_EXPANSION.get(kappa, 0))
    # The frozen rationals reproduce the pair product exactly, in rational
    # arithmetic, at spectra that pin down all 30 coefficients.
    for x in [(1, 2, 3, 5, 7), (Fraction(1, 2), Fraction(2, 3), 3, Fraction(7, 5), 11), (1, 1, 2, 2, 9)]:
        x = tuple(Fraction(v) for v in x)
        mono = _monomial_fractions(x, 10)
        series = sum(a * _zonal_fraction(kappa, mono) for kappa, a in P5_EXPANSION.items())
        assert series == prod(x[i] + x[j] for i in range(5) for j in range(i + 1, 5))


def test_zonal_polynomial_matches_exact_table_rows():
    spectra = [
        tuple(Fraction(n, d) for n, d in [(1, 3), (5, 7), (2, 1), (9, 4), (1, 10)]),
        tuple(Fraction(n, d) for n, d in [(3, 2), (1, 8), (7, 3), (1, 1), (6, 5)]),
    ]
    batch = np.array([[float(v) for v in x] for x in spectra])
    for k in range(11):
        monos = [_monomial_fractions(x, k) for x in spectra]
        for kappa in partitions_of(k, max_parts=5):
            want = [float(_zonal_fraction(kappa, mono)) for mono in monos]
            got = zonal_polynomial(kappa, batch)
            assert got.shape == (2,)
            for i in range(2):
                assert zonal_polynomial(kappa, batch[i]) == pytest.approx(want[i], rel=1e-12)
                assert got[i] == pytest.approx(want[i], rel=1e-12)


# ------------------------------------------- Gauss series, two eigenvalues


def _hyp2f1_term(a, b, c, kappa, x):
    # (a)_kappa (b)_kappa / ((c)_kappa |kappa|!) C_kappa(x), from the tables
    def poch(a):
        return prod(a - 0.5 * j + i for j, part in enumerate(kappa) for i in range(part))

    return poch(a) * poch(b) / (poch(c) * factorial(sum(kappa))) * zonal_polynomial(kappa, x)


TWO_EIGENVALUE_CASES = [
    (-0.7, 1.3, 3.5, 0.6, 0.3),
    (1.2, -0.4, 2.5, 0.9, 0.9),
    (-1.6, -2.3, 4.0, 0.45, 0.05),
    (2.2, 0.8, 1.7, 0.3, 0.0),
]


@pytest.mark.parametrize("a, b, c, x1, x2", TWO_EIGENVALUE_CASES)
def test_hyp2f1_terms_match_the_zonal_tables_to_weight_12(a, b, c, x1, x2):
    # every term u[k2] v[k1] w[k1 - k2] against the exact zonal tables
    u, v, w = _hyp2f1_factors(a, b, c, x1, x2, 13)
    for k in range(13):
        for kappa in partitions_of(k, max_parts=2):
            k1, k2 = (kappa + (0, 0))[:2]
            want = _hyp2f1_term(a, b, c, kappa, [x1, x2]) if kappa else 1.0
            assert u[k2] * v[k1] * w[k1 - k2] == pytest.approx(want, rel=1e-13, abs=1e-300)


def test_hyp2f1_series_is_the_scalar_series_at_x2_zero():
    mpmath = pytest.importorskip("mpmath")
    for a, b, c, x in [(-0.7, 1.3, 3.5, 0.99), (2.2, -1.4, 4.5, 0.97), (0.5, 0.5, 1.0, 0.9), (-0.3, -0.8, 2.0, 0.2)]:
        want = float(mpmath.hyp2f1(a, b, c, x))
        assert hyp2f1_series(a, b, c, x) == hyp2f1_series(a, b, c, x, 0.0) == pytest.approx(want, rel=1e-13)
    assert hyp2f1_series(0.7, -1.2, 3.0, 0.0, 0.0) == 1.0


def test_hyp2f1_series_terminates_at_nonpositive_integers():
    # (a)_kappa vanishes once k1 > -a, so the sum is the weight <= 2(-a) part
    for a, b, c, x1, x2 in [(-2.0, 1.7, 3.5, 0.98, 0.9), (1.3, -3.0, 2.5, 0.6, 0.45), (-1.0, -1.0, 4.0, 0.99, 0.99)]:
        top = int(-min(a, b))
        want = 1.0 + sum(
            _hyp2f1_term(a, b, c, kappa, [x1, x2])
            for k in range(1, 2 * top + 1)
            for kappa in partitions_of(k, max_parts=2)
        )
        assert hyp2f1_series(a, b, c, x1, x2) == pytest.approx(want, rel=1e-14)


def test_hyp2f1_series_matches_the_zonal_sum_at_small_eigenvalues():
    # at x1 + x2 = 0.05 the terms past weight 12 are below 1e-16 of the sum
    for a, b, c, x1, x2 in TWO_EIGENVALUE_CASES:
        x = [0.05 * x1 / (x1 + x2), 0.05 * x2 / (x1 + x2)]
        want = 1.0 + sum(
            _hyp2f1_term(a, b, c, kappa, x) for k in range(1, 13) for kappa in partitions_of(k, max_parts=2)
        )
        assert hyp2f1_series(a, b, c, *x) == pytest.approx(want, rel=1e-13)


def test_hyp2f1_series_domain_and_cap():
    for x1, x2, c in [(1.0, 0.0, 2.0), (0.3, 0.5, 2.0), (0.3, -0.1, 2.0), (0.5, 0.2, 0.5)]:
        with pytest.raises(DomainError):
            hyp2f1_series(0.5, 0.5, c, x1, x2)
    # as x1 -> 1 the slices need more than the cap of terms
    for x2 in (0.0, 0.5, 1.0 - 1e-9):
        with pytest.raises(CapExceeded):
            hyp2f1_series(0.5, 0.5, 1.0, 1.0 - 1e-9, x2)
