"""End-to-end acceptance checks.

Each test is one acceptance criterion, self-contained and seeded, and
prints a PASS line with its measured runtime. Tolerances follow the
stated contract: Monte Carlo oracles agree within 4 pooled standard
errors, exact routes within fixed relative bounds, and no proved
inequality may report Violated at z = 3.
"""

import json
import time
from math import exp, hypot, sqrt

import numpy as np
import pytest

from wishartgpi.bounds import (
    bound_integral_beta_1d,
    integral_quadrature_1d,
    lyapunov_operator_determinant,
    matrix_square_jacobian,
    minor_bound_integral,
)
from wishartgpi.checks import (
    BernsteinSpec,
    RadialSpec,
    bernstein_pair_check,
    elliptical_gpi_check,
    eigen_gpi_check,
    gpi_sandwich,
    lt_order_gap,
    opposite_gpi_lower,
    opposite_gpi_upper,
    product_moment_conjecture_check,
    radial_moment_ratio,
    tail_probability_conjecture_check,
)
from wishartgpi.cli import main
from wishartgpi.harness import parse_config, render_csv, run
from wishartgpi.linalg import BlockSpec, direct_sum
from wishartgpi.montecarlo import ExponentVector
from wishartgpi.special import partitions_of, zonal_polynomial
from wishartgpi.wishart import (
    RngStream,
    WishartModel,
    laplace_transform,
    minor_moment,
    random_correlation,
    sample,
)


class Budget:
    """Runtime guard: fail if a criterion exceeds its stated budget."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.1f}s, budget {self.seconds}s"
            )
            print(f"PASS {self.name} ({elapsed:.1f}s)")
        return False


def test_criterion_01_minor_moment_closed_form_vs_monte_carlo():
    with Budget("criterion-01 minor moment oracle", 60):
        param = np.random.default_rng(101)
        for case in range(30):
            p = int(param.integers(1, 4))
            alpha = float(param.uniform(p + 0.5, 20.0))
            window = alpha / 2.0 - (p - 1) / 2.0
            nu = (-0.4 * window, 0.5, 1.0, 2.5)[case % 4]
            sigma = random_correlation(p, RngStream(5000 + case))
            model = WishartModel(alpha, sigma)
            draws = sample(model, RngStream(6000 + case), size=200000)
            vals = np.exp(nu * np.linalg.slogdet(draws)[1])
            mc, se = vals.mean(), vals.std(ddof=1) / sqrt(vals.size)
            want = minor_moment(model, 0, nu)
            assert abs(want - mc) < 4 * se, (
                f"case {case}: p={p} alpha={alpha:.2f} nu={nu:.3f}: "
                f"closed form {want:.6g} vs MC {mc:.6g} +- {se:.2g}"
            )


def test_criterion_02_laplace_transform_closed_form_vs_monte_carlo():
    with Budget("criterion-02 transform oracle", 30):
        param = np.random.default_rng(102)
        for case in range(20):
            p = int(param.integers(1, 7))
            alpha = float(param.uniform(p + 0.5, 18.0))
            sigma = random_correlation(p, RngStream(5100 + case))
            g = param.standard_normal((p, p))
            t0 = (g @ g.T) / p
            # keep E etr(-TX) order one so the CLT band is meaningful
            u = float(param.uniform(0.1, 1.5))
            T = (u / (alpha * float(np.trace(t0 @ sigma)))) * t0
            model = WishartModel(alpha, sigma)
            draws = sample(model, RngStream(6100 + case), size=100000)
            vals = np.exp(-np.einsum("ij,nji->n", T, draws))
            mc, se = vals.mean(), vals.std(ddof=1) / sqrt(vals.size)
            want = laplace_transform(model, T)
            assert abs(want - mc) < 4 * se, (
                f"case {case}: p={p}: {want:.6g} vs {mc:.6g} +- {se:.2g}"
            )


def _random_lt_instance(param, case, coupled=True):
    d = int(param.integers(2, 4))
    sizes = tuple(int(x) for x in param.integers(1, 3, size=d))
    p = sum(sizes)
    k = int(param.integers(2, d + 1))
    if coupled:
        sigma = random_correlation(p, RngStream(5200, case))
    else:
        cut = BlockSpec(sizes).offsets[k - 1]
        left = random_correlation(cut, RngStream(5300, case)) if cut else np.empty((0, 0))
        right = random_correlation(p - cut, RngStream(5400, case))
        sigma = direct_sum(left, right) if cut else right
    model = WishartModel(p + float(param.uniform(0.5, 4.0)), sigma, BlockSpec(sizes))
    ts = []
    for s in sizes:
        g = param.standard_normal((s, s))
        ts.append(float(param.uniform(0.05, 0.6)) * (g @ g.T))
    return model, k, ts


def test_criterion_03_transform_order_gap_nonnegative_and_tight():
    with Budget("criterion-03 transform order", 10):
        param = np.random.default_rng(103)
        worst = 0.0
        for case in range(1000):
            model, k, ts = _random_lt_instance(param, case, coupled=True)
            gap = lt_order_gap(model, k, ts)
            worst = min(worst, gap)
            assert gap >= -1e-12, f"case {case}: gap {gap}"
        for case in range(100):
            model, k, ts = _random_lt_instance(param, case, coupled=False)
            gap = lt_order_gap(model, k, ts)
            assert abs(gap) <= 1e-12, f"block-diagonal case {case}: gap {gap}"


def test_criterion_04_joint_inverse_moment_lower_bound_sweep():
    with Budget("criterion-04 lower bound sweep", 300):
        exps3 = ExponentVector((0.4, 0.4, 0.4), (-1, -1, -1))
        for case in range(20):
            sigma = random_correlation(3, RngStream(5500 + case))
            model = WishartModel(5.0, sigma, BlockSpec((1, 1, 1)))
            # both splits from one sample, on the stream the k = 2 check used alone
            out = gpi_sandwich(
                model, exps3, (2, 3), 200000, RngStream(104, 2 * case + 2),
                bounds=("lower",),
            )
            for k in (2, 3):
                v = out[k, "lower"]
                assert v.verdict != "Violated", f"case {case} k={k}: z={v.z:.2f}"
        exps5 = ExponentVector((0.7, 0.4, 0.7), (-1, -1, -1))
        for case in range(10):
            sigma = random_correlation(5, RngStream(5600 + case))
            model = WishartModel(10.0, sigma, BlockSpec((2, 1, 2)))
            out = gpi_sandwich(
                model, exps5, (2, 3), 200000, RngStream(204, 2 * case + 2),
                bounds=("lower",),
            )
            for k in (2, 3):
                v = out[k, "lower"]
                assert v.verdict != "Violated", f"block case {case} k={k}: z={v.z:.2f}"


def test_criterion_05_joint_inverse_moment_upper_bound():
    with Budget("criterion-05 upper bound", 60):
        exps = ExponentVector((0.5, 0.5), (-1, -1))
        for case in range(10):
            sigma = random_correlation(2, RngStream(5700 + case))
            model = WishartModel(6.0, sigma, BlockSpec((1, 1)))
            out = gpi_sandwich(
                model, exps, (2,), 100000, RngStream(105, case), bounds=("upper",)
            )
            v = out[2, "upper"]
            pooled = hypot(v.lhs_se, v.rhs_se)
            margin = v.rhs - v.lhs  # oriented for the <= direction
            assert margin >= -3 * pooled, f"case {case}: margin {margin:.4g}"
            assert v.verdict != "Violated"


def test_criterion_06_integral_jacobian_and_zonal_oracles():
    with Budget("criterion-06 exact-route oracles", 30):
        param = np.random.default_rng(106)
        # (a) scalar integral: closed form vs series vs quadrature
        for case in range(50):
            alpha = float(param.uniform(1.5, 24.0))
            nu = float(param.uniform(0.04, 0.96)) * alpha / 2.0
            m = float(param.uniform(0.2, 4.0))
            beta_val = bound_integral_beta_1d(m, alpha, nu)
            series = minor_bound_integral(np.array([[m]]), alpha, nu)
            quadr = integral_quadrature_1d(m, alpha, nu)
            assert abs(series / beta_val - 1.0) < 1e-10
            assert abs(quadr / beta_val - 1.0) < 1e-6
        # (b) matrix-square jacobian vs the Lyapunov operator determinant
        for p in (1, 2, 3, 4):
            for case in range(100):
                g = param.standard_normal((p, p + 1))
                X = g @ g.T + 0.3 * np.eye(p)
                a = matrix_square_jacobian(X)
                b = lyapunov_operator_determinant(X)
                assert abs(a / b - 1.0) < 1e-8
        # (c) zonal normalization: sum over a weight equals the trace power
        for p in (1, 2, 3, 4):
            for k in range(1, 7):
                x = param.uniform(0.2, 3.0, size=(20, p))
                total = np.zeros(20)
                for kappa in partitions_of(k, max_parts=p):
                    total += zonal_polynomial(kappa, x)
                assert np.allclose(total, np.sum(x, axis=1) ** k, rtol=1e-8)


def test_criterion_07_opposite_inequalities_sweep():
    with Budget("criterion-07 opposite pair", 300):
        param = np.random.default_rng(107)
        shapes = [(1, 1), (2, 1), (1, 1, 1), (2, 1, 2)]
        for case in range(20):
            sizes = shapes[case % len(shapes)]
            p = sum(sizes)
            alpha = 10.0
            block_diag = case % 4 == 3
            sigma = (
                np.eye(p)
                if block_diag
                else random_correlation(p, RngStream(5800 + case))
            )
            model = WishartModel(alpha, sigma, BlockSpec(sizes))
            # inverted magnitudes stay in the guaranteed-finite window
            nus = tuple(
                float(param.uniform((s - 1) / 2 + 0.1, min(2.0, alpha / 2 - (s - 1) / 2 - 0.5)))
                for s in sizes
            )
            v = opposite_gpi_upper(model, nus, 100000, RngStream(117, case))
            assert v.verdict != "Violated", f"upper case {case}: z={v.z:.2f}"
            if block_diag:
                assert _equality_undecided(v), f"upper block-diagonal case {case}: z={v.z:.2f}"
        for case in range(20):
            sizes = (2, 2) if case % 2 else (1, 1)
            p = sum(sizes)
            block_diag = case % 5 == 4
            sigma = (
                np.eye(p)
                if block_diag
                else random_correlation(p, RngStream(5900 + case))
            )
            model = WishartModel(8.0, sigma, BlockSpec(sizes))
            lo = (sizes[0] - 1) / 2 + 0.1
            nus = (float(param.uniform(lo, lo + 1.0)), float(param.uniform(0.3, 1.5)))
            v = opposite_gpi_lower(model, nus, 100000, RngStream(217, case))
            assert v.verdict != "Violated", f"lower case {case}: z={v.z:.2f}"
            assert v.status == "proved"
            if block_diag:
                assert _equality_undecided(v), f"lower block-diagonal case {case}: z={v.z:.2f}"


def _equality_undecided(v) -> bool:
    # At an equality a Monte Carlo z must not be decisive; an exact row
    # (n = 1: two blocks, one of them at most 2x2) must meet it to rounding.
    if v.n == 1:
        return abs(v.margin) <= 1e-12 * abs(v.rhs)
    return abs(v.z) < 3


def _bernstein_spec(param, p, atoms):
    out = []
    for _ in range(atoms):
        g = param.standard_normal((p, p))
        out.append((float(param.uniform(0.5, 2.0)), 0.5 * (g @ g.T) + 0.2 * np.eye(p)))
    return BernsteinSpec(np.zeros((p, p)), tuple(out))


def test_criterion_08_bernstein_functional_pairs():
    with Budget("criterion-08 bernstein pairs", 120):
        param = np.random.default_rng(108)
        for case in range(20):
            p = 2 if case % 2 else 1
            independent = case % 5 == 4
            total = 2 * p
            sigma = (
                np.eye(total)
                if independent
                else random_correlation(total, RngStream(6200 + case))
            )
            model = WishartModel(2 * total + 1.0, sigma, BlockSpec((p, p)))
            atoms = 3 if case % 4 >= 2 else 1
            f = _bernstein_spec(param, p, atoms)
            g = _bernstein_spec(param, p, atoms)
            # exact: the margin is a nonnegative sum of Laplace-transform gaps
            v = bernstein_pair_check(model, f, g)
            assert v.verdict == "Holds" and v.n == 1, f"case {case}: margin {v.margin}"
            assert v.detail["gap"] >= 0.0, f"case {case}: gap {v.detail['gap']}"
            if independent:
                assert v.detail["gap"] == 0.0, f"case {case}: gap {v.detail['gap']}"


def test_criterion_09_eigenvalue_power_products():
    with Budget("criterion-09 eigenvalue inequality", 180):
        param = np.random.default_rng(109)
        for case in range(20):
            p = 2 if case % 2 else 3
            alpha = 4.0 if case % 4 < 2 else 8.0
            sigma = random_correlation(p, RngStream(6300 + case))
            model = WishartModel(alpha, sigma)
            nus = tuple(float(x) for x in param.uniform(0.0, 2.5, size=p))
            # every split from one sample, on the stream the k = 2 check used alone
            out = eigen_gpi_check(model, nus, range(2, p + 1), 200000, RngStream(119, 4 * case + 2))
            assert list(out) == list(range(2, p + 1))
            for k, v in out.items():
                assert v.verdict != "Violated", f"case {case} k={k}: z={v.z:.2f}"
        # determinant identity: all powers one makes the joint side E|X|
        for case in range(4):
            p = 2 + case % 2
            sigma = random_correlation(p, RngStream(6400 + case))
            model = WishartModel(6.0, sigma)
            v = eigen_gpi_check(model, (1.0,) * p, (2,), 200000, RngStream(219, case))[2]
            want = minor_moment(model, 0, 1.0)
            assert abs(v.lhs - want) < 4 * v.lhs_se, (
                f"identity case {case}: {v.lhs:.6g} vs {want:.6g}"
            )


def test_criterion_10_conjecture_checks_proved_and_open():
    with Budget("criterion-10 conjecture explorers", 300):
        param = np.random.default_rng(110)
        shapes2 = [(1, 1), (2, 1), (1, 2), (2, 2)]
        for case in range(20):
            sizes = shapes2[case % 4]
            p = sum(sizes)
            sigma = random_correlation(p, RngStream(6500 + case))
            model = WishartModel(p + 3.0, sigma, BlockSpec(sizes))
            exps = ExponentVector(
                tuple(float(x) for x in param.uniform(0.2, 1.5, size=2)), (1, 1)
            )
            v = product_moment_conjecture_check(model, exps, 30000, RngStream(120, case))
            assert v.status == "proved"
            assert v.verdict != "Violated", f"conj11 case {case}: z={v.z:.2f}"
        for case in range(20):
            d = 2 + case % 2
            sigma = random_correlation(d, RngStream(6600 + case))
            model = WishartModel(d + 2.5, sigma, BlockSpec((1,) * d))
            v = tail_probability_conjecture_check(
                model, None, (2,), 30000, RngStream(220, case)
            )[2]
            assert v.status == "proved"
            assert v.verdict != "Violated", f"conj36 case {case}: z={v.z:.2f}"
        # open shapes run to completion and emit harness rows
        open_conj11 = parse_config(
            {
                "inequality_id": "conj11",
                "d": 3,
                "block_sizes": [1, 1, 2],
                "alpha": 7.0,
                "sigma_source": {"kind": "random", "count": 2},
                "exponents": {"values": [0.5, 0.8, 0.6], "signs": [1, 1, 1]},
                "n_samples": 20000,
                "seed": 321,
            }
        )
        rows = run(open_conj11)
        assert len(rows) == 4 and all(r.status == "open" for r in rows)
        open_conj36 = parse_config(
            {
                "inequality_id": "conj36",
                "d": 2,
                "block_sizes": [2, 2],
                "alpha": 9.0,
                "sigma_source": {"kind": "random", "count": 2},
                "n_samples": 20000,
                "seed": 322,
            }
        )
        rows = run(open_conj36)
        assert len(rows) == 2 and all(r.status == "open" for r in rows)


def test_criterion_11_elliptical_ratio_and_radial_laws():
    with Budget("criterion-11 elliptical variant", 60):
        assert radial_moment_ratio(RadialSpec("chisq"), (1.0, 1.0), 2) == 0.5
        rho = 0.5
        A = np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]]))
        v = elliptical_gpi_check(
            A, (1.0, 1.0), RadialSpec("chisq", dof=2), 200000, RngStream(111)
        )
        assert v.verdict == "Holds"
        rel_se = v.lhs_se / v.rhs
        assert abs(v.detail["lhs_over_q"] - (1 + 2 * rho * rho)) < 4 * rel_se
        param = np.random.default_rng(211)
        for case in range(10):
            d = int(param.integers(2, 5))
            alphas = tuple(float(x) for x in param.uniform(0.2, 1.2, size=d))
            if case % 2:
                rspec = RadialSpec("point", value=float(param.uniform(0.5, 3.0)))
            else:
                rspec = RadialSpec(
                    "lognormal", mu=float(param.uniform(-0.5, 0.5)), sigma=0.8
                )
            q = radial_moment_ratio(rspec, alphas, d)
            assert q <= 1.0, f"case {case}: Q={q}"
        # scale invariance Q_{kR} = Q_R at k = 7
        base = RadialSpec("lognormal", mu=0.2, sigma=0.7)
        alphas = (0.8, 0.6, 0.9)
        q1 = radial_moment_ratio(base, alphas, 3)
        q7 = radial_moment_ratio(base.scaled(7.0), alphas, 3)
        assert q1 == q7
        assert radial_moment_ratio(RadialSpec("point", value=2.0).scaled(7.0), alphas, 3) == 1.0


def test_criterion_12_csv_byte_identical_across_workers(tmp_path):
    with Budget("criterion-12 determinism", 60):
        sheets = []
        for w in (1, 2, 8):
            cfg = {
                "inequality_id": "sandwich",
                "d": 3,
                "block_sizes": [1, 1, 1],
                "alpha": 5.0,
                "sigma_source": {"kind": "random", "count": 2},
                "exponents": {"values": [0.4, 0.4, 0.4], "signs": [-1, -1, -1]},
                "n_samples": 30000,
                "seed": 424242,
                "bound": "both",
                "output_path": str(tmp_path / f"det-w{w}"),
            }
            cfg_path = tmp_path / f"cfg-w{w}.json"
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            assert main(["run", "--config", str(cfg_path), "--workers", str(w)]) == 0
            sheets.append((tmp_path / f"det-w{w}.csv").read_bytes())
        assert sheets[0] == sheets[1] == sheets[2]
        # header + 2 sigmas x 2 splits x 2 bound sides
        assert sheets[0].count(b"\n") == 9
