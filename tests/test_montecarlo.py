import sys
from math import hypot

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wishartgpi.errors import (
    DegenerateEvent,
    DegenerateVariance,
    InfiniteMoment,
)
from wishartgpi.linalg import BlockSpec
from wishartgpi.montecarlo import (
    CHUNK_DRAWS,
    ROLE_STRIDE,
    ExponentVector,
    Finiteness,
    JointEstimate,
    MCEstimate,
    StreamPlan,
    as_plan,
    finiteness_classify,
    mc_mean,
    mc_probability,
    mc_product_moment,
    product_columns,
)
from wishartgpi.wishart import RngStream, WishartModel, minor_moment, random_correlation


def normals(gen, m):
    return gen.standard_normal(m)


# ---------------------------------------------------------------- estimates


def test_mcestimate_validation():
    with pytest.raises(ValueError):
        MCEstimate(1.0, -0.1, 10)
    with pytest.raises(ValueError):
        MCEstimate(1.0, 0.1, 0)
    e = MCEstimate.exact(3.0)
    assert e.mean == 3.0 and e.stderr == 0.0


# ---------------------------------------------------------------- streams


def test_stream_plan_allocates_sequentially():
    plan = StreamPlan(7, base=100)
    s1, s2 = plan.allocate(), plan.allocate()
    assert (s1.seed, s1.stream_id) == (7, 100)
    assert (s2.seed, s2.stream_id) == (7, 101)
    assert plan.allocated == 2


def test_as_plan_strides_roles():
    plan = as_plan(RngStream(5, 3))
    assert plan.allocate().stream_id == 3 * ROLE_STRIDE
    existing = StreamPlan(5, 9)
    assert as_plan(existing) is existing


# ---------------------------------------------------------------- mc_mean


def test_mc_mean_normal_sanity():
    est = mc_mean(normals, 200000, RngStream(1))
    assert abs(est.mean) < 4 * est.stderr
    assert est.stderr == pytest.approx(1 / np.sqrt(200000), rel=0.02)
    assert est.n == 200000


def test_mc_mean_chunking_does_not_change_stream_consumption():
    # Same anchor, different n: the first chunk's draws coincide, so small
    # perturbations of n leave the estimate consistent, not re-randomized.
    a = mc_mean(normals, CHUNK_DRAWS, RngStream(4))
    b = mc_mean(normals, CHUNK_DRAWS + 50, RngStream(4))
    # reconstruct b from a's chunk plus the 50-draw tail chunk
    tail = RngStream(4, (0 << 32) | 1).generator().standard_normal(50)
    want = (a.mean * CHUNK_DRAWS + tail.sum()) / (CHUNK_DRAWS + 50)
    assert b.mean == pytest.approx(want, rel=1e-12)


def test_mc_mean_degenerate_and_nonfinite():
    with pytest.raises(DegenerateVariance):
        mc_mean(lambda gen, m: np.ones(m), 100, RngStream(5))
    with pytest.raises(FloatingPointError):
        mc_mean(lambda gen, m: np.full(m, np.nan), 100, RngStream(5))
    with pytest.raises(ValueError):
        mc_mean(normals, 0, RngStream(5))
    with pytest.raises(ValueError):
        mc_mean(lambda gen, m: np.ones((m, 2)), 100, RngStream(5))


def correlated_columns(gen, m):
    z = gen.standard_normal((m, 2))
    return np.column_stack((z[:, 0], z[:, 0] + 0.5 * z[:, 1], np.exp(z[:, 1])))


def test_mc_mean_comoment_fold_is_worker_independent():
    # three chunks, the last of one draw, so the pairwise fold runs twice
    n = 2 * CHUNK_DRAWS + 1
    joint = mc_mean(correlated_columns, n, RngStream(15, 3), columns=3)
    draws = np.concatenate(
        [
            correlated_columns(RngStream(15, (3 << 32) | c).generator(), m)
            for c, m in ((0, CHUNK_DRAWS), (1, CHUNK_DRAWS), (2, 1))
        ]
    )
    dev = draws - draws.mean(axis=0)
    np.testing.assert_allclose(joint.mean, draws.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(joint.comoment, dev.T @ dev, rtol=1e-10, atol=1e-8)
    # a column of the joint fold is the scalar estimate
    scalar = mc_mean(lambda gen, m: correlated_columns(gen, m)[:, 0], n, RngStream(15, 3))
    single = mc_mean(
        lambda gen, m: correlated_columns(gen, m)[:, :1], n, RngStream(15, 3), columns=1
    )
    for est in (joint.column(0), single.column(0)):
        assert est.mean == pytest.approx(scalar.mean, rel=1e-15, abs=0.0)
        assert est.stderr == pytest.approx(scalar.stderr, rel=1e-15, abs=0.0)
        assert est.n == scalar.n == n


def test_joint_estimate_delta_method():
    est = mc_mean(correlated_columns, 50000, RngStream(16), columns=3)
    cov = est.comoment / (est.n - 1)
    grad = np.array([1.0, -2.0, 0.5])
    assert est.stderr(grad) == pytest.approx(np.sqrt(grad @ cov @ grad / est.n), rel=1e-12)
    # column 1 minus column 0 is 0.5 z_1, whose stderr is 0.5 / sqrt(n)
    assert est.stderr(est.unit(1) - est.unit(0)) == pytest.approx(
        0.5 / np.sqrt(est.n), rel=0.02
    )
    assert est.column(None) == MCEstimate(1.0, 0.0, 50000)


def test_mc_mean_columns_validation():
    with pytest.raises(ValueError):
        mc_mean(normals, 100, RngStream(5), columns=2)
    with pytest.raises(DegenerateVariance):
        mc_mean(
            lambda gen, m: np.column_stack((gen.standard_normal(m), np.ones(m))),
            100, RngStream(5), columns=2,
        )
    with pytest.raises(FloatingPointError):
        mc_mean(lambda gen, m: np.full((m, 2), np.inf), 100, RngStream(5), columns=2)
    empty = mc_mean(normals, 100, RngStream(5), columns=0)
    assert empty.n == 100 and empty.mean.shape == (0,)


def test_mc_mean_single_draw_has_zero_stderr():
    est = mc_mean(normals, 1, RngStream(6))
    assert est.n == 1 and est.stderr == 0.0


# ---------------------------------------------------------------- mc_probability


def test_mc_probability_binomial_se():
    est = mc_probability(lambda gen, m: gen.standard_normal(m) > 0, 100000, RngStream(7))
    assert abs(est.mean - 0.5) < 4 * est.stderr
    assert est.stderr == pytest.approx(
        np.sqrt(est.mean * (1 - est.mean) / 100000), rel=1e-12
    )


def test_mc_probability_degenerate_event():
    with pytest.raises(DegenerateEvent):
        mc_probability(lambda gen, m: np.ones(m, dtype=bool), 100, RngStream(8))
    with pytest.raises(DegenerateEvent):
        mc_probability(lambda gen, m: np.zeros(m, dtype=bool), 100, RngStream(8))


# ---------------------------------------------------------------- exponents


def test_exponent_vector_validation_and_from_signed():
    with pytest.raises(ValueError):
        ExponentVector((1.0, -0.5), (1, 1))
    with pytest.raises(ValueError):
        ExponentVector((1.0,), (2,))
    with pytest.raises(ValueError):
        ExponentVector((1.0, 1.0), (1,))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            ExponentVector((bad, 1.0), (1, 1))
    e = ExponentVector.from_signed([0.5, -1.25, 0.0])
    assert e.values == (0.5, 1.25, 0.0)
    assert e.signs == (1, -1, 1)
    assert e.signed == (0.5, -1.25, 0.0)
    assert e.d == 3


def test_finiteness_windows():
    # block of size 2, alpha 8: negative power infinite at >= 3.5,
    # guaranteed inside (0.5, 3.5), unknown at <= 0.5
    f = lambda v: finiteness_classify(8.0, (2,), ExponentVector((v,), (-1,)))
    assert f(3.5) is Finiteness.INFINITE
    assert f(4.0) is Finiteness.INFINITE
    assert f(1.0) is Finiteness.FINITE_GUARANTEED
    assert f(0.5) is Finiteness.UNKNOWN
    assert f(0.2) is Finiteness.UNKNOWN
    # positive and zero powers never constrain
    pos = ExponentVector((9.0, 0.0), (1, -1))
    assert finiteness_classify(3.0, (2, 2), pos) is Finiteness.FINITE_GUARANTEED
    with pytest.raises(ValueError):
        finiteness_classify(3.0, (2,), pos)


# ---------------------------------------------------------------- product moment


def fixture_model():
    sigma = np.array(
        [
            [1.0, 0.3, 0.1],
            [0.3, 1.0, 0.2],
            [0.1, 0.2, 1.0],
        ]
    )
    return WishartModel(6.0, sigma, BlockSpec((1, 2)))


def test_mc_product_moment_matches_exact_scalar():
    # single scalar block: compare against the closed-form gamma moment
    from wishartgpi.wishart import minor_moment

    model = fixture_model()
    est = mc_product_moment(
        model, ExponentVector((0.9, 0.0), (1, 1)), 150000, RngStream(11), subset=(0,)
    )
    want = minor_moment(model, 0, 0.9)
    assert abs(est.mean - want) < 4 * est.stderr


def test_mc_product_moment_subset_and_zero_shortcut():
    model = fixture_model()
    exps = ExponentVector((0.0, 0.0), (1, 1))
    est = mc_product_moment(model, exps, 500, RngStream(12))
    assert est == MCEstimate(1.0, 0.0, 500)
    with pytest.raises(ValueError):
        mc_product_moment(model, exps, 500, RngStream(12), subset=(0, 0))
    with pytest.raises(ValueError):
        mc_product_moment(model, ExponentVector((1.0,), (1,)), 500, RngStream(12))


def test_mc_product_moment_refuses_unsafe_negative_powers():
    model = fixture_model()
    # alpha 6, scalar block: infinite at nu >= 3
    with pytest.raises(InfiniteMoment):
        mc_product_moment(model, ExponentVector((3.0, 0.0), (-1, 1)), 1000, RngStream(13))
    # size-2 block, nu = 0.3 <= 1/2: unknown, refused without override
    exps = ExponentVector((0.0, 0.3), (1, -1))
    with pytest.raises(InfiniteMoment):
        mc_product_moment(model, exps, 1000, RngStream(13))
    est = mc_product_moment(
        model, exps, 1000, RngStream(13), override_finiteness=True
    )
    assert est.mean > 0


def test_mc_product_moment_worker_determinism():
    model = fixture_model()
    exps = ExponentVector((0.5, 0.8), (1, -1))
    # two chunks: every call on one anchor folds the same draws
    runs = [mc_product_moment(model, exps, 70000, RngStream(14)) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    assert mc_product_moment(model, exps, 70000, RngStream(15)) != runs[0]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor-fault counts are Linux's")
def test_chunked_product_moment_reuses_its_buffers():
    # Every chunk builds its factors, log-dets and columns in per-thread
    # buffers kept from the previous call, so a warm call barely touches
    # fresh pages (allocating each chunk's arrays anew took ~8,000 faults).
    resource = pytest.importorskip("resource")
    model = WishartModel(10.0, random_correlation(5, RngStream(51)), BlockSpec((2, 1, 2)))
    exps = ExponentVector((0.7, 0.4, 0.7), (-1, -1, -1))

    def run():
        return mc_product_moment(model, exps, 4 * CHUNK_DRAWS, RngStream(52))

    first = run()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    again = run()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert again == first
    assert faults < 256


# ------------------------------------------------------------ conditioning


def test_conditioning_never_takes_an_uncoupled_scalar_block():
    # Blocks (1, 1, 1) with block 2 uncoupled: its conditional moment is a
    # constant, a column mc_mean would refuse as degenerate, so the last
    # coupled scalar block with a power is taken, or none.
    sigma = np.array([[1.0, 0.0, 0.5], [0.0, 1.5, 0.0], [0.5, 0.0, 0.8]])
    model = WishartModel(8.0, sigma, BlockSpec((1, 1, 1)))
    exps = ExponentVector((0.5, 0.8, 0.6), (1, 1, 1))
    assert product_columns(model, exps, [range(3)]).conditioned == 2
    assert product_columns(model, ExponentVector((0.5, 0.8, 0.0), (1, 1, 1)), [range(3)]).conditioned == 0
    for signs, tilt in (((1, 1, 1), 0.0), ((1, -1, 1), 0.8)):
        cols = product_columns(model, ExponentVector((0.5, 0.8, 0.6), signs), [(1,)])
        assert cols.conditioned is None and cols.tilt == tilt
    est = mc_product_moment(model, exps, 20000, RngStream(61), subset=(1,))
    assert abs(est.mean - minor_moment(model, 1, 0.8)) < 4 * est.stderr
    # d = 1 and a diagonal scale matrix have no coupled block: the tilt runs
    inv = ExponentVector((0.5,), (-1,))
    assert product_columns(WishartModel(5.0, [[2.0]]), inv, [(0,)]).conditioned is None
    diag = WishartModel(8.0, np.diag([1.0, 1.5, 0.8]), BlockSpec((1, 1, 1)))
    cols = product_columns(diag, ExponentVector((0.5, 0.5, 0.5), (-1, -1, -1)), [range(3)])
    assert cols.conditioned is None and cols.tilt == 0.5


def test_conditioning_needs_a_finite_second_moment():
    # (1, 1), alpha = 6, nu = (-2, -2): with either block conditioned the
    # other enters the second moment at -4, past alpha/2, so the tilt runs
    sigma = np.array([[1.0, 0.6 * 1.5**0.5], [0.6 * 1.5**0.5, 1.5]])
    cols = product_columns(WishartModel(6.0, sigma, BlockSpec((1, 1))), ExponentVector((2.0, 2.0), (-1, -1)), [(0, 1)])
    assert cols.conditioned is None and cols.tilt == 2.0
    # (1, 1, 1), alpha = 5, nu = (-1.3, 0.8, 0.8): only conditioning on the
    # inverted block 1 drops its -2.6 from the second moment
    model = WishartModel(5.0, random_correlation(3, RngStream(62)), BlockSpec((1, 1, 1)))
    cols = product_columns(model, ExponentVector((1.3, 0.8, 0.8), (-1, 1, 1)), [range(3)])
    assert cols.conditioned == 0 and cols.tilt == 0.0


@pytest.mark.parametrize(
    "sizes, alpha, signed, block",
    [
        ((2, 1, 2), 10.0, (-0.7, -0.4, -0.7), 1),
        ((1, 2, 1), 6.0, (0.7, 1.1, 0.5), 2),
        ((1, 1, 1), 6.0, (-0.5, -0.5, 1.0), 2),
    ],
)
def test_conditioned_columns_keep_their_means(sizes, alpha, signed, block, monkeypatch):
    # Every single and pair column, conditioned where it holds the block,
    # against its exact mean; the joint column against the unconditioned
    # estimator on its own draws.
    import wishartgpi.montecarlo as mc

    model = WishartModel(alpha, random_correlation(sum(sizes), RngStream(63, sum(sizes))), BlockSpec(sizes))
    exps = ExponentVector.from_signed(signed)
    d, n = len(sizes), 200_000
    cols = product_columns(model, exps, [range(d)], controls=True)
    assert cols.conditioned == block and cols.tilt == 0.0
    est = mc_mean(cols.draw, n, RngStream(64), columns=cols.k)
    groups = sorted(blocks for blocks, _ in cols.controls.values())
    assert groups == sorted([(i,) for i in range(d)] + [(i, j) for i in range(d) for j in range(i + 1, d)])
    for j, (blocks, mu) in cols.controls.items():
        got = est.column(j)
        assert abs(got.mean - mu) < 4 * got.stderr, blocks
    monkeypatch.setattr(mc, "_conditioning_block", lambda *args: None)
    plain = product_columns(model, exps, [range(d)])
    ref = mc_mean(plain.draw, n, RngStream(65), columns=plain.k).column(plain.index[0])
    joint = est.column(cols.index[0])
    assert abs(joint.mean - ref.mean) < 4 * hypot(joint.stderr, ref.stderr)


# ------------------------------------------------------------ control variates

CONTROL_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def joint_of(draws: np.ndarray) -> JointEstimate:
    """The JointEstimate of an (n, k) array of draws, in one pass."""
    dev = draws - draws.mean(axis=0)
    return JointEstimate(draws.mean(axis=0), dev.T @ dev, len(draws))


def mixed_columns(seed: int, k: int, n: int = 400) -> np.ndarray:
    # correlated columns of mixed scale and skew
    gen = np.random.default_rng(seed)
    z = gen.standard_normal((n, k)) @ gen.standard_normal((k, k))
    return np.exp(0.3 * z) * gen.uniform(0.1, 10.0, size=k)


control_cases = st.tuples(st.integers(2, 6), st.integers(0, 2**16)).flatmap(
    lambda ks: st.tuples(
        st.just(ks[0]), st.just(ks[1]),
        st.sets(st.integers(0, ks[0] - 1), min_size=1, max_size=ks[0] - 1),
    )
)


@CONTROL_SETTINGS
@given(control_cases)
def test_controlled_keeps_means_when_the_controls_sit_on_their_mean(case):
    k, seed, cs = case
    est = joint_of(mixed_columns(seed, k))
    out = est.controlled({j: est.mean[j] for j in cs})
    assert np.array_equal(out.mean, est.mean)


@CONTROL_SETTINGS
@given(control_cases)
def test_controlled_residual_is_psd_and_below_the_plain_comoment(case):
    k, seed, cs = case
    est = joint_of(mixed_columns(seed, k))
    out = est.controlled({j: 1.0 for j in cs})
    scale = np.abs(est.comoment).max()
    assert np.linalg.eigvalsh(out.comoment)[0] >= -1e-12 * scale
    # the residual quadratic form is the minimum of the plain one over
    # the control coordinates, so no gradient can gain variance
    for g in np.random.default_rng(seed).standard_normal((20, k)):
        assert g @ out.comoment @ g <= g @ est.comoment @ g + 1e-12 * scale * (g @ g)


@CONTROL_SETTINGS
@given(control_cases, st.floats(-5.0, 5.0))
def test_controlled_control_columns_are_exact(case, mu):
    k, seed, cs = case
    est = joint_of(mixed_columns(seed, k))
    out = est.controlled({j: mu + j for j in cs})
    for j in cs:
        col = out.column(j)
        assert col.mean == mu + j and col.stderr == 0.0 and col.n == est.n
        assert not out.comoment[j].any() and not out.comoment[:, j].any()


def test_controlled_recovers_the_regression_slope():
    gen = np.random.default_rng(71)
    n, beta = 200_000, np.array([1.5, -0.7])
    c = gen.gamma(3.0, size=(n, 2))
    y = 2.0 + c @ beta + 0.1 * gen.standard_normal(n)
    est = joint_of(np.column_stack((y, c)))
    mu = est.mean[1:].copy()
    # raising a control's exact mean by 1 raises Y's mean by its slope
    for j, b in enumerate(beta):
        shifted = mu.copy()
        shifted[j] += 1.0
        moved = est.controlled({1: shifted[0], 2: shifted[1]}).mean[0] - est.mean[0]
        assert moved == pytest.approx(b, abs=5e-3)
    # the residual is the noise alone
    plain, controlled = est.column(0), est.controlled({1: 3.0, 2: 3.0}).column(0)
    assert controlled.stderr == pytest.approx(0.1 / np.sqrt(n), rel=0.02)
    assert plain.stderr > 10 * controlled.stderr


def test_controlled_takes_duplicate_and_collinear_controls():
    draws = mixed_columns(5, 3, n=2000)
    c0 = draws[:, 1]
    # a duplicate of a control, and an affine function of it
    wide = np.column_stack((draws, c0, 2.0 * c0 + 1.0))
    est = joint_of(wide)
    mu = 1.1 * est.mean[1]
    out = est.controlled({1: mu, 3: mu, 4: 2.0 * mu + 1.0})
    once = joint_of(draws).controlled({1: mu})
    assert np.all(np.isfinite(out.mean)) and np.all(np.isfinite(out.comoment))
    assert out.mean[0] == pytest.approx(once.mean[0], rel=1e-9)
    assert out.column(0).stderr == pytest.approx(once.column(0).stderr, rel=1e-6)
