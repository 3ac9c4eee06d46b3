import sys

import numpy as np
import pytest

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
    MCEstimate,
    StreamPlan,
    as_plan,
    finiteness_classify,
    mc_mean,
    mc_probability,
    mc_product_moment,
)
from wishartgpi.wishart import RngStream, WishartModel, random_correlation


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
