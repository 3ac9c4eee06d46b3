"""Bartlett-factor kernels: the factor itself, block log-dets and eigenvalues.

The closed forms are checked against numpy on the Gram matrices they
replace. Inputs near a guard (near-singular 2x2 blocks, repeated or
widely spread eigenvalues) must take the numpy fallback and still return
finite, positive, ordered values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wishartgpi.montecarlo import CHUNK_DRAWS
from wishartgpi.wishart import (
    _SUB_DRAWS,
    RngStream,
    WishartModel,
    _sample_batch,
    _sub_blocks,
    factor_eigvals,
    factor_gram,
    factor_logdet,
    factor_matrices,
    sphere_batch,
)

EPS = np.finfo(float).eps
KERNEL_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def batched_draws(model, gen, m):
    """Bartlett draws as (m, p, p) matrices, built draw-major with batched matmuls."""
    p = model.p
    B = np.zeros((m, p, p))
    rows, cols = np.tril_indices(p, k=-1)
    if rows.size:
        B[:, rows, cols] = gen.standard_normal((m, rows.size))
    for i in range(p):
        B[:, i, i] = np.sqrt(gen.gamma((model.alpha - i) / 2.0, 2.0, size=m))
    A = model._chol[None, :, :] @ B
    X = A @ A.transpose(0, 2, 1)
    return (X + X.transpose(0, 2, 1)) / 2.0


def spectral_sigma(lam, seed):
    """Scale matrix Q diag(lam) Q^T with a seeded random rotation."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(lam), len(lam))))
    S = (q * np.asarray(lam, dtype=float)) @ q.T
    return (S + S.T) / 2.0


def factors_with_spectrum(lam, seed, m=16):
    """(p, p, m) lower-triangular factors of m randomly rotated matrices with spectrum `lam`."""
    return np.stack(
        [np.linalg.cholesky(spectral_sigma(lam, (seed, s))) for s in range(m)], axis=-1
    )


def block_rows(sizes):
    off = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    return [slice(int(a), int(b)) for a, b in zip(off[:-1], off[1:])]


def count_calls(monkeypatch, name):
    """Count the matrices numpy.linalg.<name> is asked to handle."""
    seen = []
    real = getattr(np.linalg, name)

    def spy(a):
        seen.append(np.asarray(a).reshape(-1, *np.shape(a)[-2:]).shape[0])
        return real(a)

    monkeypatch.setattr(np.linalg, name, spy)
    return seen


# ------------------------------------------------------------------ factor


@pytest.mark.parametrize("p", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("excess", [0.3, 4.7])
def test_factor_reproduces_batched_draws(p, excess):
    sigma = spectral_sigma(np.linspace(0.5, 3.0, p), p)
    model = WishartModel(p - 1 + excess, sigma)
    seed = np.random.SeedSequence([p, int(10 * excess)])
    m = 700
    A = _sample_batch(model, np.random.default_rng(seed), m).full()
    ref = batched_draws(model, np.random.default_rng(seed), m)
    assert A.shape == (p, p, m)
    upper = np.triu_indices(p, k=1)
    assert np.all(A[upper[0], upper[1]] == 0.0)
    assert np.all(A[np.arange(p), np.arange(p)] > 0.0)
    X = factor_matrices(A)
    assert X.shape == (m, p, p) and X.flags.c_contiguous
    assert np.array_equal(X, X.transpose(0, 2, 1))
    # entrywise against sqrt(X_ii X_jj), the natural scale of X_ij
    d = np.sqrt(np.einsum("mii->mi", ref))
    assert np.all(np.abs(X - ref) <= 1e-13 * d[:, :, None] * d[:, None, :])


def test_factor_gram_blocks_match_full_matrix():
    model = WishartModel(7.5, spectral_sigma([0.4, 1.0, 2.0, 3.0, 5.0], 1))
    A = _sample_batch(model, np.random.default_rng(2), 50).full()
    X = factor_matrices(A)
    for rows in (slice(0, 2), slice(2, 3), slice(1, 5), slice(3, 5)):
        assert np.array_equal(factor_gram(A, rows).transpose(2, 0, 1), X[:, rows, rows])


def one_gemm_factors(model, gen, m):
    """The (p, p, m) factors from one L B product over all draws: the
    reference the sub-block stream must match bit for bit."""
    p = model.p
    B = np.zeros((p, p, m))
    rows, cols = np.tril_indices(p, k=-1)
    if rows.size:
        B[rows, cols] = gen.standard_normal((m, rows.size)).T
    for i in range(p):
        B[i, i] = np.sqrt(gen.gamma((model.alpha - i) / 2.0, 2.0, size=m))
    return (model._chol @ B.reshape(p, p * m)).reshape(p, p, m)


SUB_BLOCK_EDGES = [1, _SUB_DRAWS - 1, _SUB_DRAWS, _SUB_DRAWS + 1, 3 * _SUB_DRAWS + 17, CHUNK_DRAWS]


@pytest.mark.parametrize("p", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("m", SUB_BLOCK_EDGES)
def test_factor_stream_matches_one_gemm_bit_for_bit(p, m):
    # Sub-block GEMMs equal the one big GEMM only if the BLAS kernel sums
    # each entry the same way whatever the matrix width; pin that here.
    model = WishartModel(p + 0.7, spectral_sigma(np.linspace(0.5, 3.0, p), p))
    gen, ref_gen = (RngStream(41, p).generator() for _ in range(2))
    stream = _sample_batch(model, gen, m)
    ref = one_gemm_factors(model, ref_gen, m)
    # the generator is left exactly where the one-shot sampler leaves it
    assert gen.random() == ref_gen.random()
    start = 0
    for draws, A in stream:
        assert draws.start == start and 0 < draws.stop - start <= _SUB_DRAWS
        assert np.array_equal(A, ref[:, :, draws])
        start = draws.stop
    assert start == m
    assert np.array_equal(stream.full(), ref)


@pytest.mark.parametrize("m", SUB_BLOCK_EDGES)
def test_sphere_and_radial_normals_in_sub_blocks_equal_one_shot_draws(m):
    # the radial ratio is a closed form, so only the sphere estimator draws
    one_shot = RngStream(43).generator()
    sphere = sphere_batch(one_shot, m, 3)
    gen = RngStream(43).generator()
    got = np.concatenate([sphere_batch(gen, d.stop - d.start, 3) for d in _sub_blocks(m)])
    assert np.array_equal(got, sphere)
    # the generator is left exactly where the one-shot sampler leaves it
    assert gen.random() == one_shot.random()


# ------------------------------------------------------------------ log-dets


@KERNEL_SETTINGS
@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    excess=st.floats(2.0, 30.0),
    spread=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**16),
)
def test_factor_logdet_agrees_with_slogdet(sizes, excess, spread, seed):
    p = sum(sizes)
    sigma = spectral_sigma(np.logspace(0.0, spread, p), seed)
    model = WishartModel(p - 1 + excess, sigma)
    A = _sample_batch(model, np.random.default_rng(seed), 64).full()
    X = factor_matrices(A)
    for rows in block_rows(sizes):
        got = factor_logdet(A, rows)
        sign, ref = np.linalg.slogdet(X[:, rows, rows])
        assert np.all(sign > 0)
        assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("gap", [1e-6, 1e-8])
def test_factor_logdet_near_singular_2x2_falls_back(monkeypatch, gap):
    # trailing 2x2 block of Sigma with correlation 1 - gap: condition about
    # 2 / gap, so a c - b^2 cancels and the guard must route to slogdet
    rho = 1.0 - gap
    sigma = np.array([[1.0, 0.3, 0.3], [0.3, 1.0, rho], [0.3, rho, 1.0]])
    model = WishartModel(6.5, sigma)
    A = _sample_batch(model, np.random.default_rng(3), 512).full()
    X = factor_matrices(A)
    seen = count_calls(monkeypatch, "slogdet")
    got = factor_logdet(A, slice(1, 3))
    assert sum(seen) == 512
    assert np.all(np.isfinite(got))
    sign, ref = np.linalg.slogdet(X[:, 1:3, 1:3])
    assert np.all(sign > 0)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("lam", [(1e-8, 1.0, 1.0), (1e-8, 1e-4, 1.0), (2.0, 2.0, 2.0)])
def test_factor_logdet_ill_conditioned_and_repeated(lam):
    """Condition about 1e8 and repeated eigenvalues.

    The leading block is read off the factor's diagonal and has no
    guard: it is the exact log-determinant of A A^T, while slogdet of the
    rounded Gram matrix is itself only accurate to about eps * cond.
    """
    A = factors_with_spectrum(lam, 4, m=64)
    X = factor_matrices(A)
    cond = max(lam) / min(lam)
    for rows in (slice(0, 3), slice(0, 2), slice(1, 3), slice(2, 3)):
        got = factor_logdet(A, rows)
        sign, ref = np.linalg.slogdet(X[:, rows, rows])
        assert np.all(np.isfinite(got)) and np.all(sign > 0)
        assert np.all(np.abs(got - ref) <= 1e-10 + 16 * EPS * cond)
    exact = float(np.sum(np.log(lam)))
    assert np.allclose(factor_logdet(A, slice(0, 3)), exact, rtol=0.0, atol=1e-10 + 16 * EPS * cond)


# ------------------------------------------------------------------ eigenvalues


@KERNEL_SETTINGS
@given(
    p=st.integers(1, 3),
    excess=st.floats(2.0, 30.0),
    spread=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**16),
)
def test_factor_eigvals_agree_with_eigvalsh(p, excess, spread, seed):
    sigma = spectral_sigma(np.logspace(0.0, spread, p), seed)
    model = WishartModel(p - 1 + excess, sigma)
    A = _sample_batch(model, np.random.default_rng(seed), 64).full()
    got = factor_eigvals(A)
    ref = np.linalg.eigvalsh(factor_matrices(A))[:, ::-1]
    assert got.shape == (64, p)
    assert np.all(np.abs(got - ref) <= 1e-10 * ref)


@KERNEL_SETTINGS
@given(
    lam=st.lists(
        st.sampled_from([1e-8, 1e-6, 1e-3, 0.5, 1.0, 1.0 + 1e-9, 3.0, 1e4]), min_size=3, max_size=3
    ),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**16),
)
def test_factor_eigvals_guard_on_repeated_and_ill_conditioned(lam, scale, seed):
    """Ties and condition up to 1e12 fall back to eigvalsh; output stays finite, positive, ordered."""
    lam = sorted(scale * np.asarray(lam), reverse=True)
    A = factors_with_spectrum(lam, seed)
    got = factor_eigvals(A)
    ref = np.linalg.eigvalsh(factor_matrices(A))[:, ::-1]
    assert np.all(np.isfinite(got))
    assert np.all(got[:, :-1] >= got[:, 1:])
    guarded = (lam[0] - lam[1] < 1e-2 * lam[0]) or (lam[1] - lam[2] < 1e-2 * lam[0]) or (
        lam[2] < 1e-3 * lam[0]
    )
    if guarded:
        # eigvalsh may round a tiny eigenvalue to zero or below; the
        # fallback returns exactly what it returns
        assert np.array_equal(got, ref)
    else:
        assert np.all(got > 0.0)
        assert np.all(np.abs(got - ref) <= 1e-10 * ref)


def test_factor_eigvals_small_p_closed_forms(monkeypatch):
    # squared singular values of the factor carry relative accuracy even
    # at condition 1e8, where eigvalsh of the rounded Gram matrix does not
    seen = count_calls(monkeypatch, "eigvalsh")
    for lam in ([2.0], [5.0, 5.0], [1e8, 1.0], [3.0, 1.0]):
        A = factors_with_spectrum(lam, 5)
        got = factor_eigvals(A)
        ref = np.linalg.svd(A.transpose(2, 0, 1), compute_uv=False) ** 2
        assert np.all(np.abs(got - ref) <= 1e-10 * ref)
    assert seen == []


def test_factor_eigvals_p3_falls_back_only_where_guarded(monkeypatch):
    model = WishartModel(8.0, spectral_sigma([0.5, 1.0, 2.0], 6))
    A = _sample_batch(model, np.random.default_rng(6), 4096).full()
    seen = count_calls(monkeypatch, "eigvalsh")
    factor_eigvals(A)
    assert sum(seen) < 0.05 * 4096
